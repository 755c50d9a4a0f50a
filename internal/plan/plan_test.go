package plan

import (
	"strings"
	"testing"

	"repro/internal/physical"
	"repro/internal/sqlx"
)

func TestCostArithmetic(t *testing.T) {
	a := Cost{IO: 10, CPU: 2}
	b := Cost{IO: 1, CPU: 1}
	if got := a.Add(b); got.IO != 11 || got.CPU != 3 {
		t.Errorf("Add: %+v", got)
	}
	if got := a.Scale(2); got.IO != 20 || got.CPU != 4 {
		t.Errorf("Scale: %+v", got)
	}
	if a.Total() != 12 {
		t.Errorf("Total: %g", a.Total())
	}
	if !(b.Total() < a.Total()) || a.Total() < b.Total() {
		t.Error("Total ordering wrong")
	}
}

func TestOrderSatisfies(t *testing.T) {
	cases := []struct {
		have, want []string
		eq         map[string]bool
		ok         bool
	}{
		{[]string{"t.a", "t.b"}, []string{"t.a"}, nil, true},
		{[]string{"t.a", "t.b"}, []string{"t.a", "t.b"}, nil, true},
		{[]string{"t.a", "t.b"}, []string{"t.b"}, nil, false},
		{[]string{"t.a", "t.b"}, []string{"t.b"}, map[string]bool{"t.a": true}, true},
		{[]string{"t.a", "t.b", "t.c"}, []string{"t.c"}, map[string]bool{"t.a": true, "t.b": true}, true},
		{[]string{"t.a"}, []string{"t.a", "t.b"}, nil, false},
		{nil, []string{"t.a"}, nil, false},
		{[]string{"t.a"}, nil, nil, true},
	}
	for i, c := range cases {
		if got := OrderSatisfies(c.have, c.want, c.eq); got != c.ok {
			t.Errorf("case %d: OrderSatisfies(%v, %v) = %v, want %v", i, c.have, c.want, got, c.ok)
		}
	}
}

func buildTree() Node {
	ix := physical.NewIndex("t", []string{"a"}, []string{"b"}, false)
	seek := NewIndexSeek(ix, []string{"a"}, 0.1, 100, Cost{IO: 5, CPU: 0.1}, []string{"t.a"})
	look := NewRidLookup(seek, "t", seek.TotalCost().Add(Cost{IO: 40}))
	filt := NewFilter(look, 0.5, "b > 3", look.TotalCost().Add(Cost{CPU: 0.1}))
	return NewSort(filt, []string{"t.b"}, filt.TotalCost().Add(Cost{CPU: 1}))
}

func TestPlanTreeProperties(t *testing.T) {
	root := buildTree()
	if root.OutRows() != 50 {
		t.Errorf("rows through filter: %g", root.OutRows())
	}
	if got := root.TotalCost(); got.IO != 45 || got.CPU != 1.2 {
		t.Errorf("cumulative cost: %+v", got)
	}
	if len(root.OutOrder()) != 1 || root.OutOrder()[0] != "t.b" {
		t.Errorf("sort order: %v", root.OutOrder())
	}
}

func TestFilterPreservesOrder(t *testing.T) {
	ix := physical.NewIndex("t", []string{"a"}, nil, false)
	scan := NewIndexScan(ix, 1000, Cost{IO: 10}, []string{"t.a"})
	f := NewFilter(scan, 0.1, "pred", scan.TotalCost())
	if len(f.OutOrder()) != 1 {
		t.Error("filter must preserve input order")
	}
}

func TestGroupByOrderSemantics(t *testing.T) {
	ix := physical.NewIndex("t", []string{"a"}, nil, false)
	scan := NewIndexScan(ix, 1000, Cost{IO: 10}, []string{"t.a"})
	hash := NewGroupBy(scan, []string{"t.a"}, AggHash, 10, scan.TotalCost())
	if hash.OutOrder() != nil {
		t.Error("hash aggregation destroys order")
	}
	stream := NewGroupBy(scan, []string{"t.a"}, AggStream, 10, scan.TotalCost())
	if len(stream.OutOrder()) != 1 {
		t.Error("stream aggregation preserves order")
	}
}

func TestFormatRendersTree(t *testing.T) {
	out := Format(buildTree())
	for _, frag := range []string{"Sort", "Filter", "RidLookup", "IndexSeek"} {
		if !strings.Contains(out, frag) {
			t.Errorf("formatted plan missing %q:\n%s", frag, out)
		}
	}
	if strings.Count(out, "\n") != 4 {
		t.Errorf("expected 4 lines:\n%s", out)
	}
}

func TestQueryPlanUsageHelpers(t *testing.T) {
	i1 := physical.NewIndex("t", []string{"a"}, nil, false)
	i2 := physical.NewIndex("u", []string{"b"}, nil, false)
	p := &QueryPlan{
		Usages: []*IndexUsage{
			{Index: i1}, {Index: i2}, {Index: i1},
		},
		UsedViews: []string{"v1"},
	}
	if !p.UsesIndex(i1.ID()) || p.UsesIndex("nope") {
		t.Error("UsesIndex wrong")
	}
	if !p.UsesView("v1") || p.UsesView("v2") {
		t.Error("UsesView wrong")
	}
	if got := p.UsedIndexIDs(); len(got) != 2 {
		t.Errorf("UsedIndexIDs should dedup: %v", got)
	}
}

func TestJoinOrderPropagation(t *testing.T) {
	ix := physical.NewIndex("t", []string{"a"}, nil, false)
	outer := NewIndexScan(ix, 100, Cost{IO: 1}, []string{"t.a"})
	inner := NewHeapScan("u", 50, Cost{IO: 1})
	edges := []physical.JoinPred{
		physical.NewJoinPred(sqlx.ColRef{Table: "t", Column: "a"}, sqlx.ColRef{Table: "u", Column: "b"}),
		physical.NewJoinPred(sqlx.ColRef{Table: "u", Column: "c"}, sqlx.ColRef{Table: "t", Column: "d"}),
	}
	j := NewJoin(JoinHash, outer, inner, edges, 500, outer.OutOrder(), Cost{IO: 2})
	if len(j.OutOrder()) != 1 || j.OutOrder()[0] != "t.a" {
		t.Error("probe-side order should propagate")
	}
	if len(j.Children()) != 2 {
		t.Error("join has two children")
	}
	if got, want := j.Label(), "HashJoin(t.a = u.b AND t.d = u.c)"; got != want {
		t.Errorf("join label %q, want %q", got, want)
	}
	if got := NewJoin(JoinNestedLoop, outer, inner, nil, 5000, nil, Cost{}).Label(); got != "NLJoin(cross)" {
		t.Errorf("cross product label %q", got)
	}
}

func TestPredFilterLabel(t *testing.T) {
	scan := NewHeapScan("t", 1000, Cost{IO: 10})
	gt := func(l, r string) sqlx.Expr {
		return &sqlx.CmpExpr{Op: sqlx.CmpGT, L: sqlx.ColRef{Table: "t", Column: l}, R: sqlx.ColRef{Table: "u", Column: r}}
	}
	f := NewPredFilter(scan, 0.25, []sqlx.Expr{gt("a", "b"), gt("c", "d")}, scan.TotalCost())
	if got, want := f.Label(), "Filter(t.a > u.b AND t.c > u.d, sel=0.25)"; got != want {
		t.Errorf("filter label %q, want %q", got, want)
	}
	if f.OutRows() != 250 {
		t.Errorf("rows through filter: %g", f.OutRows())
	}
}
