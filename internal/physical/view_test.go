package physical

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sqlx"
)

func col(t, c string) sqlx.ColRef { return sqlx.ColRef{Table: t, Column: c} }

func TestIntervalBasics(t *testing.T) {
	full := FullInterval()
	if !full.Unbounded() {
		t.Error("full interval should be unbounded")
	}
	p := PointInterval(5)
	if !p.IsPoint() || p.Unbounded() {
		t.Error("point interval misclassified")
	}
	s := StringPoint("x")
	if !s.IsPoint() || !s.IsString {
		t.Error("string point misclassified")
	}
}

func TestIntervalContains(t *testing.T) {
	outer := Interval{Lo: 0, Hi: 10, LoIncl: true, HiIncl: true}
	inner := Interval{Lo: 2, Hi: 8, LoIncl: true, HiIncl: false}
	if !outer.Contains(inner) || inner.Contains(outer) {
		t.Error("containment wrong")
	}
	// Boundary inclusivity matters.
	open := Interval{Lo: 0, Hi: 10, LoIncl: false, HiIncl: true}
	closed := Interval{Lo: 0, Hi: 10, LoIncl: true, HiIncl: true}
	if open.Contains(closed) {
		t.Error("open interval cannot contain its closed version")
	}
	if !closed.Contains(open) {
		t.Error("closed interval contains its open version")
	}
}

func randomInterval(r *rand.Rand) Interval {
	if r.Intn(6) == 0 {
		return StringPoint(string(rune('a' + r.Intn(3))))
	}
	lo := math.Inf(-1)
	hi := math.Inf(1)
	if r.Intn(3) > 0 {
		lo = float64(r.Intn(100))
	}
	if r.Intn(3) > 0 {
		hi = lo + float64(r.Intn(100))
		if math.IsInf(lo, -1) {
			hi = float64(r.Intn(100))
		}
	}
	return Interval{Lo: lo, Hi: hi, LoIncl: r.Intn(2) == 0, HiIncl: r.Intn(2) == 0}
}

// Property: the hull of two intervals contains both inputs.
func TestIntervalHullContainsInputs(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500, Values: func(vals []reflect.Value, r *rand.Rand) {
		vals[0] = reflect.ValueOf(randomInterval(r))
		vals[1] = reflect.ValueOf(randomInterval(r))
	}}
	if err := quick.Check(func(a, b Interval) bool {
		h := a.Hull(b)
		return h.Contains(a) && h.Contains(b)
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestHullUnboundedElimination reproduces the paper's example: merging
// R.a < 10 with R.a > 5 yields an unbounded hull, which view merging must
// eliminate.
func TestHullUnboundedElimination(t *testing.T) {
	lt10 := Interval{Lo: math.Inf(-1), Hi: 10}
	gt5 := Interval{Lo: 5, Hi: math.Inf(1)}
	if !lt10.Hull(gt5).Unbounded() {
		t.Error("hull of a<10 and a>5 should be unbounded")
	}
}

func simpleView(name string, grouped bool) *View {
	v := &View{
		Name:   name,
		Tables: []string{"r", "s"},
		Joins:  []JoinPred{NewJoinPred(col("r", "x"), col("s", "y"))},
		Ranges: []RangeCond{{Col: col("r", "a"), Iv: Interval{Lo: math.Inf(-1), Hi: 10}}},
		Cols: []ViewColumn{
			BaseViewColumn(col("r", "a"), 4),
			BaseViewColumn(col("s", "b"), 8),
		},
	}
	if grouped {
		v.GroupBy = []sqlx.ColRef{col("r", "a")}
		v.Cols = append(v.Cols, AggViewColumn(sqlx.AggSum, col("s", "b"), 8))
	}
	v.Name = name
	return v
}

func TestViewSignatureStable(t *testing.T) {
	a := simpleView("v1", true)
	b := simpleView("v2", true)
	if a.Signature() != b.Signature() {
		t.Error("signature must not depend on the name")
	}
	c := simpleView("v3", false)
	if a.Signature() == c.Signature() {
		t.Error("grouping must change the signature")
	}
}

func TestViewColumnLookups(t *testing.T) {
	v := simpleView("v", true)
	if v.ColumnForSource(col("r", "a")) == nil {
		t.Error("base column lookup failed")
	}
	if v.AggColumnFor(sqlx.AggSum, col("s", "b")) == nil {
		t.Error("aggregate column lookup failed")
	}
	if v.AggColumnFor(sqlx.AggMin, col("s", "b")) != nil {
		t.Error("wrong aggregate should not match")
	}
}

func TestViewSQLRendersParseable(t *testing.T) {
	v := simpleView("v", true)
	sql := v.SQL()
	if _, err := sqlx.Parse(sql); err != nil {
		t.Errorf("view SQL %q does not parse: %v", sql, err)
	}
	for _, frag := range []string{"GROUP BY", "SUM(", "r.x = s.y", "< 10"} {
		if !strings.Contains(sql, frag) {
			t.Errorf("view SQL missing %q: %s", frag, sql)
		}
	}
}

func width(sqlx.ColRef) int { return 8 }

// TestMergeViewsGrouped: merging two grouped views unions grouping and
// output columns.
func TestMergeViewsGrouped(t *testing.T) {
	v1 := simpleView("v1", true)
	v2 := simpleView("v2", true)
	v2.Ranges = []RangeCond{{Col: col("r", "a"), Iv: Interval{Lo: 10, LoIncl: true, Hi: 20}}}
	v2.GroupBy = []sqlx.ColRef{col("s", "b")}
	vm := MergeViews(v1, v2, width)
	if vm == nil {
		t.Fatal("merge failed")
	}
	// Hull of (-inf,10) and [10,20) is (-inf,20): still bounded above.
	if len(vm.Ranges) != 1 || vm.Ranges[0].Iv.Hi != 20 {
		t.Errorf("merged ranges: %v", vm.Ranges)
	}
	if len(vm.GroupBy) < 2 {
		t.Errorf("merged group-by should union: %v", vm.GroupBy)
	}
	if vm.AggColumnFor(sqlx.AggSum, col("s", "b")) == nil {
		t.Error("merged view lost the aggregate")
	}
}

// TestMergeViewsUngroupedDropsAggregates: when one input is not grouped,
// the merged view holds raw rows and aggregates revert to base columns.
func TestMergeViewsUngroupedDropsAggregates(t *testing.T) {
	v1 := simpleView("v1", true)
	v2 := simpleView("v2", false)
	vm := MergeViews(v1, v2, width)
	if vm == nil {
		t.Fatal("merge failed")
	}
	if len(vm.GroupBy) != 0 {
		t.Errorf("GM should be empty: %v", vm.GroupBy)
	}
	if vm.AggColumnFor(sqlx.AggSum, col("s", "b")) != nil {
		t.Error("aggregate should be replaced by its base column")
	}
	if vm.ColumnForSource(col("s", "b")) == nil {
		t.Error("base column of the dropped aggregate is missing")
	}
}

// TestMergeViewsUnboundedRangeEliminated: the paper's a<10 ∪ a>5 example.
func TestMergeViewsUnboundedRangeEliminated(t *testing.T) {
	v1 := simpleView("v1", false)
	v2 := simpleView("v2", false)
	v2.Ranges = []RangeCond{{Col: col("r", "a"), Iv: Interval{Lo: 5, Hi: math.Inf(1)}}}
	vm := MergeViews(v1, v2, width)
	if vm == nil {
		t.Fatal("merge failed")
	}
	if len(vm.Ranges) != 0 {
		t.Errorf("unbounded merged range should be eliminated: %v", vm.Ranges)
	}
	// The range column must stay available for compensating filters.
	if vm.ColumnForSource(col("r", "a")) == nil {
		t.Error("range column missing from merged output")
	}
}

func TestMergeViewsRequiresSameTables(t *testing.T) {
	v1 := simpleView("v1", false)
	v2 := simpleView("v2", false)
	v2.Tables = []string{"r"}
	if MergeViews(v1, v2, width) != nil {
		t.Error("different FROM sets must not merge")
	}
}

// Property: a merged view matches whenever either input matched — checked
// through MatchView with the inputs' own definitions as query blocks.
func TestMergedViewMatchesBothInputs(t *testing.T) {
	v1 := simpleView("v1", false)
	v2 := simpleView("v2", false)
	v2.Ranges = []RangeCond{{Col: col("r", "a"), Iv: Interval{Lo: math.Inf(-1), Hi: 5}}}
	v2.Cols = append(v2.Cols, BaseViewColumn(col("s", "y"), 4))
	vm := MergeViews(v1, v2, width)
	if vm == nil {
		t.Fatal("merge failed")
	}
	if MatchView(v1, vm) == nil {
		t.Error("merged view must answer V1's block")
	}
	if MatchView(v2, vm) == nil {
		t.Error("merged view must answer V2's block")
	}
}

func TestPromoteIndexToView(t *testing.T) {
	v1 := simpleView("v1", true)
	v2 := simpleView("v2", true)
	vm := MergeViews(v1, v2, width)
	ix := NewIndex(v1.Name, []string{v1.Cols[0].Name}, []string{v1.Cols[2].Name}, false)
	p := PromoteIndexToView(ix, v1, vm)
	if p == nil {
		t.Fatal("promotion failed")
	}
	if p.Table != vm.Name {
		t.Errorf("promoted index table: %s", p.Table)
	}
	if vm.Column(p.Keys[0]) == nil {
		t.Errorf("promoted key %s missing from merged view", p.Keys[0])
	}
}

// TestPromoteIndexAggToBase: promoting an index keyed on an aggregate
// into an unaggregated merged view maps it to the base column.
func TestPromoteIndexAggToBase(t *testing.T) {
	v1 := simpleView("v1", true)
	v2 := simpleView("v2", false)
	vm := MergeViews(v1, v2, width)
	aggName := v1.AggColumnFor(sqlx.AggSum, col("s", "b")).Name
	ix := NewIndex(v1.Name, []string{aggName}, nil, false)
	p := PromoteIndexToView(ix, v1, vm)
	if p == nil {
		t.Fatal("promotion failed")
	}
	if vm.Column(p.Keys[0]) == nil {
		t.Errorf("mapped key %s missing from merged view", p.Keys[0])
	}
}
