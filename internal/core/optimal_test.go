package core

import (
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/workloads"
)

func requestFixture() *optimizer.IndexRequest {
	return &optimizer.IndexRequest{
		Table: "t",
		S: []optimizer.SargCond{
			{Col: "a", Iv: physical.PointInterval(1), Sel: 0.10},
			{Col: "b", Iv: physical.PointInterval(2), Sel: 0.01},
			{Col: "r1", Iv: physical.Interval{Lo: 0, Hi: 10, LoIncl: true}, Sel: 0.2},
			{Col: "r2", Iv: physical.Interval{Lo: 0, Hi: 10, LoIncl: true}, Sel: 0.05},
		},
		N:    [][]string{{"n1", "n2"}},
		A:    []string{"x", "y"},
		Rows: 100000,
	}
}

// TestOptimalIndexNoOrder checks the §2.1 derivation: equality columns
// sorted by selectivity, then the most selective range column, with every
// other referenced column as suffix (Lemmas 1 and 2: no intersections, no
// lookups).
func TestOptimalIndexNoOrder(t *testing.T) {
	out := OptimalIndexesForRequest(requestFixture())
	if len(out) != 1 {
		t.Fatalf("expected one candidate, got %d", len(out))
	}
	ix := out[0]
	if strings.Join(ix.Keys, ",") != "b,a,r2" {
		t.Errorf("keys: %v (want most-selective eq first, then best range)", ix.Keys)
	}
	for _, c := range []string{"r1", "n1", "n2", "x", "y"} {
		if !ix.HasColumn(c) {
			t.Errorf("suffix missing %s", c)
		}
	}
}

// TestOptimalIndexWithOrder: a second candidate keyed on O appears; when
// O ⊆ S the remaining sargable columns extend the key.
func TestOptimalIndexWithOrder(t *testing.T) {
	req := requestFixture()
	req.O = []string{"o1"}
	out := OptimalIndexesForRequest(req)
	if len(out) != 2 {
		t.Fatalf("expected two candidates, got %d", len(out))
	}
	if out[1].Keys[0] != "o1" {
		t.Errorf("order candidate keys: %v", out[1].Keys)
	}
	// O ⊆ S case: order column is also sargable.
	req2 := requestFixture()
	req2.O = []string{"a"}
	out2 := OptimalIndexesForRequest(req2)
	keys := out2[1].Keys
	if keys[0] != "a" || len(keys) < 2 {
		t.Errorf("O ⊆ S should extend keys with remaining sargable columns: %v", keys)
	}
}

func TestOptimalIndexNoPredicates(t *testing.T) {
	req := &optimizer.IndexRequest{Table: "t", A: []string{"x", "y"}, Rows: 1000}
	out := OptimalIndexesForRequest(req)
	if len(out) != 1 {
		t.Fatalf("candidates: %d", len(out))
	}
	if !out[0].Covers([]string{"x", "y"}) {
		t.Error("scan-only covering index expected")
	}
}

func TestOptimalIndexEmptyRequest(t *testing.T) {
	if out := OptimalIndexesForRequest(&optimizer.IndexRequest{Table: "t"}); out != nil {
		t.Errorf("empty request should produce nothing: %v", out)
	}
}

func tpchTuner(t testing.TB, opts Options) *Tuner {
	t.Helper()
	db := datagen.TPCH(0.001)
	w, err := workloads.TPCH22()
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	tn, err := NewTuner(db, w, opts)
	if err != nil {
		t.Fatalf("tuner: %v", err)
	}
	return tn
}

// TestOptimalFragmentIsUsed: every structure in a per-query optimal
// fragment is actually read by the optimal plan.
func TestOptimalFragmentIsUsed(t *testing.T) {
	tn := tpchTuner(t, Options{})
	for _, tq := range tn.Queries[:6] {
		frag, res, err := tn.optimalForQueryOn(tn.Opt, tq)
		if err != nil {
			t.Fatalf("%s: %v", tq.Query.ID, err)
		}
		for _, ix := range frag.Indexes() {
			if strings.HasPrefix(ix.ID(), "cix:") && tn.Base.HasIndex(ix.ID()) {
				continue
			}
			usedDirectly := res.Plan.UsesIndex(ix.ID())
			// Clustered view indexes may be present only to materialize a
			// view whose secondary index the plan reads.
			onUsedView := false
			if v := frag.View(ix.Table); v != nil && res.Plan.UsesView(v.Name) {
				onUsedView = true
			}
			if !usedDirectly && !onUsedView {
				t.Errorf("%s: fragment structure %s is not used", tq.Query.ID, ix.ID())
			}
		}
	}
}

// TestOptimalBeatsHandPickedConfigs: the §2 optimal configuration is
// never beaten by hand-constructed alternatives (the paper's optimality
// claim for SELECT-only workloads).
func TestOptimalBeatsHandPickedConfigs(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatalf("optimal: %v", err)
	}
	opt, err := tn.Evaluate(optCfg)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	// Hand-built competitor: covering single-column indexes everywhere.
	rival := tn.Base.Clone()
	for _, tb := range tn.DB.Tables() {
		cols := tb.ColumnNames()
		for _, c := range cols[:minInt(3, len(cols))] {
			rival.AddIndex(physical.NewIndex(tb.Name, []string{c}, cols, false))
		}
	}
	rivalEval, err := tn.Evaluate(rival)
	if err != nil {
		t.Fatalf("evaluate rival: %v", err)
	}
	if opt.Cost > rivalEval.Cost*1.0001 {
		t.Errorf("optimal configuration beaten: %.2f > %.2f", opt.Cost, rivalEval.Cost)
	}
}

// TestOptimalMonotoneAgainstAdditions: adding any structure to the
// optimal configuration cannot reduce the workload cost further.
func TestOptimalMonotoneAgainstAdditions(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	opt, err := tn.Evaluate(optCfg)
	if err != nil {
		t.Fatal(err)
	}
	extra := optCfg.Clone()
	extra.AddIndex(physical.NewIndex("lineitem", []string{"l_discount", "l_tax"}, []string{"l_quantity"}, false))
	extra.AddIndex(physical.NewIndex("orders", []string{"o_clerk"}, []string{"o_totalprice"}, false))
	bigger, err := tn.Evaluate(extra)
	if err != nil {
		t.Fatal(err)
	}
	if bigger.Cost < opt.Cost*0.999 {
		t.Errorf("additions improved the 'optimal' configuration: %.2f < %.2f", bigger.Cost, opt.Cost)
	}
}

func TestRequestCountsPositive(t *testing.T) {
	tn := tpchTuner(t, Options{})
	ir, vr, err := tn.RequestCounts()
	if err != nil {
		t.Fatal(err)
	}
	if ir == 0 || vr == 0 {
		t.Errorf("requests: idx=%d view=%d", ir, vr)
	}
	// Small per query on average (Table 1's message).
	if ir > int64(len(tn.Queries))*100 {
		t.Errorf("index requests implausibly large: %d", ir)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
