package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/physical"
	"repro/internal/workloads"
)

// TestIncrementalEvaluationMatchesFull validates the optimality-principle
// optimization (§3/§3.3.2): re-optimizing only the queries that used a
// removed structure yields exactly the same configuration cost as
// re-optimizing everything.
func TestIncrementalEvaluationMatchesFull(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	parent, err := tn.Evaluate(optCfg)
	if err != nil {
		t.Fatal(err)
	}
	trs := physical.Enumerate(optCfg, physical.EnumerateOptions{NoViews: true, HeapTables: tn.heapTables})
	rng := rand.New(rand.NewSource(21))
	rng.Shuffle(len(trs), func(i, j int) { trs[i], trs[j] = trs[j], trs[i] })
	for _, tr := range trs[:15] {
		cfgNew := tr.Apply(optCfg)
		inc, ok, err := tn.evalQueries(parent, cfgNew, tr.RemovedIndexIDs(), tr.RemovedViewNames(), 0)
		if err != nil || !ok {
			t.Fatalf("%s: %v", tr, err)
		}
		// A second session re-optimizes every query from scratch.
		tn2 := tpchTuner(t, Options{NoViews: true, FullReoptimize: true})
		full, err := tn2.Evaluate(cfgNew)
		if err != nil {
			t.Fatal(err)
		}
		if diff := inc.Cost - full.Cost; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("%s: incremental %.6f != full %.6f", tr, inc.Cost, full.Cost)
		}
	}
}

// TestIncrementalSavesOptimizerCalls: the incremental path must call the
// optimizer far less than full re-evaluation.
func TestIncrementalSavesOptimizerCalls(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	parent, err := tn.Evaluate(optCfg)
	if err != nil {
		t.Fatal(err)
	}
	trs := physical.Enumerate(optCfg, physical.EnumerateOptions{NoViews: true, HeapTables: tn.heapTables})
	var tr *physical.Transformation
	for _, cand := range trs {
		if cand.Kind == physical.TransPrefixIndex {
			tr = cand
			break
		}
	}
	if tr == nil {
		t.Skip("no prefix transformation found")
	}
	before := tn.Opt.Stats().OptimizeCalls
	_, ok, err := tn.evalQueries(parent, tr.Apply(optCfg), tr.RemovedIndexIDs(), tr.RemovedViewNames(), 0)
	if err != nil || !ok {
		t.Fatal(err)
	}
	calls := tn.Opt.Stats().OptimizeCalls - before
	if calls >= int64(len(tn.Queries)) {
		t.Errorf("incremental evaluation used %d calls for %d queries", calls, len(tn.Queries))
	}
}

func TestTuneRespectsBudget(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	optSize := tn.Opt.Sizer().ConfigBytes(optCfg)
	for _, frac := range []int64{4, 2} {
		budget := optSize / frac
		tn2 := tpchTuner(t, Options{NoViews: true, SpaceBudget: budget, MaxIterations: 60})
		res, err := tn2.Tune()
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.SizeBytes > budget {
			t.Errorf("budget %d violated: %d", budget, res.Best.SizeBytes)
		}
		if res.Best.Cost > res.Initial.Cost {
			t.Errorf("worse than doing nothing: %.1f > %.1f", res.Best.Cost, res.Initial.Cost)
		}
	}
}

func TestTuneMoreSpaceNeverHurts(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	optSize := tn.Opt.Sizer().ConfigBytes(optCfg)
	var prevCost float64
	for i, frac := range []int64{5, 3, 2, 1} {
		tn2 := tpchTuner(t, Options{NoViews: true, SpaceBudget: optSize / frac, MaxIterations: 80})
		res, err := tn2.Tune()
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Best.Cost > prevCost*1.02 {
			t.Errorf("more space degraded the recommendation: %.1f (budget /%d) > %.1f", res.Best.Cost, frac, prevCost)
		}
		prevCost = res.Best.Cost
	}
}

func TestTuneUnconstrainedSelectOnlyReturnsOptimal(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true})
	res, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != res.Optimal {
		t.Error("without constraints or updates the optimal configuration is the answer")
	}
	if res.Iterations != 0 {
		t.Errorf("no search should run: %d iterations", res.Iterations)
	}
}

func TestTuneFrontierAndCensusRecorded(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true, MaxIterations: 25})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	budget := tn.Opt.Sizer().ConfigBytes(optCfg) / 3
	tn2 := tpchTuner(t, Options{NoViews: true, MaxIterations: 25, SpaceBudget: budget})
	res, err := tn2.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) < 2 {
		t.Errorf("frontier too small: %d", len(res.Frontier))
	}
	if len(res.TransCensus) == 0 {
		t.Error("transformation census missing")
	}
	for _, c := range res.TransCensus {
		if c <= 0 {
			t.Error("census entries must be positive while searching")
		}
	}
}

// TestTuneAblations: every ablation switch still produces a valid
// recommendation; the paper variants only change guidance quality.
func TestTuneAblations(t *testing.T) {
	db := datagen.TPCH(0.001)
	w, err := workloads.TPCH22()
	if err != nil {
		t.Fatal(err)
	}
	probe, err := NewTuner(db, w, Options{NoViews: true})
	if err != nil {
		t.Fatal(err)
	}
	optCfg, err := probe.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	budget := probe.Opt.Sizer().ConfigBytes(optCfg) / 3
	variants := map[string]Options{
		"paper":       {NoViews: true, SpaceBudget: budget, MaxIterations: 30},
		"plain":       {NoViews: true, SpaceBudget: budget, MaxIterations: 30, PlainPenalty: true},
		"no-chain":    {NoViews: true, SpaceBudget: budget, MaxIterations: 30, DisableChainCorrection: true},
		"no-shortcut": {NoViews: true, SpaceBudget: budget, MaxIterations: 30, DisableShortcut: true},
		"full-reopt":  {NoViews: true, SpaceBudget: budget, MaxIterations: 30, FullReoptimize: true},
	}
	for name, opts := range variants {
		tn, err := NewTuner(db, w, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tn.Tune()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Best.SizeBytes > budget {
			t.Errorf("%s: budget violated", name)
		}
		if res.Best.Cost > res.Initial.Cost {
			t.Errorf("%s: worse than initial", name)
		}
	}
}

// TestTuneUpdateWorkloadDropsMaintenanceHogs: with updates, unconstrained
// tuning must end below the raw optimal configuration's total cost (the
// §3.6 behaviour of relaxing past the fit point).
func TestTuneUpdateWorkloadDropsMaintenanceHogs(t *testing.T) {
	db := datagen.TPCH(0.001)
	w, err := workloads.FromStatements("upd", "tpch", []string{
		"SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderdate >= 9131 GROUP BY o_orderpriority",
		"SELECT l_shipmode, SUM(l_extendedprice) FROM lineitem WHERE l_shipdate > 9131 GROUP BY l_shipmode",
		"UPDATE lineitem SET l_discount = l_discount + 0.01 WHERE l_shipdate >= 10400",
		"UPDATE orders SET o_totalprice = o_totalprice * 1.05 WHERE o_orderdate >= 10400",
	})
	if err != nil {
		t.Fatal(err)
	}
	tn, err := NewTuner(db, w, Options{NoViews: true, MaxIterations: 60})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Error("update workloads must search even without a space constraint")
	}
	if res.Best.Cost > res.Optimal.Cost {
		t.Errorf("search should not end above the starting configuration: %.1f > %.1f",
			res.Best.Cost, res.Optimal.Cost)
	}
}

func TestSkylineFiltersDominated(t *testing.T) {
	cands := []candidate{
		{penalty: -1, delta: Delta{DT: -10, DS: 10}},
		{penalty: -0.66, delta: Delta{DT: -20, DS: 30}}, // dominates the first
		{penalty: 5, delta: Delta{DT: 50, DS: 10}},      // dominated by the second
	}
	out, _ := new(rankBuffers).skyline(cands, false)
	if len(out) != 1 || out[0].delta.DT != -20 {
		t.Errorf("skyline: %+v", out)
	}
}

func TestSkylineKeepsIncomparable(t *testing.T) {
	cands := []candidate{
		{delta: Delta{DT: -10, DS: 10}},
		{delta: Delta{DT: -5, DS: 20}},
	}
	if got, _ := new(rankBuffers).skyline(cands, false); len(got) != 2 {
		t.Errorf("incomparable candidates must survive: %+v", got)
	}
}

func TestImprovementMetric(t *testing.T) {
	if got := Improvement(100, 40); got != 60 {
		t.Errorf("Improvement(100,40) = %g", got)
	}
	if got := Improvement(100, 150); got != -50 {
		t.Errorf("negative improvement: %g", got)
	}
	if got := Improvement(0, 10); got != 0 {
		t.Errorf("zero initial: %g", got)
	}
}

// TestPromotedClusteredIndexKeepsTableReachable: on this session the
// search promotes ix:t4(c) to the clustered index of heap table t4 and
// later removes the last secondary index covering q11's columns. The
// promoted index lists only column c, so no covering path is left; the
// table must then be scanned through its clustered index instead of the
// session failing with "no access path for table t4".
func TestPromotedClusteredIndexKeepsTableReachable(t *testing.T) {
	tn := benchTuner(t, 3, 0, Options{NoViews: true, Parallelism: 1})
	res, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.SizeBytes > tn.Options.SpaceBudget {
		t.Errorf("recommendation takes %d bytes, budget %d", res.Best.SizeBytes, tn.Options.SpaceBudget)
	}
	if res.Best.Cost >= res.Initial.Cost {
		t.Errorf("cost %g is not below initial %g", res.Best.Cost, res.Initial.Cost)
	}
}

// skylineReference is the §3.6 skyline by its definition: a candidate is
// dominated when another costs no more and saves at least as much space,
// strictly better in one. It returns the survivors and the dominated, each
// in input order.
func skylineReference(cands []candidate) (kept, pruned []string) {
	for i, c := range cands {
		dominated := false
		for j, o := range cands {
			if j != i && o.delta.DT <= c.delta.DT && o.delta.DS >= c.delta.DS &&
				(o.delta.DT < c.delta.DT || o.delta.DS > c.delta.DS) {
				dominated = true
				break
			}
		}
		if dominated {
			pruned = append(pruned, c.tr.ID())
		} else {
			kept = append(kept, c.tr.ID())
		}
	}
	return kept, pruned
}

func candidateIDs(cands []candidate) []string {
	var ids []string
	for _, c := range cands {
		ids = append(ids, c.tr.ID())
	}
	return ids
}

// TestSkylineKeepsWhatNothingDominates runs the skyline on a mixed ranking
// and then, with the same buffers, on rankings in which nothing is
// dominated. The mixed one keeps and prunes what the definition says, in
// input order; the others come back as they went in, in place, with no
// pruned list, even where an earlier call left one to reuse.
func TestSkylineKeepsWhatNothingDominates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	build := func(deltas [][2]float64) []candidate {
		cands := make([]candidate, len(deltas))
		for i, d := range deltas {
			tr := &physical.Transformation{Kind: physical.TransRemoveIndex, I1: physical.NewIndex("t", []string{string(rune('a' + i))}, nil, false)}
			cands[i] = candidate{tr: tr, at: i, delta: Delta{DT: d[1], DS: int64(d[0])}}
		}
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		return cands
	}
	var b rankBuffers
	mixed := build([][2]float64{{10, 5}, {5, 6}, {5, 1}, {1, -1}, {1, -1}, {0, 2}, {10, 5}, {3, 1}})
	wantKept, wantPruned := skylineReference(mixed)
	kept, pruned := b.skyline(slices.Clone(mixed), true)
	if got := candidateIDs(kept); !slices.Equal(got, wantKept) {
		t.Errorf("mixed ranking keeps %v, want %v", got, wantKept)
	}
	if got := candidateIDs(pruned); len(wantPruned) == 0 || !slices.Equal(got, wantPruned) {
		t.Errorf("mixed ranking prunes %v, want %v", got, wantPruned)
	}

	for _, deltas := range [][][2]float64{
		{{10, 5}, {5, 1}, {1, -1}, {20, 9}},
		{{4, 2}, {4, 2}, {2, 1}},
		{{7, -3}},
	} {
		front := build(deltas)
		if _, p := skylineReference(front); len(p) != 0 {
			t.Fatalf("fixture %v has dominated candidates", deltas)
		}
		in := slices.Clone(front)
		for _, withPruned := range []bool{true, false} {
			kept, pruned := b.skyline(in, withPruned)
			if !slices.Equal(candidateIDs(kept), candidateIDs(front)) || &kept[0] != &in[0] {
				t.Errorf("nothing dominated in %v, yet the skyline returned %v", candidateIDs(front), candidateIDs(kept))
			}
			if pruned != nil {
				t.Errorf("nothing dominated in %v, yet the skyline returned a pruned list %v", candidateIDs(front), candidateIDs(pruned))
			}
		}
	}
}
