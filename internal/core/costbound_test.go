package core

import (
	"math/rand"
	"testing"

	"repro/internal/physical"
)

// TestBoundDeltaIsUpperBound validates the central §3.3.2 guarantee: the
// transformation cost bound, computed without re-optimizing, is an upper
// bound on the actual cost increase observed when the relaxed
// configuration is evaluated for real.
func TestBoundDeltaIsUpperBound(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	ec, err := tn.Evaluate(optCfg)
	if err != nil {
		t.Fatal(err)
	}
	trs := physical.Enumerate(optCfg, physical.EnumerateOptions{
		NoViews:    true,
		HeapTables: tn.heapTables,
	})
	if len(trs) == 0 {
		t.Fatal("no transformations to test")
	}
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(len(trs), func(i, j int) { trs[i], trs[j] = trs[j], trs[i] })
	if len(trs) > 40 {
		trs = trs[:40]
	}
	checked := 0
	for _, tr := range trs {
		d, err := tn.BoundDelta(ec, tr)
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		after, ok, err := tn.evalQueries(ec, tr.Apply(optCfg), tr.RemovedIndexIDs(), tr.RemovedViewNames(), 0)
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if !ok {
			continue
		}
		actual := after.Cost - ec.Cost
		if actual > d.DT+1e-6+0.001*ec.Cost {
			t.Errorf("%s: actual increase %.3f exceeds bound %.3f", tr, actual, d.DT)
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("too few transformations checked: %d", checked)
	}
}

// TestBoundDeltaWithViews exercises the view-merge and view-removal
// bounds the same way.
func TestBoundDeltaWithViews(t *testing.T) {
	tn := tpchTuner(t, Options{})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	ec, err := tn.Evaluate(optCfg)
	if err != nil {
		t.Fatal(err)
	}
	var viewTrs []*physical.Transformation
	for _, tr := range physical.Enumerate(optCfg, tn.enumerateOptions()) {
		if tr.Kind == physical.TransMergeViews || tr.Kind == physical.TransRemoveView {
			viewTrs = append(viewTrs, tr)
		}
	}
	if len(viewTrs) == 0 {
		t.Fatal("no view transformations enumerated")
	}
	rng := rand.New(rand.NewSource(11))
	rng.Shuffle(len(viewTrs), func(i, j int) { viewTrs[i], viewTrs[j] = viewTrs[j], viewTrs[i] })
	if len(viewTrs) > 25 {
		viewTrs = viewTrs[:25]
	}
	violations, checked := 0, 0
	for _, tr := range viewTrs {
		d, err := tn.BoundDelta(ec, tr)
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		after, ok, err := tn.evalQueries(ec, tr.Apply(optCfg), tr.RemovedIndexIDs(), tr.RemovedViewNames(), 0)
		if err != nil {
			t.Fatalf("%s: %v", tr, err)
		}
		if !ok {
			continue
		}
		checked++
		actual := after.Cost - ec.Cost
		if actual > d.DT+1e-6+0.02*ec.Cost {
			violations++
			t.Logf("%s: actual %.3f > bound %.3f", tr, actual, d.DT)
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
	// View bounds involve approximations (merged-view cardinalities,
	// compensation costs); allow a small violation rate but not a broken
	// estimator.
	if violations*5 > checked {
		t.Errorf("view bound violated too often: %d of %d", violations, checked)
	}
}

// TestBoundDeltaSpaceSavings: ΔS equals the measured size difference.
func TestBoundDeltaSpaceSavings(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	ec, err := tn.Evaluate(optCfg)
	if err != nil {
		t.Fatal(err)
	}
	trs := physical.Enumerate(optCfg, physical.EnumerateOptions{NoViews: true, HeapTables: tn.heapTables})
	for _, tr := range trs[:20] {
		d, err := tn.BoundDelta(ec, tr)
		if err != nil {
			t.Fatal(err)
		}
		after := tr.Apply(optCfg)
		want := ec.SizeBytes - tn.Opt.Sizer().ConfigBytes(after)
		if d.DS != want {
			t.Errorf("%s: ΔS = %d, want %d", tr, d.DS, want)
		}
	}
}

// TestCostFromBaseCached: CBV computations are cached by signature.
func TestCostFromBaseCached(t *testing.T) {
	tn := tpchTuner(t, Options{})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	views := optCfg.Views()
	if len(views) == 0 {
		t.Skip("no views in optimal configuration")
	}
	v := views[0]
	before := tn.Opt.Stats().OptimizeCalls
	c1, err := tn.costFromBase(v)
	if err != nil {
		t.Fatal(err)
	}
	mid := tn.Opt.Stats().OptimizeCalls
	c2, err := tn.costFromBase(v)
	if err != nil {
		t.Fatal(err)
	}
	after := tn.Opt.Stats().OptimizeCalls
	if c1 != c2 {
		t.Errorf("cached CBV differs: %g vs %g", c1, c2)
	}
	if mid == before {
		t.Error("first CBV should call the optimizer")
	}
	if after != mid {
		t.Error("second CBV should hit the cache")
	}
}

// TestBoundDeltaRemoveIndexAllocations pins the penalty path's allocation
// discipline where it is simplest to read: bounding the removal of one
// index on a select-only node applies it into the worker's scratch
// configuration, which allocates the one rewritten index list and no
// configuration or relation slice, and nothing per index or per
// statement. Measured 1 on every candidate; the ceiling leaves one spare.
func TestBoundDeltaRemoveIndexAllocations(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true, Parallelism: 1})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	ec, err := tn.Evaluate(optCfg)
	if err != nil {
		t.Fatal(err)
	}
	const ceiling = 2
	checked := 0
	for _, tr := range tn.enum.Enumerate(ec.Config, nil).Trans {
		if tr.Kind != physical.TransRemoveIndex {
			continue
		}
		checked++
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := tn.boundDelta(0, ec, tr); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > ceiling {
			t.Errorf("boundDelta(%s) allocates %.0f objects, ceiling %d", tr.ID(), allocs, ceiling)
		}
	}
	if checked == 0 {
		t.Fatal("no remove-index candidate on the optimal configuration")
	}
}
