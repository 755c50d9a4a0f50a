package core

import (
	"strings"
	"testing"

	"repro/internal/obs"
)

// boundCounts reads the two counters the penalty path keeps under the
// search/rank profiler phase.
func boundCounts(prof *obs.Profiler) (computed, inherited int64) {
	if ph := prof.Snapshot().Phase("search/rank"); ph != nil {
		return int64(ph.Counters["bounds_computed"]), int64(ph.Counters["bounds_inherited"])
	}
	return 0, 0
}

// parentBoundsUpdView is how often the update+view golden session called
// boundDelta at the commit the goldens were captured from, where every
// ranked node bounded all of its transformations itself.
const parentBoundsUpdView = 921

// TestInheritedDeltasMatchRecomputation is the shadow test of the
// inheritance rule: with verifyInherited set, every delta a node takes
// from its parent is recomputed by boundDelta on the node itself and the
// session fails on the first bit that differs. The sessions cover what
// the rule has to get right by construction: updates with views, the
// select-only sibling whose join plans change under steps on other
// tables, multi-transformation steps, §3.5 shrinking, full
// re-optimization (every plan changes) and a warm-start node (no parent).
func TestInheritedDeltasMatchRecomputation(t *testing.T) {
	spineBudget := runSpineSession(t, 1).budget
	_, prev, _ := runUpdViewSession(t, Options{Parallelism: 1})
	sessions := []struct {
		name  string
		tuner func(Options) *Tuner
		opts  Options
		// inherits is false where inheritance is expected to find nothing.
		inherits bool
	}{
		{"spine", func(o Options) *Tuner { return tpchTuner(t, o) },
			Options{NoViews: true, SpaceBudget: spineBudget, MaxIterations: 40}, true},
		{"update+view", func(o Options) *Tuner { return benchTuner(t, updViewSeed, 0.35, o) },
			Options{MaxIterations: 60}, true},
		{"select-only", func(o Options) *Tuner { return benchTuner(t, updViewSeed, 0, o) },
			Options{MaxIterations: 60}, true},
		{"multi-transform", func(o Options) *Tuner { return benchTuner(t, updViewSeed, 0.35, o) },
			Options{MaxIterations: 60, MultiTransform: 3}, true},
		{"shrink-unused", func(o Options) *Tuner { return benchTuner(t, updViewSeed, 0.35, o) },
			Options{MaxIterations: 60, ShrinkUnused: true}, true},
		{"full-reoptimize", func(o Options) *Tuner { return benchTuner(t, updViewSeed, 0.35, o) },
			Options{MaxIterations: 60, FullReoptimize: true}, false},
		{"warm-start", func(o Options) *Tuner { return benchTuner(t, updViewSeed, 0.35, o) },
			Options{MaxIterations: 60, WarmStart: prev.Best.Config}, true},
	}
	for _, s := range sessions {
		for _, parallelism := range []int{1, 8} {
			prof := obs.NewProfiler()
			opts := s.opts
			opts.Parallelism, opts.Profile = parallelism, prof
			tn := s.tuner(opts)
			tn.verifyInherited = true
			if _, err := tn.Tune(); err != nil {
				t.Fatalf("%s P=%d: %v", s.name, parallelism, err)
			}
			computed, inherited := boundCounts(prof)
			t.Logf("%s P=%d: %d bounds computed, %d inherited", s.name, parallelism, computed, inherited)
			if s.inherits && inherited == 0 {
				t.Errorf("%s P=%d: nothing inherited, the shadow check checked nothing", s.name, parallelism)
			}
			if !s.inherits && inherited != 0 {
				t.Errorf("%s P=%d: %d deltas inherited, want 0", s.name, parallelism, inherited)
			}
		}
	}
}

// TestBoundEconomyUpdView pins what inheritance saves on the update+view
// golden session: every bound the parent commit computed is now either
// computed or inherited — nothing is inherited that no ranking uses —
// and at most half are computed.
func TestBoundEconomyUpdView(t *testing.T) {
	prof := obs.NewProfiler()
	runUpdViewSession(t, Options{Parallelism: 1, Profile: prof})
	computed, inherited := boundCounts(prof)
	if computed+inherited != parentBoundsUpdView {
		t.Errorf("%d computed + %d inherited = %d bounds, the parent commit computed %d",
			computed, inherited, computed+inherited, parentBoundsUpdView)
	}
	if 2*computed > parentBoundsUpdView {
		t.Errorf("%d of %d bounds still computed, want at most half", computed, parentBoundsUpdView)
	}
	// The per-kind penalty phases keep counting bounds actually computed.
	var phases int64
	for _, ph := range prof.Snapshot().Phases {
		if ph.Depth() == 2 && strings.HasPrefix(ph.Phase, "search/penalty/") {
			phases += int64(ph.Count)
		}
	}
	if phases != computed {
		t.Errorf("search/penalty/<kind> phases count %d bounds, bounds_computed is %d", phases, computed)
	}
}

// BenchmarkRankNode times one first ranking of a search node of the
// update+view session: the root, which computes every bound, and its
// first child, which inherits most of them from it.
func BenchmarkRankNode(b *testing.B) {
	tn := benchTuner(b, updViewSeed, 0.35, Options{Parallelism: 1})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		b.Fatal(err)
	}
	optimal, err := tn.Evaluate(optCfg)
	if err != nil {
		b.Fatal(err)
	}
	budget := tn.Options.SpaceBudget
	root := tn.newSearchNode(optimal, nil, 0)
	ranked, _, err := tn.rankTransformations(root, budget, true)
	if err != nil || len(ranked) == 0 {
		b.Fatalf("root ranks %d candidates: %v", len(ranked), err)
	}
	step := ranked[0].tr
	stepped, ok, err := tn.evalQueries(optimal, step.Apply(optCfg), step.RemovedIndexIDs(), step.RemovedViewNames(), 0)
	if err != nil || !ok {
		b.Fatalf("evaluating %s: %v", step.ID(), err)
	}
	child := tn.newSearchNode(stepped, root, 0)

	for _, bc := range []struct {
		name string
		node *searchNode
	}{{"root", root}, {"child", child}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.node.deltas, bc.node.ranked = map[string]Delta{}, false
				if _, _, err := tn.rankTransformations(bc.node, budget, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
