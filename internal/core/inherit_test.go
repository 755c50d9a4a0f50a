package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/physical"
)

// phaseCounts reads two counters of one profiler phase.
func phaseCounts(prof *obs.Profiler, phase, first, second string) (int64, int64) {
	if ph := prof.Snapshot().Phase(phase); ph != nil {
		return int64(ph.Counters[first]), int64(ph.Counters[second])
	}
	return 0, 0
}

// boundCounts reads the two counters the penalty path keeps under the
// search/rank profiler phase.
func boundCounts(prof *obs.Profiler) (computed, inherited int64) {
	return phaseCounts(prof, "search/rank", "bounds_computed", "bounds_inherited")
}

// sharedCounts reads the two counters enumeration keeps under the
// search/enumerate profiler phase.
func sharedCounts(prof *obs.Profiler) (built, shared int64) {
	return phaseCounts(prof, "search/enumerate", "transformations_built", "transformations_shared")
}

// parentBoundsUpdView is how often the update+view golden session called
// boundDelta at the commit the goldens were captured from, where every
// ranked node bounded all of its transformations itself.
const parentBoundsUpdView = 921

// TestInheritedDeltasMatchRecomputation is the shadow test of everything
// a node takes over from its parent. With Tuner.shadow set, every inherited
// delta is recomputed by boundDelta on the node itself, every node is
// enumerated a second time from scratch, every ΔS is checked against the
// sizes of both whole configurations, and the session fails on the first
// bit that differs. The sessions cover what the rules have to get right by
// construction: updates with views, the select-only sibling whose join
// plans change under steps on other tables, full re-optimization (every
// plan changes, so only transformations no plan reads from inherit, and
// the configurations share their lists all the same) and a warm-start node
// (no parent).
func TestInheritedDeltasMatchRecomputation(t *testing.T) {
	spineBudget := runSpineSession(t, 1).budget
	_, prev, _ := runUpdViewSession(t, Options{Parallelism: 1})
	sessions := []struct {
		name  string
		tuner func(Options) *Tuner
		opts  Options
	}{
		{"spine", func(o Options) *Tuner { return tpchTuner(t, o) },
			Options{NoViews: true, SpaceBudget: spineBudget, MaxIterations: 40}},
		{"update+view", func(o Options) *Tuner { return benchTuner(t, updViewSeed, 0.35, o) },
			Options{MaxIterations: 60}},
		{"select-only", func(o Options) *Tuner { return benchTuner(t, updViewSeed, 0, o) },
			Options{MaxIterations: 60}},
		{"full-reoptimize", func(o Options) *Tuner { return benchTuner(t, updViewSeed, 0.35, o) },
			Options{MaxIterations: 60, FullReoptimize: true}},
		{"warm-start", func(o Options) *Tuner { return benchTuner(t, updViewSeed, 0.35, o) },
			Options{MaxIterations: 60, WarmStart: prev.Best.Config}},
	}
	for _, s := range sessions {
		for _, parallelism := range []int{1, 8} {
			prof := obs.NewProfiler()
			opts := s.opts
			opts.Parallelism, opts.Profile = parallelism, prof
			tn := s.tuner(opts)
			tn.shadow = true
			if _, err := tn.Tune(); err != nil {
				t.Fatalf("%s P=%d: %v", s.name, parallelism, err)
			}
			computed, inherited := boundCounts(prof)
			t.Logf("%s P=%d: %d bounds computed, %d inherited", s.name, parallelism, computed, inherited)
			if inherited == 0 {
				t.Errorf("%s P=%d: nothing inherited, the shadow check checked nothing", s.name, parallelism)
			}
			built, shared := sharedCounts(prof)
			t.Logf("%s P=%d: %d transformations built, %d shared", s.name, parallelism, built, shared)
			if shared == 0 {
				t.Errorf("%s P=%d: no transformation shared, the shadow enumeration checked nothing", s.name, parallelism)
			}
		}
	}
}

// computedBoundsUpdView is how many of them the session computes now that
// a shell term reads only the lists its transformation changes: a step
// that touched an update statement's table leaves the other bounds over
// that table inheritable (367 while the term summed whole shells), and
// every view's CBV exists, so no failed bound is recomputed node after
// node (217 while CBV parsed the view's text back, which failed for five
// view removals).
const computedBoundsUpdView = 112

// TestBoundEconomyUpdView pins what inheritance saves on the update+view
// golden session: every bound the parent commit computed is now either
// computed or inherited — nothing is inherited that no ranking uses —
// and 112 of the 921 are computed.
func TestBoundEconomyUpdView(t *testing.T) {
	prof := obs.NewProfiler()
	runUpdViewSession(t, Options{Parallelism: 1, Profile: prof})
	computed, inherited := boundCounts(prof)
	if computed+inherited != parentBoundsUpdView {
		t.Errorf("%d computed + %d inherited = %d bounds, the parent commit computed %d",
			computed, inherited, computed+inherited, parentBoundsUpdView)
	}
	if computed != computedBoundsUpdView {
		t.Errorf("%d of %d bounds computed, want %d", computed, parentBoundsUpdView, computedBoundsUpdView)
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

// TestEnumerationEconomy pins the accounting of shared enumeration on the
// update+view golden session: every transformation of every node the search
// created is counted once, as built or as shared — the two add up to what
// enumerating each of those configurations from scratch yields — most are
// shared, and the counts do not depend on Parallelism.
func TestEnumerationEconomy(t *testing.T) {
	var built, shared int64
	for _, parallelism := range []int{1, 2, 8} {
		prof := obs.NewProfiler()
		tn, res, trace := runUpdViewSession(t, Options{Parallelism: parallelism, Profile: prof})
		b, s := sharedCounts(prof)
		if parallelism == 1 {
			built, shared = b, s
			_, nodes := nodeEnumerations(t, benchTuner(t, updViewSeed, 0.35, Options{}), res.Optimal, trace)
			var scratch int64
			for _, n := range nodes[1:] {
				scratch += int64(len(physical.Enumerate(n.eval.Config, tn.enumerateOptions())))
			}
			if built+shared != scratch {
				t.Errorf("%d built + %d shared = %d transformations, enumerating the %d non-root nodes from scratch gives %d",
					built, shared, built+shared, len(nodes)-1, scratch)
			}
			if 2*built > scratch {
				t.Errorf("%d of %d transformations still built, want at most half", built, scratch)
			}
		}
		if b != built || s != shared {
			t.Errorf("P=%d: %d built, %d shared; P=1 has %d, %d", parallelism, b, s, built, shared)
		}
	}
}

// TestChildEnumerationAllocations pins what a child pays one index removal
// away from its parent: the enumeration's own tables (the list and its
// From, one chunk record per relation and per view, one row of merges per
// view) and the transformations of the one relation whose list changed.
// Measured 184 where the same configuration costs 636 from scratch; the
// ceiling leaves a few spare.
func TestChildEnumerationAllocations(t *testing.T) {
	tn := benchTuner(t, updViewSeed, 0.35, Options{Parallelism: 1})
	root, _ := rootAndChild(t, tn)
	var step *physical.Transformation
	for _, tr := range root.enum.Trans {
		if tr.Kind == physical.TransRemoveIndex {
			step = tr
			break
		}
	}
	if step == nil {
		t.Fatal("no remove-index transformation at the root")
	}
	cfg := step.Apply(root.eval.Config)
	child := testing.AllocsPerRun(50, func() { enumSink = tn.enum.Enumerate(cfg, root.enum) })
	scratch := testing.AllocsPerRun(10, func() {
		enumSink = physical.NewEnumerator(tn.enumerateOptions()).Enumerate(cfg, nil)
	})
	t.Logf("after %s: %.0f allocations from the parent, %.0f from scratch", step.ID(), child, scratch)
	const ceiling = 200
	if child > ceiling {
		t.Errorf("enumerating a child after %s allocates %.0f objects, ceiling %d (from scratch: %.0f)", step.ID(), child, ceiling, scratch)
	}
}

// rootAndChild builds the first two nodes of the update+view session: the
// root over the optimal configuration, ranked once, and the child its
// best-ranked transformation leads to.
func rootAndChild(tb testing.TB, tn *Tuner) (root, child *searchNode) {
	tb.Helper()
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		tb.Fatal(err)
	}
	optimal, err := tn.Evaluate(optCfg)
	if err != nil {
		tb.Fatal(err)
	}
	if root, err = tn.newSearchNode(optimal, nil, 0); err != nil {
		tb.Fatal(err)
	}
	ranked, _, err := tn.rankTransformations(root, tn.Options.SpaceBudget, true)
	if err != nil || len(ranked) == 0 {
		tb.Fatalf("root ranks %d candidates: %v", len(ranked), err)
	}
	step := ranked[0].tr
	cfg := step.Apply(optCfg)
	stepped, ok, err := tn.evalQueries(optimal, cfg, step.RemovedIndexIDs(), step.RemovedViewNames(), 0)
	if err != nil || !ok {
		tb.Fatalf("evaluating %s: %v", step.ID(), err)
	}
	if child, err = tn.newSearchNode(stepped, root, 0); err != nil {
		tb.Fatal(err)
	}
	return root, child
}

// BenchmarkRankNode times one first ranking of a search node of the
// update+view session: the root, which computes every bound, and its
// first child, which inherits most of them from it; and a later ranking
// of the root, which has every bound already.
func BenchmarkRankNode(b *testing.B) {
	tn := benchTuner(b, updViewSeed, 0.35, Options{Parallelism: 1})
	root, child := rootAndChild(b, tn)
	for _, bc := range []struct {
		name  string
		node  *searchNode
		first bool
	}{{"root", root, true}, {"child", child, true}, {"rerank", root, false}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if bc.first {
					bc.node.deltas, bc.node.ranked = nil, false
				}
				if _, _, err := tn.rankTransformations(bc.node, tn.Options.SpaceBudget, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestRerankAllocatesNothing pins that ranking a node whose bounds are all
// known, as the search does whenever it comes back to a node, allocates
// nothing with tracing off: the node's state is indexed by position and
// the candidate list and the skyline's scratch are the tuner's. While each
// ranking allocated its own, re-ranking the root cost 23 objects.
func TestRerankAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, so the count is not the build's")
	}
	tn := benchTuner(t, updViewSeed, 0.35, Options{Parallelism: 1})
	root, child := rootAndChild(t, tn)
	for _, n := range []struct {
		name string
		node *searchNode
	}{{"root", root}, {"child", child}} {
		if _, _, err := tn.rankTransformations(n.node, tn.Options.SpaceBudget, true); err != nil {
			t.Fatal(err)
		}
		var ranked []candidate
		allocs := testing.AllocsPerRun(20, func() {
			ranked, _, _ = tn.rankTransformations(n.node, tn.Options.SpaceBudget, true)
		})
		if len(ranked) == 0 {
			t.Fatalf("%s: re-ranking returns no candidates", n.name)
		}
		if allocs != 0 {
			t.Errorf("re-ranking the %s allocates %.0f objects, want 0", n.name, allocs)
		}
	}
}

// TestFirstRankingAllocs pins what the first ranking of the update+view
// session's root allocates at Parallelism 1, where every bound is
// computed: 303 objects and 62,328 bytes when the pin was set, down from
// 305 objects while ΔS and every update statement's shell term each walked
// the two configurations and the sizer kept its shapes in a map.
func TestFirstRankingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, so the count is not the build's")
	}
	tn := benchTuner(t, updViewSeed, 0.35, Options{Parallelism: 1})
	root, _ := rootAndChild(t, tn)
	const runs = 20
	rank := func() {
		root.deltas, root.ranked = nil, false
		if _, _, err := tn.rankTransformations(root, tn.Options.SpaceBudget, true); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(runs, rank)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		rank()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("first ranking of the root: %.0f objects, %d bytes", allocs, bytes)
	const maxObjects, maxBytes = 303, 62 << 10
	if allocs > maxObjects || bytes > maxBytes {
		t.Errorf("the first ranking of the root allocates %.0f objects and %d bytes, ceiling %d and %d", allocs, bytes, maxObjects, maxBytes)
	}
}

// TestBoundTermsOverApartListsAllocateNothing pins that, once the lists
// apart are collected, ΔS and the shell term of every update statement
// allocate nothing, for every transformation of the update+view session's
// optimal configuration; nor does the walk that collects them into a
// buffer large enough for them.
func TestBoundTermsOverApartListsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, so the count is not the build's")
	}
	tn := benchTuner(t, updViewSeed, 0.35, Options{Parallelism: 1})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	ec, err := tn.Evaluate(optCfg)
	if err != nil {
		t.Fatal(err)
	}
	sizer, buf := tn.Opt.Sizer(), make([]physical.ListApart, 0, 64)
	var sink float64
	terms := 0
	for _, tr := range physical.Enumerate(optCfg, tn.enumerateOptions()) {
		after := tr.Apply(optCfg)
		apart := physical.RelationsApart(buf, optCfg, after)
		bound := func() {
			sink += float64(sizer.SavedBytes(apart))
			for i, tq := range tn.Queries {
				sink += tn.Opt.UpdateShellDelta(tq.Bound, apart, ec.Results[i].AffectedRows)
			}
		}
		bound() // the first sight of a new index resolves and keeps its shape
		if allocs := testing.AllocsPerRun(10, bound); allocs != 0 {
			t.Errorf("%s: ΔS and the shell terms over %d lists apart allocate %.1f objects, want 0", tr.ID(), len(apart), allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() { apart = physical.RelationsApart(buf, optCfg, after) }); allocs != 0 {
			t.Errorf("%s: collecting %d lists apart allocates %.1f objects, want 0", tr.ID(), len(apart), allocs)
		}
		terms++
	}
	if terms == 0 || sink == 0 {
		t.Fatal("no transformation bounded")
	}
}

// TestTracingLeavesRankingAlone runs the update+view session traced and
// untraced: the skyline keeps what it discards only for the trace, and
// every ranked list of the two runs must be the same, candidate for
// candidate: transformation, position, deltas and penalty.
func TestTracingLeavesRankingAlone(t *testing.T) {
	var lists [2][][]string
	mem := obs.NewMemorySink()
	for i, trace := range []*obs.Tracer{nil, obs.NewTracer(mem)} {
		tn := benchTuner(t, updViewSeed, 0.35, Options{Parallelism: 1, MaxIterations: 60, Trace: trace})
		tn.onRank = func(ranked []candidate) {
			list := make([]string, len(ranked))
			for k, c := range ranked {
				list[k] = fmt.Sprint(c.tr.ID(), c.at, c.delta, math.Float64bits(c.penalty))
			}
			lists[i] = append(lists[i], list)
		}
		if _, err := tn.Tune(); err != nil {
			t.Fatal(err)
		}
	}
	untraced, traced := lists[0], lists[1]
	if len(untraced) != len(traced) {
		t.Fatalf("%d rankings untraced, %d traced", len(untraced), len(traced))
	}
	for iter := range untraced {
		if !slices.Equal(untraced[iter], traced[iter]) {
			t.Fatalf("iteration %d ranks %d candidates untraced and %d traced, or ranks them differently", iter, len(untraced[iter]), len(traced[iter]))
		}
	}
	pruned := 0
	for _, e := range mem.Events() {
		if e.Type == obs.EvCandidates {
			pruned += e.Fields["skyline_pruned"].(int)
		}
	}
	if pruned == 0 {
		t.Error("the skyline pruned nothing, so the two runs differ in nothing")
	}
}

var enumSink *physical.Enumeration

// BenchmarkEnumerateNode times the enumeration of the same two nodes: the
// root by an enumerator that has seen nothing, which is what every node
// cost before enumerations were shared, and the child from the root's.
func BenchmarkEnumerateNode(b *testing.B) {
	tn := benchTuner(b, updViewSeed, 0.35, Options{Parallelism: 1})
	root, child := rootAndChild(b, tn)
	b.Run("root", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enumSink = physical.NewEnumerator(tn.enumerateOptions()).Enumerate(root.eval.Config, nil)
		}
	})
	b.Run("child", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enumSink = tn.enum.Enumerate(child.eval.Config, root.enum)
		}
	})
}
