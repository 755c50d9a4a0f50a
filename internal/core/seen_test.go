package core

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/obs"
)

// TestBaseConfigurationIsNotReevaluated pins the economy of the two fresh
// sessions that come back to the base configuration — one whose budget
// (the base configuration's own size) forces relaxation all the way down
// to it, one warm-started from it. The numbers were captured at the commit
// that still had the per-session evaluation cache, where each session's
// single cache hit was that configuration; the search now takes the
// initial evaluation it holds instead.
func TestBaseConfigurationIsNotReevaluated(t *testing.T) {
	db := datagen.TPCH(0.001)
	w := wsWorkload(t, `UPDATE lineitem SET l_discount = l_discount + 0.01 WHERE l_shipdate >= 10400`)
	probe, err := NewTuner(db, w, Options{})
	if err != nil {
		t.Fatal(err)
	}
	baseBytes := probe.Opt.Sizer().ConfigBytes(probe.Base)

	type economy struct {
		Calls, PlansReused, PlansReoptimized, DuplicateSkips int64
		Iterations, Frontier                                 int
	}
	sessions := []struct {
		name string
		opts Options
		want economy
	}{
		{"relaxes down to base", Options{SpaceBudget: baseBytes, MaxIterations: 200},
			economy{90, 225, 75, 101, 177, 77}},
		{"warm start is base", Options{SpaceBudget: thirdBudget(t, db, w, false), MaxIterations: 40, WarmStart: probe.Base},
			economy{40, 79, 25, 11, 37, 28}},
	}
	for _, s := range sessions {
		for _, parallelism := range []int{1, 8} {
			opts := s.opts
			opts.Parallelism = parallelism
			tn, err := NewTuner(db, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := tn.Tune()
			if err != nil {
				t.Fatal(err)
			}
			got := economy{
				res.OptimizerCalls, res.Economy.PlansReused, res.Economy.PlansReoptimized, res.Economy.DuplicateSkips,
				res.Iterations, len(res.Frontier),
			}
			if got != s.want {
				t.Errorf("%s, P=%d:\n got  %+v\n want %+v", s.name, parallelism, got, s.want)
			}
			if s.opts.SpaceBudget == baseBytes && res.Best != res.Initial {
				t.Errorf("%s, P=%d: best is %s, want the initial evaluation itself", s.name, parallelism, res.Best.Config)
			}
		}
	}
}

// TestShrinkUnusedVisitsEachConfigurationOnce: under §3.5 shrinking the
// configuration a step produces is the shrunk one, and seen has to know
// it — no two pool nodes may hold the same configuration. Before seen was
// told, the update+view session entered 15 of its 52 nodes twice and
// spent an iteration of MaxIterations on each.
func TestShrinkUnusedVisitsEachConfigurationOnce(t *testing.T) {
	mem := obs.NewMemorySink()
	tn := benchTuner(t, updViewSeed, 0.35, Options{
		MaxIterations: 60, ShrinkUnused: true, Parallelism: 1, Trace: obs.NewTracer(mem),
	})
	res, err := tn.Tune()
	if err != nil {
		t.Fatal(err)
	}
	fps := map[string]bool{}
	evals := 0
	for _, ev := range mem.Events() {
		if ev.Type == obs.EvEval {
			evals++
			fps[ev.Fields["fp"].(string)] = true
		}
	}
	if evals == 0 {
		t.Fatal("the session evaluated nothing")
	}
	if evals != len(fps) {
		t.Errorf("%d iterations ended in %d eval events over %d distinct configurations: %d duplicate nodes",
			res.Iterations, evals, len(fps), evals-len(fps))
	}
}
