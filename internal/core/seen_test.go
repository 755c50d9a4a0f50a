package core

import (
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/obs"
)

// seenEconomy is the part of a session's Result that seen decides: how many
// configurations were evaluated, how many steps were skipped as duplicates,
// and what that did to the iterations and the frontier.
type seenEconomy struct {
	Calls, PlansReused, PlansReoptimized, DuplicateSkips int64
	Iterations, Frontier                                 int
}

// tuneEvaluatingEachOnce runs a traced session and fails t when two of its
// eval events carry the same fingerprint: seen knows every configuration a
// step produces, so no configuration is evaluated twice.
func tuneEvaluatingEachOnce(t *testing.T, label string, tuner func(Options) *Tuner, opts Options) (*Result, seenEconomy) {
	t.Helper()
	mem := obs.NewMemorySink()
	opts.Trace = obs.NewTracer(mem)
	res, err := tuner(opts).Tune()
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
		t.Errorf("%s: the session evaluated nothing", label)
	}
	if evals != len(fps) {
		t.Errorf("%s: %d eval events over %d distinct configurations: %d duplicate nodes",
			label, evals, len(fps), evals-len(fps))
	}
	return res, seenEconomy{
		res.OptimizerCalls, res.Economy.PlansReused, res.Economy.PlansReoptimized, res.Economy.DuplicateSkips,
		res.Iterations, len(res.Frontier),
	}
}

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
	updateTuner := func(o Options) *Tuner {
		tn, err := NewTuner(db, w, o)
		if err != nil {
			t.Fatal(err)
		}
		return tn
	}

	sessions := []struct {
		name string
		opts Options
		want seenEconomy
	}{
		{"relaxes down to base", Options{SpaceBudget: baseBytes, MaxIterations: 200},
			seenEconomy{90, 225, 75, 101, 177, 77}},
		{"warm start is base", Options{SpaceBudget: thirdBudget(t, db, w, false), MaxIterations: 40, WarmStart: probe.Base},
			seenEconomy{40, 79, 25, 11, 37, 28}},
	}
	for _, s := range sessions {
		for _, parallelism := range []int{1, 8} {
			opts := s.opts
			opts.Parallelism = parallelism
			res, got := tuneEvaluatingEachOnce(t, fmt.Sprintf("%s, P=%d", s.name, parallelism), updateTuner, opts)
			if got != s.want {
				t.Errorf("%s, P=%d:\n got  %+v\n want %+v", s.name, parallelism, got, s.want)
			}
			if s.opts.SpaceBudget == baseBytes && res.Best != res.Initial {
				t.Errorf("%s, P=%d: best is %s, want the initial evaluation itself", s.name, parallelism, res.Best.Config)
			}
		}
	}
}

// TestEachConfigurationIsEvaluatedOnce: the update+view golden session
// revisits configurations often (ten duplicate skips), and seen has to catch
// every one of them — no two eval events of the session may carry the same
// fingerprint, at any parallelism. Its economy is the same at P = 1 and
// P = 8; five of its calls compute the CBV of view removals whose bound
// failed while CBV parsed the view's text back.
func TestEachConfigurationIsEvaluatedOnce(t *testing.T) {
	updView := func(o Options) *Tuner { return benchTuner(t, updViewSeed, 0.35, o) }
	want := seenEconomy{119, 874, 46, 10, 56, 47}
	for _, parallelism := range []int{1, 8} {
		label := fmt.Sprintf("update+view, P=%d", parallelism)
		_, got := tuneEvaluatingEachOnce(t, label, updView, Options{MaxIterations: 60, Parallelism: parallelism})
		if got != want {
			t.Errorf("%s:\n got  %+v\n want %+v", label, got, want)
		}
	}
}
