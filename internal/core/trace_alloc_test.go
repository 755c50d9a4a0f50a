package core

import (
	"runtime"
	"testing"

	"repro/internal/obs"
)

// TestTracedTuneAllocs pins what the event stream costs the daemon: a
// warm-started update+view session traced into the two sinks tunerd
// always runs (the search metrics and /progress) allocates at most 5 %
// more objects than the same session untraced. Those sinks read the
// step events' typed payloads; no field map is built for them.
func TestTracedTuneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cold, err := benchTuner(t, updViewSeed, 0.35, Options{Parallelism: 1, MaxIterations: 60}).Tune()
	if err != nil {
		t.Fatal(err)
	}
	run := func(trace *obs.Tracer) uint64 {
		tn := benchTuner(t, updViewSeed, 0.35, Options{
			Parallelism: 1, MaxIterations: 60, WarmStart: cold.Best.Config, Trace: trace,
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := tn.Tune(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	untraced := run(nil)
	daemon := obs.MultiSink(obs.NewTunerMetrics(obs.NewRegistry()).Sink(), obs.NewProgress())
	traced := run(obs.NewTracer(daemon))
	ratio := float64(traced) / float64(untraced)
	t.Logf("traced %d, untraced %d allocations (%.3f×)", traced, untraced, ratio)
	if ratio > 1.05 {
		t.Errorf("a session traced into the daemon's sinks allocates %d objects, %.3f× the untraced %d; ceiling 1.05×", traced, ratio, untraced)
	}
}
