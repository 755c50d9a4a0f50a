package core

import (
	"runtime"
	"testing"

	"repro/internal/obs"
)

// TestTracedTuneAllocs pins what the event stream costs the daemon: a
// warm-started update+view session traced into the two sinks tunerd
// always runs (the search metrics and /progress) allocates at most 5 %
// more objects, and at most 5 % more bytes, than the same session
// untraced. Those sinks read the step events' typed payloads; no field
// map and no fingerprint is built for them.
func TestTracedTuneAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	cold, err := benchTuner(t, updViewSeed, 0.35, Options{Parallelism: 1, MaxIterations: 60}).Tune()
	if err != nil {
		t.Fatal(err)
	}
	run := func(trace *obs.Tracer) (objects, bytes uint64) {
		tn := benchTuner(t, updViewSeed, 0.35, Options{
			Parallelism: 1, MaxIterations: 60, WarmStart: cold.Best.Config, Trace: trace,
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := tn.Tune(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	untraced, untracedBytes := run(nil)
	daemon := obs.MultiSink(obs.NewTunerMetrics(obs.NewRegistry()).Sink(), obs.NewProgress())
	traced, tracedBytes := run(obs.NewTracer(daemon))
	ratio := float64(traced) / float64(untraced)
	byteRatio := float64(tracedBytes) / float64(untracedBytes)
	t.Logf("traced %d, untraced %d allocations (%.3f×); traced %d, untraced %d bytes (%.3f×)",
		traced, untraced, ratio, tracedBytes, untracedBytes, byteRatio)
	if ratio > 1.05 {
		t.Errorf("a session traced into the daemon's sinks allocates %d objects, %.3f× the untraced %d; ceiling 1.05×", traced, ratio, untraced)
	}
	if byteRatio > 1.05 {
		t.Errorf("a session traced into the daemon's sinks allocates %d bytes, %.3f× the untraced %d; ceiling 1.05×", tracedBytes, byteRatio, untracedBytes)
	}
}
