package service

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// warmRetuneBytesCeiling is the most bytes a warm retune of
// TestWarmRetuneAllocBytes may allocate: 3.60 MB, what it measured once a
// retune reused its predecessor's bindings and view blocks, plus 5 %.
const warmRetuneBytesCeiling = 3_600_000 * 105 / 100

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestWarmRetuneAllocBytes pins what a warm retune allocates end to end
// through the service: the TPC-H 22 statements and the refresh updates
// in the window, a cold retune, then a warm one after the same window is
// ingested again. The least of three warm retunes is held to the ceiling,
// so a collection that happens to start inside one does not count.
func TestWarmRetuneAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	window := append(workloads.TPCH22SQL(), workloads.TPCHRefresh()...)
	s := newTestService(t, Options{Tuning: core.Options{SpaceBudget: 2 << 20, MaxIterations: 60, Parallelism: 1}})
	s.Ingest(window)
	if _, err := s.Retune(); err != nil {
		t.Fatal(err)
	}
	least := uint64(0)
	for range 3 {
		s.Ingest(window)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, err := s.Retune()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.WarmStart {
			t.Fatal("the second retune over the window is not warm")
		}
		if b := after.TotalAlloc - before.TotalAlloc; least == 0 || b < least {
			least = b
		}
	}
	t.Logf("a warm retune allocates %d bytes; ceiling %d", least, warmRetuneBytesCeiling)
	if least > warmRetuneBytesCeiling {
		t.Errorf("a warm retune allocates %d bytes, ceiling %d", least, warmRetuneBytesCeiling)
	}
}
