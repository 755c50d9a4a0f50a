package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilProfilerIsSafe(t *testing.T) {
	var p *Profiler
	if p.Enabled() {
		t.Fatal("nil profiler reports enabled")
	}
	// Every entry point must be a no-op, not a panic.
	p.StartAlloc("x")()
	p.Since("x", time.Now())
	p.Observe("x", 500*time.Millisecond)
	p.Add("x", "c", 1)
	p.SetObserver(func(string, float64) {})
	p.Reset()
	rep := p.Snapshot()
	if len(rep.Phases) != 0 {
		t.Fatalf("nil profiler snapshot has phases: %+v", rep.Phases)
	}
}

func TestProfilerAggregatesPhases(t *testing.T) {
	p := NewProfiler()
	p.Observe("search", 100*time.Millisecond)
	p.Observe("search", 300*time.Millisecond)
	p.Observe("search/rank", 40*time.Millisecond)
	p.Observe("explain", 50*time.Millisecond)
	p.Add("search", "optimizer_calls", 7)

	rep := p.Snapshot()
	if rep.SchemaVersion != ProfileSchemaVersion {
		t.Errorf("schema version = %d, want %d", rep.SchemaVersion, ProfileSchemaVersion)
	}
	s := rep.Phase("search")
	if s == nil {
		t.Fatal("search phase missing from snapshot")
	}
	if s.Count != 2 || math.Abs(s.TotalSeconds-0.4) > 1e-9 {
		t.Errorf("search count/total = %d/%.3f, want 2/0.400", s.Count, s.TotalSeconds)
	}
	if s.Counters["optimizer_calls"] != 7 {
		t.Errorf("optimizer_calls counter = %v", s.Counters)
	}
	// Only depth-0 phases contribute to the top-level partition:
	// search/rank is measured inside search and must not double-count.
	want := 0.4 + 0.05
	if math.Abs(rep.TopLevelSeconds-want) > 1e-9 {
		t.Errorf("top-level seconds = %.3f, want %.3f", rep.TopLevelSeconds, want)
	}
	if sub := rep.Phase("search/rank"); sub == nil || sub.Depth() != 1 {
		t.Errorf("sub-phase missing or wrong depth: %+v", sub)
	}

	rep.WallSeconds = 0.5
	if cov := rep.CoveragePct(); math.Abs(cov-90) > 1e-6 {
		t.Errorf("coverage = %.2f%%, want 90%%", cov)
	}
}

func TestProfilerObserverAndReset(t *testing.T) {
	p := NewProfiler()
	var mu sync.Mutex
	got := map[string]float64{}
	p.SetObserver(func(phase string, sec float64) {
		mu.Lock()
		got[phase] += sec
		mu.Unlock()
	})
	p.Observe("a", 250*time.Millisecond)
	p.Observe("a", 250*time.Millisecond)
	if math.Abs(got["a"]-0.5) > 1e-9 {
		t.Errorf("observer saw %v, want a=0.5", got)
	}
	p.Reset()
	if rep := p.Snapshot(); len(rep.Phases) != 0 {
		t.Errorf("phases survive Reset: %+v", rep.Phases)
	}
}

func TestProfilerStartMeasuresElapsed(t *testing.T) {
	p := NewProfiler()
	end := p.StartAlloc("work")
	time.Sleep(5 * time.Millisecond)
	// Allocate something attributable.
	buf := make([]byte, 1<<20)
	_ = buf[0]
	end()
	ph := p.Snapshot().Phase("work")
	if ph == nil || ph.TotalSeconds < 0.004 {
		t.Fatalf("elapsed not captured: %+v", ph)
	}
	if ph.AllocBytes < 1<<19 {
		t.Errorf("allocation delta too small: %d bytes", ph.AllocBytes)
	}
}

func TestStreamHistQuantiles(t *testing.T) {
	h := NewStreamHist(1e-6, 600, 1.25)
	// 1..1000 ms uniform: p50 ≈ 0.5 s, p99 ≈ 0.99 s, within one
	// exponential bucket (25% growth) of the exact value.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	for _, tc := range []struct{ q, want, tol float64 }{
		{0.50, 0.500, 0.13},
		{0.95, 0.950, 0.25},
		{0.99, 0.990, 0.25},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("q%.2f = %.4f, want %.3f ± %.3f", tc.q, got, tc.want, tc.tol)
		}
	}
	// Quantiles clamp to the observed range: never below min or above max.
	if q := h.Quantile(0); q < 0.001-1e-9 {
		t.Errorf("q0 = %.6f below observed min", q)
	}
	if q := h.Quantile(1); q > 1.0+1e-9 {
		t.Errorf("q1 = %.6f above observed max", q)
	}
}

func TestStreamHistOutOfRange(t *testing.T) {
	h := NewStreamHist(1e-6, 600, 1.25)
	h.Observe(1e-9) // below lo: lands in the underflow bucket
	h.Observe(1e9)  // above hi: clamps to the top bucket
	if h.Count() != 2 {
		t.Fatalf("count = %d", h.Count())
	}
	if q := h.Quantile(0.5); math.IsNaN(q) || math.IsInf(q, 0) {
		t.Errorf("quantile not finite: %v", q)
	}
}

func TestProfilerConcurrentObserve(t *testing.T) {
	p := NewProfiler()
	p.SetObserver(func(string, float64) {})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p.Observe("shared", time.Millisecond)
				p.Add("shared", "n", 1)
				p.Since("goroutine", time.Now())
			}
		}(g)
	}
	wg.Wait()
	ph := p.Snapshot().Phase("shared")
	if ph == nil || ph.Count != 1600 || ph.Counters["n"] != 1600 {
		t.Fatalf("lost observations: %+v", ph)
	}
}

func TestProfileReportWriteText(t *testing.T) {
	p := NewProfiler()
	p.Observe("search", 200*time.Millisecond)
	p.Observe("search/rank", 50*time.Millisecond)
	rep := p.Snapshot()
	rep.WallSeconds = 0.25
	var sb strings.Builder
	rep.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"search", "rank", "p95", "wall time"} {
		if !strings.Contains(out, want) {
			t.Errorf("WriteText output missing %q:\n%s", want, out)
		}
	}
}

func TestHeapAllocBytesMonotonic(t *testing.T) {
	a := HeapAllocBytes()
	sink := make([]byte, 1<<20)
	_ = sink[0]
	if b := HeapAllocBytes(); b < a {
		t.Errorf("cumulative alloc counter went backwards: %d -> %d", a, b)
	}
}
