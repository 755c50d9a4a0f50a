package obs

import (
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// ProfileSchemaVersion identifies the serialized ProfileReport layout.
// Bump it on any incompatible change so archived profiles and the
// tunerbench regression gate can refuse to compare apples to oranges.
const ProfileSchemaVersion = 1

// StreamHist is a fixed-size streaming histogram with exponentially
// growing bucket widths, built for values spanning many orders of
// magnitude (tuning phases run from microseconds to minutes, so linear
// buckets waste resolution at one end or the other). Observations cost
// O(1) and constant memory; quantiles are interpolated geometrically
// within the matched bucket and clamped to the observed [min, max].
//
// StreamHist is not synchronized; the Profiler serializes access.
type StreamHist struct {
	lo        float64
	logLo     float64
	logGrowth float64
	counts    []uint64
	total     uint64
	sum       float64
	min, max  float64
}

// NewStreamHist covers [lo, hi] with buckets whose upper bounds grow by
// factor growth (> 1). Values below lo land in the first bucket, values
// above hi in the last.
func NewStreamHist(lo, hi, growth float64) *StreamHist {
	if lo <= 0 || hi <= lo || growth <= 1 {
		panic("obs: NewStreamHist needs 0 < lo < hi and growth > 1")
	}
	n := int(math.Ceil(math.Log(hi/lo)/math.Log(growth))) + 2
	return &StreamHist{
		lo:        lo,
		logLo:     math.Log(lo),
		logGrowth: math.Log(growth),
		counts:    make([]uint64, n),
		min:       math.Inf(1),
		max:       math.Inf(-1),
	}
}

// bucket returns the index covering v: bucket 0 is (-inf, lo), bucket
// i ≥ 1 covers [lo·g^(i-1), lo·g^i).
func (h *StreamHist) bucket(v float64) int {
	if v < h.lo {
		return 0
	}
	i := 1 + int((math.Log(v)-h.logLo)/h.logGrowth)
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	return i
}

// Observe records one sample.
func (h *StreamHist) Observe(v float64) {
	h.counts[h.bucket(v)]++
	h.total++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *StreamHist) Count() uint64 { return h.total }

// Sum returns the sum of all observations.
func (h *StreamHist) Sum() float64 { return h.sum }

// Quantile returns an estimate of the q-quantile (0 ≤ q ≤ 1): the
// geometric midpoint of the bucket holding the rank, clamped to the
// observed extremes so single-sample histograms report exact values.
func (h *StreamHist) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	cum := uint64(0)
	idx := len(h.counts) - 1
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			idx = i
			break
		}
	}
	var v float64
	if idx == 0 {
		v = h.lo / 2
	} else {
		lower := h.lo * math.Exp(float64(idx-1)*h.logGrowth)
		upper := lower * math.Exp(h.logGrowth)
		v = math.Sqrt(lower * upper)
	}
	if v < h.min {
		v = h.min
	}
	if v > h.max {
		v = h.max
	}
	return v
}

// Profiler aggregates per-phase wall-clock, allocation, and counter
// profiles of a tuning session. Phase names follow a path convention:
// a name without '/' is a top-level phase — the top-level phases
// partition the session's wall time — and "parent/child" is a
// sub-phase measured inside its parent (sub-phases may overlap other
// sub-phases and never enter the top-level total).
//
// A nil *Profiler is a valid no-op, so instrumented hot paths pay one
// pointer comparison when profiling is disabled. All methods are safe
// for concurrent use.
type Profiler struct {
	mu            sync.Mutex
	phases        map[string]*phaseAgg
	order         []string
	observer      func(phase string, seconds float64)
	allocObserver func(phase string, bytes uint64)
}

type phaseAgg struct {
	hist     *StreamHist
	total    float64
	count    int64
	alloc    uint64
	counters map[string]float64
}

// profNop is the shared closer handed out by a disabled profiler.
var profNop = func() {}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{phases: map[string]*phaseAgg{}}
}

// Enabled reports whether observations are recorded.
func (p *Profiler) Enabled() bool { return p != nil }

// SetObserver mirrors every observation to fn (phase, seconds) — the
// bridge into a Prometheus histogram family. fn must be safe for
// concurrent use; it is called outside the profiler's lock.
func (p *Profiler) SetObserver(fn func(phase string, seconds float64)) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.observer = fn
	p.mu.Unlock()
}

// SetAllocObserver mirrors the heap-allocation delta of every
// StartAlloc-profiled phase execution to fn (phase, bytes) — the
// bridge into a per-phase allocation counter family
// (tuner_phase_alloc_bytes_total). fn must be safe for concurrent use;
// it is called outside the profiler's lock, and only for observations
// that actually measured an allocation delta.
func (p *Profiler) SetAllocObserver(fn func(phase string, bytes uint64)) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.allocObserver = fn
	p.mu.Unlock()
}

// StartAlloc begins timing one execution of phase and returns the
// closure that records it with the heap-allocation delta across the
// phase. Safe on a nil profiler.
// Reading the runtime allocation counter costs ~100ns per boundary, so
// reserve it for coarse phases.
func (p *Profiler) StartAlloc(phase string) func() {
	if p == nil {
		return profNop
	}
	a0 := heapAllocBytes()
	t0 := time.Now()
	return func() {
		secs := time.Since(t0).Seconds()
		var da uint64
		if a1 := heapAllocBytes(); a1 > a0 {
			da = a1 - a0
		}
		p.observe(phase, secs, da)
	}
}

// Since records one execution of phase that started at t0 — the
// defer-friendly form: defer p.Since("search/penalty", time.Now()).
// Safe on a nil profiler.
func (p *Profiler) Since(phase string, t0 time.Time) {
	if p == nil {
		return
	}
	p.observe(phase, time.Since(t0).Seconds(), 0)
}

// Observe records one execution of phase with an explicit duration.
func (p *Profiler) Observe(phase string, d time.Duration) {
	if p == nil {
		return
	}
	p.observe(phase, d.Seconds(), 0)
}

// Add accumulates a named counter under phase (e.g. optimizer calls
// attributed to it). Safe on a nil profiler.
func (p *Profiler) Add(phase, counter string, v float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	a := p.agg(phase)
	if a.counters == nil {
		a.counters = map[string]float64{}
	}
	a.counters[counter] += v
	p.mu.Unlock()
}

func (p *Profiler) observe(phase string, secs float64, alloc uint64) {
	p.mu.Lock()
	a := p.agg(phase)
	a.hist.Observe(secs)
	a.total += secs
	a.count++
	a.alloc += alloc
	fn := p.observer
	allocFn := p.allocObserver
	p.mu.Unlock()
	if fn != nil {
		fn(phase, secs)
	}
	if allocFn != nil && alloc > 0 {
		allocFn(phase, alloc)
	}
}

// agg returns the phase aggregate, creating it on first use. Callers
// hold p.mu.
func (p *Profiler) agg(phase string) *phaseAgg {
	a, ok := p.phases[phase]
	if !ok {
		// 1µs .. 10min with ~12% geometric resolution.
		a = &phaseAgg{hist: NewStreamHist(1e-6, 600, 1.25)}
		p.phases[phase] = a
		p.order = append(p.order, phase)
	}
	return a
}

// Reset discards all recorded phases.
func (p *Profiler) Reset() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.phases = map[string]*phaseAgg{}
	p.order = nil
	p.mu.Unlock()
}

// HeapAllocBytes reads the runtime's cumulative heap-allocation
// counter in bytes — the clock regression harnesses diff across a run.
func HeapAllocBytes() uint64 { return heapAllocBytes() }

// heapAllocBytes reads the cumulative heap allocation counter without
// stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		return s[0].Value.Uint64()
	}
	return 0
}

// PhaseProfile is the aggregated profile of one phase.
type PhaseProfile struct {
	Phase        string  `json:"phase"`
	Count        int64   `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	MeanSeconds  float64 `json:"mean_seconds"`
	P50Seconds   float64 `json:"p50_seconds"`
	P95Seconds   float64 `json:"p95_seconds"`
	P99Seconds   float64 `json:"p99_seconds"`
	MaxSeconds   float64 `json:"max_seconds"`
	// AllocBytes is the heap allocated across the phase's executions
	// (only recorded for phases profiled with StartAlloc).
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	// Counters holds named attributions (e.g. "optimizer_calls").
	Counters map[string]float64 `json:"counters,omitempty"`
}

// Depth returns the phase's nesting depth (0 = top-level).
func (pp PhaseProfile) Depth() int { return strings.Count(pp.Phase, "/") }

// ProfileReport is the serializable snapshot of a profiler.
type ProfileReport struct {
	SchemaVersion int `json:"schema_version"`
	// WallSeconds is the measured end-to-end wall time of the profiled
	// session, filled in by the caller that owns the outer clock.
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// TopLevelSeconds sums the top-level phases; it should approach
	// WallSeconds when the phase partition is complete.
	TopLevelSeconds float64 `json:"top_level_seconds"`
	// Phases appear in first-execution order.
	Phases []PhaseProfile `json:"phases"`
}

// Snapshot renders the profiler's current state.
func (p *Profiler) Snapshot() *ProfileReport {
	rep := &ProfileReport{SchemaVersion: ProfileSchemaVersion}
	if p == nil {
		return rep
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, name := range p.order {
		a := p.phases[name]
		pp := PhaseProfile{
			Phase:        name,
			Count:        a.count,
			TotalSeconds: a.total,
			P50Seconds:   a.hist.Quantile(0.50),
			P95Seconds:   a.hist.Quantile(0.95),
			P99Seconds:   a.hist.Quantile(0.99),
			MaxSeconds:   a.hist.max,
			AllocBytes:   a.alloc,
		}
		if a.count > 0 {
			pp.MeanSeconds = a.total / float64(a.count)
		}
		if len(a.counters) > 0 {
			pp.Counters = make(map[string]float64, len(a.counters))
			for k, v := range a.counters {
				pp.Counters[k] = v
			}
		}
		rep.Phases = append(rep.Phases, pp)
		if pp.Depth() == 0 {
			rep.TopLevelSeconds += a.total
		}
	}
	return rep
}

// Phase returns the named phase profile, or nil.
func (r *ProfileReport) Phase(name string) *PhaseProfile {
	for i := range r.Phases {
		if r.Phases[i].Phase == name {
			return &r.Phases[i]
		}
	}
	return nil
}

// CoveragePct is the share of measured wall time the top-level phases
// account for (0 when WallSeconds is unset).
func (r *ProfileReport) CoveragePct() float64 {
	if r.WallSeconds <= 0 {
		return 0
	}
	return 100 * r.TopLevelSeconds / r.WallSeconds
}

// WriteText renders the report as an indented table: top-level phases
// in execution order, each followed by its sub-phases.
func (r *ProfileReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%-34s %8s %12s %10s %10s %10s %10s\n",
		"phase", "count", "total", "p50", "p95", "p99", "alloc")
	var emit func(prefix string, depth int)
	emit = func(prefix string, depth int) {
		for _, pp := range r.Phases {
			if pp.Depth() != depth {
				continue
			}
			if depth > 0 && !strings.HasPrefix(pp.Phase, prefix+"/") {
				continue
			}
			name := strings.Repeat("  ", depth) + pp.Phase
			alloc := ""
			if pp.AllocBytes > 0 {
				alloc = fmtBytes(pp.AllocBytes)
			}
			fmt.Fprintf(w, "%-34s %8d %12s %10s %10s %10s %10s\n",
				name, pp.Count,
				fmtSeconds(pp.TotalSeconds), fmtSeconds(pp.P50Seconds),
				fmtSeconds(pp.P95Seconds), fmtSeconds(pp.P99Seconds), alloc)
			emit(pp.Phase, depth+1)
		}
	}
	emit("", 0)
	if r.WallSeconds > 0 {
		fmt.Fprintf(w, "%-34s %8s %12s   (%.1f%% of %s measured wall time)\n",
			"top-level total", "", fmtSeconds(r.TopLevelSeconds),
			r.CoveragePct(), fmtSeconds(r.WallSeconds))
	}
}

// fmtSeconds renders a duration with a unit that keeps 3 significant
// digits readable from µs to minutes.
func fmtSeconds(s float64) string {
	switch {
	case s == 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.1fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2fms", s*1e3)
	case s < 120:
		return fmt.Sprintf("%.3fs", s)
	}
	return fmt.Sprintf("%.1fm", s/60)
}

func fmtBytes(b uint64) string {
	switch {
	case b < 1<<10:
		return fmt.Sprintf("%dB", b)
	case b < 1<<20:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	case b < 1<<30:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	}
	return fmt.Sprintf("%.2fGB", float64(b)/(1<<30))
}
