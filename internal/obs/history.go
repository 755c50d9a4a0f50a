package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// HistoryOptions configure a metrics-history sampler.
type HistoryOptions struct {
	// Window is how far back samples are retained (default 15m).
	Window time.Duration
	// Interval is the expected sampling cadence; it sizes the per-series
	// ring (Window/Interval points) and is reported to clients so they
	// can render sparklines with the right time step (default 10s).
	Interval time.Duration
	// BeforeSample, when set, runs before each scrape — the service
	// installs RefreshPromGauges here so scrape-time gauges are current.
	BeforeSample func()
}

const (
	defaultHistoryWindow   = 15 * time.Minute
	defaultHistoryInterval = 10 * time.Second
	// maxHistorySeries caps the distinct series a History tracks;
	// series first seen past the cap are counted as dropped, never
	// stored.
	maxHistorySeries = 1024
)

// History is a bounded ring-buffer sampler over a Prometheus registry:
// Sample scrapes every current series value into a per-series ring
// sized to hold one Window of points, and Query serves windowed,
// optionally downsampled time series — the data behind
// GET /metrics/history and the alert engine's predicates.
//
// A nil *History is a valid no-op sampler: every method returns zero
// values without allocating, so a disabled monitor costs nothing.
type History struct {
	reg  *Registry
	opts HistoryOptions
	cap  int

	mu      sync.Mutex
	series  map[string]*seriesRing
	order   []string // insertion-ordered keys, for stable query output
	rounds  int64
	dropped int64
}

// seriesRing is one series' bounded sample history.
type seriesRing struct {
	name   string
	labels string            // rendered pairs, e.g. `phase="search"`
	labelv map[string]string // parsed pairs for selector matching
	t      []int64           // unix milliseconds
	v      []float64
	head   int // index of the oldest point
	n      int
}

// NewHistory builds a sampler over reg. Zero option fields take the
// defaults; the caller drives Sample on its own cadence (the service's
// monitor worker ticks every Interval).
func NewHistory(reg *Registry, opts HistoryOptions) *History {
	if opts.Window <= 0 {
		opts.Window = defaultHistoryWindow
	}
	if opts.Interval <= 0 {
		opts.Interval = defaultHistoryInterval
	}
	capacity := int(opts.Window/opts.Interval) + 1
	if capacity < 2 {
		capacity = 2
	}
	return &History{
		reg:    reg,
		opts:   opts,
		cap:    capacity,
		series: map[string]*seriesRing{},
	}
}

// Enabled reports whether the sampler exists.
func (h *History) Enabled() bool { return h != nil }

// Window returns the retention window (0 when disabled).
func (h *History) Window() time.Duration {
	if h == nil {
		return 0
	}
	return h.opts.Window
}

// Interval returns the sampling cadence (0 when disabled).
func (h *History) Interval() time.Duration {
	if h == nil {
		return 0
	}
	return h.opts.Interval
}

// Rounds returns the number of completed scrapes.
func (h *History) Rounds() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rounds
}

// SeriesCount returns the number of tracked series.
func (h *History) SeriesCount() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.series)
}

// Sample scrapes the registry once, stamping every sample with now.
// Points older than the retention window fall out of each ring by
// capacity; callers sampling faster than Interval simply see a shorter
// effective window.
func (h *History) Sample(now time.Time) {
	if h == nil {
		return
	}
	if h.opts.BeforeSample != nil {
		h.opts.BeforeSample()
	}
	ms := now.UnixMilli()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.reg.VisitSamples(func(name, labels string, value float64) {
		key := name
		if labels != "" {
			key = name + "{" + labels + "}"
		}
		r, ok := h.series[key]
		if !ok {
			if len(h.series) >= maxHistorySeries {
				h.dropped++
				return
			}
			// labels is the registry's own rendering; only a value
			// that is not UTF-8 fails to parse, and then no selector
			// names the series.
			labelv, _ := parseLabelPairs(labels)
			r = &seriesRing{
				name:   name,
				labels: labels,
				labelv: labelv,
				t:      make([]int64, h.cap),
				v:      make([]float64, h.cap),
			}
			h.series[key] = r
			h.order = append(h.order, key)
		}
		r.push(ms, value)
	})
	h.rounds++
}

func (r *seriesRing) push(t int64, v float64) {
	if r.n < len(r.t) {
		i := (r.head + r.n) % len(r.t)
		r.t[i], r.v[i] = t, v
		r.n++
		return
	}
	r.t[r.head], r.v[r.head] = t, v
	r.head = (r.head + 1) % len(r.t)
}

// at returns the i-th retained point, oldest first.
func (r *seriesRing) at(i int) (int64, float64) {
	j := (r.head + i) % len(r.t)
	return r.t[j], r.v[j]
}

// last returns the newest point (ok=false when empty).
func (r *seriesRing) last() (int64, float64, bool) {
	if r.n == 0 {
		return 0, 0, false
	}
	t, v := r.at(r.n - 1)
	return t, v, true
}

// HistoryPoint is one retained sample; it marshals as a compact
// [unix_millis, value] pair, the shape sparkline widgets consume.
type HistoryPoint struct {
	T int64
	V float64
}

// MarshalJSON renders the point as a two-element array.
func (p HistoryPoint) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("[%d,%s]", p.T, formatFloat(p.V))), nil
}

// UnmarshalJSON accepts the two-element array form back.
func (p *HistoryPoint) UnmarshalJSON(b []byte) error {
	var pair [2]float64
	if err := json.Unmarshal(b, &pair); err != nil {
		return err
	}
	p.T, p.V = int64(pair[0]), pair[1]
	return nil
}

// HistorySeries is one series' windowed samples.
type HistorySeries struct {
	Name   string         `json:"name"`
	Labels string         `json:"labels,omitempty"`
	Points []HistoryPoint `json:"points"`
}

// HistoryQuery scopes a Query.
type HistoryQuery struct {
	// Names restricts output to series whose metric name equals one of
	// these (empty = every series). A name with a "{...}" suffix matches
	// one exact labeled series.
	Names []string
	// Since drops points older than this instant (zero = whole window).
	Since time.Time
	// MaxPoints downsamples each series to at most this many points,
	// always retaining the newest (0 = no downsampling).
	MaxPoints int
}

// HistorySnapshot is the GET /metrics/history payload.
type HistorySnapshot struct {
	WindowSeconds   float64         `json:"window_seconds"`
	IntervalSeconds float64         `json:"interval_seconds"`
	Rounds          int64           `json:"rounds"`
	DroppedSeries   int64           `json:"dropped_series,omitempty"`
	Series          []HistorySeries `json:"series"`
}

// Query returns the retained samples matching q, series in first-seen
// order, points oldest first. Downsampling picks evenly strided points
// and always keeps the newest one, so a sparkline's right edge is the
// current value.
func (h *History) Query(q HistoryQuery) HistorySnapshot {
	if h == nil {
		return HistorySnapshot{Series: []HistorySeries{}}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	snap := HistorySnapshot{
		WindowSeconds:   h.opts.Window.Seconds(),
		IntervalSeconds: h.opts.Interval.Seconds(),
		Rounds:          h.rounds,
		DroppedSeries:   h.dropped,
		Series:          []HistorySeries{},
	}
	var sinceMs int64
	if !q.Since.IsZero() {
		sinceMs = q.Since.UnixMilli()
	}
	for _, key := range h.order {
		r := h.series[key]
		if !q.matches(r, key) {
			continue
		}
		pts := make([]HistoryPoint, 0, r.n)
		for i := 0; i < r.n; i++ {
			t, v := r.at(i)
			if t < sinceMs {
				continue
			}
			pts = append(pts, HistoryPoint{T: t, V: v})
		}
		snap.Series = append(snap.Series, HistorySeries{
			Name:   r.name,
			Labels: r.labels,
			Points: downsample(pts, q.MaxPoints),
		})
	}
	return snap
}

func (q *HistoryQuery) matches(r *seriesRing, key string) bool {
	if len(q.Names) == 0 {
		return true
	}
	for _, n := range q.Names {
		if n == r.name || n == key {
			return true
		}
	}
	return false
}

// downsample strides pts down to at most max points, keeping the last.
func downsample(pts []HistoryPoint, max int) []HistoryPoint {
	if max <= 0 || len(pts) <= max {
		return pts
	}
	if max == 1 {
		return pts[len(pts)-1:]
	}
	out := make([]HistoryPoint, 0, max)
	// Evenly stride the first max-1 picks over everything but the final
	// point, then append the final point itself.
	span := len(pts) - 1
	for i := 0; i < max-1; i++ {
		out = append(out, pts[i*span/(max-1)])
	}
	return append(out, pts[len(pts)-1])
}

// matchSeries returns the rings whose metric name equals name and whose
// labels are a superset of sel — the alert engine's series resolver.
// Callers must hold no History locks; results are live rings guarded by
// h.mu, so the engine copies what it needs under lockedView.
func (h *History) lockedView(name string, sel map[string]string, f func(r *seriesRing)) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, key := range h.order {
		r := h.series[key]
		if r.name != name {
			continue
		}
		if !labelsMatch(r.labelv, sel) {
			continue
		}
		f(r)
	}
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}
