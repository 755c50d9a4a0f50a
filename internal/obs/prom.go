package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// Registry is a minimal, dependency-free Prometheus metrics registry:
// counters and gauges with up to two labels, and histograms with up to
// one, exposed in the text exposition format (version 0.0.4). Metrics
// render in registration order. All operations are safe for concurrent
// use.
type Registry struct {
	mu      sync.Mutex
	metrics []promMetric
	byName  map[string]promMetric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]promMetric{}}
}

type promMetric interface {
	meta() (name, help, typ string)
	// write renders the metric's samples. extra, when non-empty, is a
	// pre-rendered label pair (e.g. `tenant="t1"`) injected into every
	// sample's label set — how fleet deployments attribute one
	// registry's metrics to one tenant without a full label model.
	write(w io.Writer, extra string)
	// sample enumerates the metric's current samples as numbers — for
	// counters and gauges the same samples write renders as text.
	sample(f sampleFunc)
}

func (r *Registry) register(m promMetric) {
	name, _, _ := m.meta()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic("obs: duplicate metric " + name)
	}
	r.byName[name] = m
	r.metrics = append(r.metrics, m)
}

// snapshot copies the metric list so rendering runs outside the
// registry lock.
func (r *Registry) snapshot() []promMetric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]promMetric(nil), r.metrics...)
}

// Render writes every metric in the Prometheus text format.
func (r *Registry) Render(w io.Writer) { r.RenderLabeled(w, "", "") }

// RenderLabeled renders every metric with an extra label pair injected
// into each sample (label == "" renders plain). The HELP/TYPE headers
// are unaffected; only sample label sets grow.
func (r *Registry) RenderLabeled(w io.Writer, label, value string) {
	extra := ""
	if label != "" {
		extra = labelPair(label, value)
	}
	for _, m := range r.snapshot() {
		name, help, typ := m.meta()
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		m.write(w, extra)
	}
}

// LabeledRegistry pairs a registry with the label value (e.g. a tenant
// ID) its samples render under in a merged exposition.
type LabeledRegistry struct {
	Value    string
	Registry *Registry
}

// RenderMerged renders several registries as one valid exposition:
// each metric family appears exactly once (HELP/TYPE from its first
// occurrence, families ordered by first appearance across registries),
// followed by every registry's samples for it with label=value
// injected. This is the fleet /metrics surface — N per-tenant
// registries become one scrape with a tenant label, without the
// tenants' metric objects knowing about each other.
func RenderMerged(w io.Writer, label string, regs []LabeledRegistry) {
	type member struct {
		extra string
		m     promMetric
	}
	var order []string
	families := map[string][]member{}
	for _, lr := range regs {
		if lr.Registry == nil {
			continue
		}
		extra := labelPair(label, lr.Value)
		for _, m := range lr.Registry.snapshot() {
			name, _, _ := m.meta()
			if _, ok := families[name]; !ok {
				order = append(order, name)
			}
			families[name] = append(families[name], member{extra, m})
		}
	}
	for _, name := range order {
		_, help, typ := families[name][0].m.meta()
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, s := range families[name] {
			s.m.write(w, s.extra)
		}
	}
}

// Handler serves the registry over HTTP with the canonical content type.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.Render(w)
	})
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeSample renders one sample line; labels is the sample's rendered
// label list ("" renders the bare name).
func writeSample(w io.Writer, name, labels, value string) {
	if labels == "" {
		fmt.Fprintf(w, "%s %s\n", name, value)
		return
	}
	fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
}

// family is the one labelled-float metric behind Counter, Gauge and
// their one- and two-label vectors: float series keyed by up to two
// label values, enumerated in sorted label order. The exported types
// differ only in the Prometheus type they declare and in which of
// add/set/del they expose.
type family struct {
	name, help, typ string
	labels          []string // label names: none, one or two
	mu              sync.Mutex
	vals            map[[2]string]float64
}

func (r *Registry) newFamily(name, help, typ string, labels ...string) *family {
	m := &family{name: name, help: help, typ: typ, labels: labels, vals: map[[2]string]float64{}}
	if len(labels) == 0 {
		m.vals[[2]string{}] = 0 // an unlabeled metric always has its one sample
	}
	r.register(m)
	return m
}

// seriesKey pads a series' label values to the map key.
func seriesKey(lv []string) (k [2]string) {
	copy(k[:], lv)
	return k
}

func (m *family) add(d float64, lv ...string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.vals[seriesKey(lv)] += d
}

func (m *family) set(x float64, lv ...string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.vals[seriesKey(lv)] = x
}

func (m *family) del(lv ...string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.vals, seriesKey(lv))
}

func (m *family) get(lv ...string) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.vals[seriesKey(lv)]
}

func (m *family) meta() (string, string, string) { return m.name, m.help, m.typ }

// sample enumerates the series sorted by first, then second label value,
// labels pre-rendered (`rule="r",severity="s"`; "" when unlabeled).
func (m *family) sample(f sampleFunc) {
	m.mu.Lock()
	keys := make([][2]string, 0, len(m.vals))
	vals := make(map[[2]string]float64, len(m.vals))
	for k, x := range m.vals {
		keys = append(keys, k)
		vals[k] = x
	}
	m.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		pairs := make([]string, len(m.labels))
		for i, l := range m.labels {
			pairs[i] = labelPair(l, k[i])
		}
		f(m.name, strings.Join(pairs, ","), vals[k])
	}
}

// write renders exactly the samples sample enumerates.
func (m *family) write(w io.Writer, extra string) {
	m.sample(func(name, labels string, v float64) {
		if labels == "" {
			labels = extra
		} else {
			labels = prefixLabel(extra) + labels
		}
		writeSample(w, name, labels, formatFloat(v))
	})
}

// Counter is a monotonically increasing value.
type Counter struct{ *family }

// NewCounter registers a counter; by convention the name ends in
// "_total".
func (r *Registry) NewCounter(name, help string) *Counter {
	return &Counter{r.newFamily(name, help, "counter")}
}

// Inc adds one.
func (c *Counter) Inc() { c.add(1) }

// Add adds d (must be non-negative for Prometheus semantics).
func (c *Counter) Add(d float64) { c.add(d) }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.get() }

// Gauge is a value that can go up and down.
type Gauge struct{ *family }

// NewGauge registers a gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return &Gauge{r.newFamily(name, help, "gauge")}
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.set(v) }

// Add adjusts the gauge by d.
func (g *Gauge) Add(d float64) { g.add(d) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.get() }

// CounterVec is a counter partitioned by one label (enough for phase
// attribution without pulling in a full label model).
type CounterVec struct{ *family }

// NewCounterVec registers a one-label counter family.
func (r *Registry) NewCounterVec(name, help, label string) *CounterVec {
	return &CounterVec{r.newFamily(name, help, "counter", label)}
}

// Add adds d to the series with the given label value.
func (v *CounterVec) Add(labelValue string, d float64) { v.add(d, labelValue) }

// Value returns the count for one label value.
func (v *CounterVec) Value(labelValue string) float64 { return v.get(labelValue) }

// GaugeVec is a gauge partitioned by one label — the fleet uses one for
// per-tenant queue depths, refreshed at scrape time.
type GaugeVec struct{ *family }

// NewGaugeVec registers a one-label gauge family.
func (r *Registry) NewGaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{r.newFamily(name, help, "gauge", label)}
}

// Set replaces the value of the series with the given label value.
func (v *GaugeVec) Set(labelValue string, x float64) { v.set(x, labelValue) }

// Add adjusts the series with the given label value by d.
func (v *GaugeVec) Add(labelValue string, d float64) { v.add(d, labelValue) }

// Delete removes one series (e.g. a deregistered tenant).
func (v *GaugeVec) Delete(labelValue string) { v.del(labelValue) }

// Value returns the value for one label value.
func (v *GaugeVec) Value(labelValue string) float64 { return v.get(labelValue) }

// GaugeVec2 is a gauge partitioned by two labels — the alert engine's
// tuner_alerts_firing{rule,severity} meta-series needs exactly two, and
// the one-label vecs stay the common case everywhere else.
type GaugeVec2 struct{ *family }

// NewGaugeVec2 registers a two-label gauge family.
func (r *Registry) NewGaugeVec2(name, help, label1, label2 string) *GaugeVec2 {
	return &GaugeVec2{r.newFamily(name, help, "gauge", label1, label2)}
}

// Set replaces the value of the (v1, v2) series.
func (v *GaugeVec2) Set(v1, v2 string, x float64) { v.set(x, v1, v2) }

// Value returns the value of the (v1, v2) series.
func (v *GaugeVec2) Value(v1, v2 string) float64 { return v.get(v1, v2) }

// Delete removes one series.
func (v *GaugeVec2) Delete(v1, v2 string) { v.del(v1, v2) }

// CounterVec2 is a counter partitioned by two labels (e.g.
// tuner_alert_transitions_total{rule,to}).
type CounterVec2 struct{ *family }

// NewCounterVec2 registers a two-label counter family.
func (r *Registry) NewCounterVec2(name, help, label1, label2 string) *CounterVec2 {
	return &CounterVec2{r.newFamily(name, help, "counter", label1, label2)}
}

// Add adds d to the (v1, v2) series.
func (v *CounterVec2) Add(v1, v2 string, d float64) { v.add(d, v1, v2) }

// Value returns the count of the (v1, v2) series.
func (v *CounterVec2) Value(v1, v2 string) float64 { return v.get(v1, v2) }

// sampleFunc receives one current sample during VisitSamples: the
// series name (a family may derive several — histograms contribute
// _sum/_count plus quantile series), its rendered label pairs
// (`phase="search"`, "" when unlabeled), and the value.
type sampleFunc func(name, labels string, value float64)

// VisitSamples enumerates every metric's current samples as numbers, in
// registration order. Counters and gauges yield one sample (vectors one
// per label value, labels pre-rendered); histograms yield
// <name>_sum, <name>_count, and — once observations exist — derived
// <name>_p50/_p95/_p99 quantile series interpolated from the cumulative
// buckets. This is how obs.History scrapes the registry without
// round-tripping through the text exposition.
func (r *Registry) VisitSamples(f func(name, labels string, value float64)) {
	for _, m := range r.snapshot() {
		m.sample(f)
	}
}

// prefixLabel renders the injected label pair as a leading list element
// ("" stays empty; `tenant="t1"` becomes `tenant="t1",`).
func prefixLabel(extra string) string {
	if extra == "" {
		return ""
	}
	return extra + ","
}

// labelEscaper escapes a label value as the text format does: a
// backslash, a double quote and a newline are the only escapes.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// labelPair renders name="value" with value escaped once, by
// labelEscaper; parseLabelPairs is its exact inverse.
func labelPair(name, value string) string {
	return name + `="` + labelEscaper.Replace(value) + `"`
}

// parseLabelPairs parses a label list as the text format writes it
// (`a="x",b="y"`, an optional trailing comma) into a map, undoing the
// three escapes of labelPair in one pass. It fails on anything else: a
// bad label name, a repeated one, an unquoted or unterminated value, an
// unknown escape, a raw newline or a value that is not UTF-8. History
// keeps both forms of a series' labels, so rule selectors, which are
// written in the same escaping, match without re-parsing every round.
func parseLabelPairs(s string) (map[string]string, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]string{}
	for s != "" {
		name, rest, ok := strings.Cut(s, "=")
		if !ok || !validLabelName(name) {
			return nil, fmt.Errorf("bad label name in %q", s)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("label %q repeated", name)
		}
		if !strings.HasPrefix(rest, `"`) {
			return nil, fmt.Errorf("label %q has an unquoted value", name)
		}
		var v strings.Builder
		i := 1
		for ; i < len(rest) && rest[i] != '"'; i++ {
			c := rest[i]
			if c == '\n' {
				return nil, fmt.Errorf("label %q has a raw newline", name)
			}
			if c == '\\' {
				if i++; i == len(rest) {
					break
				}
				switch c = rest[i]; c {
				case '\\', '"':
				case 'n':
					c = '\n'
				default:
					return nil, fmt.Errorf("label %q has the unknown escape \\%c", name, c)
				}
			}
			v.WriteByte(c)
		}
		if i >= len(rest) {
			return nil, fmt.Errorf("label %q has an unterminated value", name)
		}
		if !utf8.ValidString(v.String()) {
			return nil, fmt.Errorf("label %q has a value that is not UTF-8", name)
		}
		out[name] = v.String()
		s = rest[i+1:]
		if s != "" {
			if s[0] != ',' {
				return nil, fmt.Errorf("label %q is not followed by a comma", name)
			}
			s = s[1:]
		}
	}
	return out, nil
}

// validLabelName reports whether name matches [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelName(name string) bool {
	return validMetricName(name) && !strings.ContainsRune(name, ':')
}

// ExpBuckets returns count exponentially growing histogram bounds
// starting at start (start, start·factor, start·factor², ...) — the
// bucket shape that fits quantities spanning many orders of magnitude,
// like tuning-phase latencies (µs to minutes).
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, count >= 1")
	}
	out := make([]float64, count)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// histFamily is the one histogram behind Histogram and HistogramVec:
// cumulative-bucket series over shared bounds, keyed by the value of at
// most one label. An unlabelled family holds its one series from
// registration on, so it renders even when empty, and it also samples
// the derived _p50/_p95/_p99 series; a labelled family holds only the
// series that have been observed.
type histFamily struct {
	name, help, label string
	bounds            []float64 // strictly increasing upper bounds, +Inf implicit

	mu     sync.Mutex
	series map[string]*histSeries
}

type histSeries struct {
	counts []uint64 // one per bound, plus the +Inf overflow at the end
	sum    float64
	total  uint64
}

func (h *histFamily) init(name, help, label string, bounds []float64) {
	h.name, h.help, h.label = name, help, label
	h.bounds = append([]float64(nil), bounds...)
	sort.Float64s(h.bounds)
	h.series = map[string]*histSeries{}
}

// observe records one sample in s (mu held).
func (h *histFamily) observe(s *histSeries, v float64) {
	s.counts[sort.SearchFloat64s(h.bounds, v)]++ // first bound >= v
	s.sum += v
	s.total++
}

// quantile estimates the q-quantile of s; see Histogram.Quantile.
func (h *histFamily) quantile(s *histSeries, q float64) float64 {
	if s.total == 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := q * float64(s.total)
	cum := uint64(0)
	lower := 0.0
	for i, b := range h.bounds {
		prev := cum
		cum += s.counts[i]
		if float64(cum) >= rank {
			if s.counts[i] == 0 {
				return b
			}
			frac := (rank - float64(prev)) / float64(s.counts[i])
			return lower + frac*(b-lower)
		}
		lower = b
	}
	return h.bounds[len(h.bounds)-1]
}

// snapshot copies the series in label-value order, so rendering runs
// outside the lock.
func (h *histFamily) snapshot() (keys []string, series []histSeries) {
	h.mu.Lock()
	defer h.mu.Unlock()
	keys = make([]string, 0, len(h.series))
	for k := range h.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	series = make([]histSeries, len(keys))
	for i, k := range keys {
		s := h.series[k]
		series[i] = histSeries{counts: append([]uint64(nil), s.counts...), sum: s.sum, total: s.total}
	}
	return keys, series
}

// labels renders the label pair of the series with label value k (""
// when the family is unlabelled).
func (h *histFamily) labels(k string) string {
	if h.label == "" {
		return ""
	}
	return labelPair(h.label, k)
}

func (h *histFamily) meta() (string, string, string) { return h.name, h.help, "histogram" }

// write renders each series' cumulative buckets, sum and count.
func (h *histFamily) write(w io.Writer, extra string) {
	keys, series := h.snapshot()
	for i, k := range keys {
		labels := extra
		if l := h.labels(k); l != "" {
			labels = prefixLabel(extra) + l
		}
		pre, s := prefixLabel(labels), series[i]
		cum := uint64(0)
		for j, b := range h.bounds {
			cum += s.counts[j]
			fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", h.name, pre, formatFloat(b), cum)
		}
		fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", h.name, pre, s.total)
		writeSample(w, h.name+"_sum", labels, formatFloat(s.sum))
		writeSample(w, h.name+"_count", labels, strconv.FormatUint(s.total, 10))
	}
}

func (h *histFamily) sample(f sampleFunc) {
	keys, series := h.snapshot()
	for i, k := range keys {
		s, labels := &series[i], h.labels(k)
		f(h.name+"_sum", labels, s.sum)
		f(h.name+"_count", labels, float64(s.total))
		if h.label == "" && s.total > 0 {
			f(h.name+"_p50", "", h.quantile(s, 0.50))
			f(h.name+"_p95", "", h.quantile(s, 0.95))
			f(h.name+"_p99", "", h.quantile(s, 0.99))
		}
	}
}

// Histogram is a cumulative-bucket histogram.
type Histogram struct {
	histFamily
	one histSeries
}

// NewHistogram registers a histogram with the given upper bounds (the
// +Inf bucket is implicit).
func (r *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{}
	h.init(name, help, "", bounds)
	h.one.counts = make([]uint64, len(h.bounds)+1)
	h.series[""] = &h.one
	r.register(&h.histFamily)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.observe(&h.one, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.one.total
}

// Quantile estimates the q-quantile (0 < q <= 1) from the cumulative
// buckets, interpolating linearly within the bucket that crosses the
// rank — the in-process analogue of PromQL's histogram_quantile.
// Observations in the +Inf overflow bucket clamp to the highest finite
// bound. Returns 0 before any observation.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quantile(&h.one, q)
}

// HistogramVec is a histogram family partitioned by one label (enough
// for per-phase latency distributions without a full label model).
// Every series shares the same bucket bounds.
type HistogramVec struct{ histFamily }

// NewHistogramVec registers a one-label histogram family with the given
// upper bounds (the +Inf bucket is implicit).
func (r *Registry) NewHistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	v := &HistogramVec{}
	v.init(name, help, label, bounds)
	r.register(&v.histFamily)
	return v
}

// Observe records one sample in the series with the given label value.
func (v *HistogramVec) Observe(labelValue string, x float64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	s, ok := v.series[labelValue]
	if !ok {
		s = &histSeries{counts: make([]uint64, len(v.bounds)+1)}
		v.series[labelValue] = s
	}
	v.observe(s, x)
}

// Count returns the number of observations for one label value.
func (v *HistogramVec) Count(labelValue string) uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if s, ok := v.series[labelValue]; ok {
		return s.total
	}
	return 0
}
