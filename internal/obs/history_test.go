package obs

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"
)

var histT0 = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

func TestHistorySampleAndQuery(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("t_reqs_total", "Requests.")
	g := reg.NewGauge("t_depth", "Depth.")
	h := reg.NewHistogram("t_lat_seconds", "Latency.", []float64{0.1, 1, 10})

	hist := NewHistory(reg, HistoryOptions{Window: time.Minute, Interval: time.Second})
	for i := 0; i < 3; i++ {
		c.Add(10)
		g.Set(float64(i))
		h.Observe(0.5)
		hist.Sample(histT0.Add(time.Duration(i) * time.Second))
	}
	if got := hist.Rounds(); got != 3 {
		t.Fatalf("Rounds = %d, want 3", got)
	}

	snap := hist.Query(HistoryQuery{})
	byName := map[string][]HistoryPoint{}
	for _, s := range snap.Series {
		byName[s.Name] = s.Points
	}
	for _, name := range []string{"t_reqs_total", "t_depth", "t_lat_seconds_sum", "t_lat_seconds_count", "t_lat_seconds_p95"} {
		if len(byName[name]) == 0 {
			t.Errorf("series %s missing from query", name)
		}
	}
	pts := byName["t_reqs_total"]
	if len(pts) != 3 || pts[0].V != 10 || pts[2].V != 30 {
		t.Fatalf("counter points = %+v, want 3 points 10..30", pts)
	}
	if pts[0].T != histT0.UnixMilli() {
		t.Errorf("first point at %d, want %d", pts[0].T, histT0.UnixMilli())
	}

	// Scoped query by name.
	scoped := hist.Query(HistoryQuery{Names: []string{"t_depth"}})
	if len(scoped.Series) != 1 || scoped.Series[0].Name != "t_depth" {
		t.Fatalf("scoped query = %+v, want just t_depth", scoped.Series)
	}

	// Points marshal as [t, v] pairs.
	data, err := json.Marshal(pts[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := `[1767323045000,10]`; string(data) != want {
		t.Errorf("point JSON = %s, want %s", data, want)
	}
}

func TestHistoryDownsampleKeepsNewest(t *testing.T) {
	reg := NewRegistry()
	g := reg.NewGauge("t_v", "V.")
	hist := NewHistory(reg, HistoryOptions{Window: time.Hour, Interval: time.Second})
	for i := 0; i < 100; i++ {
		g.Set(float64(i))
		hist.Sample(histT0.Add(time.Duration(i) * time.Second))
	}
	snap := hist.Query(HistoryQuery{MaxPoints: 10})
	pts := snap.Series[0].Points
	if len(pts) != 10 {
		t.Fatalf("downsampled to %d points, want 10", len(pts))
	}
	if pts[0].V != 0 {
		t.Errorf("first point %v, want the oldest (0)", pts[0].V)
	}
	if pts[9].V != 99 {
		t.Errorf("last point %v, want the newest (99)", pts[9].V)
	}
}

func TestHistoryRingEviction(t *testing.T) {
	reg := NewRegistry()
	g := reg.NewGauge("t_v", "V.")
	// Window/Interval = 5 points + 1.
	hist := NewHistory(reg, HistoryOptions{Window: 5 * time.Second, Interval: time.Second})
	for i := 0; i < 20; i++ {
		g.Set(float64(i))
		hist.Sample(histT0.Add(time.Duration(i) * time.Second))
	}
	pts := hist.Query(HistoryQuery{}).Series[0].Points
	if len(pts) != 6 {
		t.Fatalf("ring kept %d points, want 6", len(pts))
	}
	if pts[0].V != 14 || pts[5].V != 19 {
		t.Errorf("ring window = %v..%v, want 14..19", pts[0].V, pts[5].V)
	}
}

func TestHistoryMaxSeries(t *testing.T) {
	reg := NewRegistry()
	gv := reg.NewGaugeVec("t_a", "A.", "i")
	for i := 0; i <= maxHistorySeries; i++ {
		gv.Set(strconv.Itoa(i), 1)
	}
	hist := NewHistory(reg, HistoryOptions{Window: time.Minute, Interval: time.Second})
	hist.Sample(histT0)
	if got := hist.SeriesCount(); got != maxHistorySeries {
		t.Fatalf("SeriesCount = %d, want %d (capped)", got, maxHistorySeries)
	}
	if got := hist.Query(HistoryQuery{}).DroppedSeries; got != 1 {
		t.Errorf("DroppedSeries = %d, want 1 at the cap", got)
	}
}

func TestHistoryNilIsNoop(t *testing.T) {
	var h *History
	h.Sample(histT0) // must not panic
	if h.Enabled() || h.SeriesCount() != 0 || h.Rounds() != 0 || h.Window() != 0 || h.Interval() != 0 {
		t.Error("nil history should report zero values")
	}
	if n := len(h.Query(HistoryQuery{}).Series); n != 0 {
		t.Errorf("nil history query returned %d series", n)
	}
}

// The disabled monitor path is pinned zero-alloc: a service without a
// sampler/engine calls through nil receivers and must not allocate.
func TestDisabledMonitorPathZeroAlloc(t *testing.T) {
	var h *History
	var e *AlertEngine
	allocs := testing.AllocsPerRun(1000, func() {
		h.Sample(histT0)
		e.Evaluate(histT0)
		_ = h.Rounds()
		_ = e.Rules()
		_ = e.FiringBySeverity()
	})
	if allocs != 0 {
		t.Fatalf("disabled sampler/engine path allocates %.1f per op, want 0", allocs)
	}
}

func TestVisitSamplesLabeledAndQuantiles(t *testing.T) {
	reg := NewRegistry()
	cv := reg.NewCounterVec("t_calls_total", "Calls.", "phase")
	cv.Add("search", 3)
	cv.Add("eval", 7)
	h := reg.NewHistogram("t_d", "D.", []float64{1, 2, 4})
	for i := 0; i < 100; i++ {
		h.Observe(1.5)
	}
	got := map[string]float64{}
	reg.VisitSamples(func(name, labels string, v float64) {
		key := name
		if labels != "" {
			key = name + "{" + labels + "}"
		}
		got[key] = v
	})
	if got[`t_calls_total{phase="search"}`] != 3 || got[`t_calls_total{phase="eval"}`] != 7 {
		t.Errorf("labeled counter samples wrong: %v", got)
	}
	p95 := got["t_d_p95"]
	if p95 < 1 || p95 > 2 {
		t.Errorf("p95 = %v, want within the (1,2] bucket", p95)
	}
	if q := h.Quantile(1.0); q < 1 || q > 2 {
		t.Errorf("Quantile(1.0) = %v, want within (1,2]", q)
	}
	if q := (&Histogram{}).Quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
}

func TestVec2ExpositionLints(t *testing.T) {
	reg := NewRegistry()
	gv := reg.NewGaugeVec2("t_alerts_firing", "Firing alerts.", "rule", "severity")
	gv.Set("slow", "warning", 1)
	gv.Set("broken", "critical", 0)
	cv := reg.NewCounterVec2("t_alert_transitions_total", "Transitions.", "rule", "to")
	cv.Add("slow", "firing", 2)

	var sb strings.Builder
	reg.Render(&sb)
	out := sb.String()
	for _, want := range []string{
		`t_alerts_firing{rule="broken",severity="critical"} 0`,
		`t_alerts_firing{rule="slow",severity="warning"} 1`,
		`t_alert_transitions_total{rule="slow",to="firing"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if problems := LintExposition(strings.NewReader(out)); len(problems) > 0 {
		t.Errorf("two-label exposition lint problems: %v", problems)
	}

	// Tenant-labeled merge stays lint-clean too.
	var mb strings.Builder
	RenderMerged(&mb, "tenant", []LabeledRegistry{{Value: "t1", Registry: reg}})
	if problems := LintExposition(strings.NewReader(mb.String())); len(problems) > 0 {
		t.Errorf("merged two-label exposition lint problems: %v", problems)
	}
	if !strings.Contains(mb.String(), `t_alerts_firing{tenant="t1",rule="broken",severity="critical"} 0`) {
		t.Errorf("merged exposition missing tenant-labeled sample:\n%s", mb.String())
	}

	if gv.Value("slow", "warning") != 1 || cv.Value("slow", "firing") != 2 {
		t.Error("Vec2 Value readback wrong")
	}
	gv.Delete("slow", "warning")
	if gv.Value("slow", "warning") != 0 {
		t.Error("Vec2 Delete left the series behind")
	}
}
