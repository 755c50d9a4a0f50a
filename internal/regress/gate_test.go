package regress

import (
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func baselineBench() *Bench {
	return &Bench{
		SchemaVersion: SchemaVersion,
		Scenarios: []ScenarioResult{
			{Name: "batch-tpch", Metrics: map[string]float64{
				"wall_seconds":            0.500,
				"alloc_bytes":             200 << 20,
				"optimizer_calls":         150,
				"iterations":              40,
				"improvement_pct":         56.6,
				"quality_gap_pct":         73.4,
				"calib_samples":           39,
				"mean_tightness":          0.49,
				"rank_correlation":        0.76,
				"bound_violations":        1,
				"plans_reused_pct":        89.9,
				"profile_coverage_pct":    99.9,
				"frontier_points":         40,
				"measured_speedup":        1.25,
				"replay_rows_baseline":    119420,
				"replay_rows_recommended": 74197,
			}},
			{Name: "online-drift", Metrics: map[string]float64{
				"wall_seconds":         1.200,
				"alloc_bytes":          550 << 20,
				"optimizer_calls":      293,
				"improvement_pct":      59.9,
				"bound_violations":     1,
				"profile_coverage_pct": 99.9,
				"frontier_points":      6,
				"recorded_sessions":    2,
				"workload_signatures":  14,
				"topk_weight_share":    1.0,
				"history_series":       40,
				"alerts_fired":         1,
				"alert_transitions":    1,
			}},
		},
	}
}

// ruleFor returns the rule table's row for metric.
func ruleFor(metric string) (rule, bool) {
	for _, r := range rules {
		if r.metric == metric {
			return r, true
		}
	}
	return rule{}, false
}

func TestGateWithinTolerancePasses(t *testing.T) {
	base := baselineBench()
	cur := baselineBench()
	// Ordinary run-to-run noise: slightly slower, slightly more
	// allocation, identical deterministic counters.
	cur.Scenarios[0].Metrics["wall_seconds"] *= 1.2
	cur.Scenarios[0].Metrics["alloc_bytes"] += 10 << 20
	cur.Scenarios[1].Metrics["wall_seconds"] *= 0.9

	if vs := Gate(base, cur); len(vs) != 0 {
		t.Fatalf("within-tolerance run failed the gate: %v", vs)
	}
}

// TestGateDoesNotGateWallTime: wall_seconds is recorded as information
// only — at smoke scale it flips by run, and bench/ measures time.
func TestGateDoesNotGateWallTime(t *testing.T) {
	base := baselineBench()
	cur := baselineBench()
	cur.Scenarios[0].Metrics["wall_seconds"] *= 10

	if vs := Gate(base, cur); len(vs) != 0 {
		t.Fatalf("wall time is gated again: %v", vs)
	}
}

// TestGateViolationIsReadable: the rendered diff names the scenario, the
// metric, the factor, and the numbers involved.
func TestGateViolationIsReadable(t *testing.T) {
	base := baselineBench()
	cur := baselineBench()
	cur.Scenarios[0].Metrics["alloc_bytes"] *= 2

	vs := Gate(base, cur)
	if len(vs) != 1 {
		t.Fatalf("want exactly one violation, got %v", vs)
	}
	s := vs[0].String()
	for _, want := range []string{"batch-tpch", "alloc_bytes", "2.00x", "baseline"} {
		if !strings.Contains(s, want) {
			t.Errorf("violation text missing %q: %s", want, s)
		}
	}
}

// TestGateRules pins every gated row of the rule table at its bound: a
// run at the limit passes, one float step past it fails naming the
// metric and the limit, a run far past it fails the same way, and a run
// that does not record the metric fails too. The limits are the ones
// the gate has always had; informational rows never fire.
func TestGateRules(t *testing.T) {
	cases := []struct {
		metric      string
		base, limit float64
		ceiling     bool // the limit is an upper bound
	}{
		{"alloc_bytes", 128 << 20, 128<<20*1.10 + 1<<20, true},
		{"optimizer_calls", 150, 150*1.05 + 2, true},
		{"iterations", 40, 40*1.05 + 2, true},
		{"improvement_pct", 56.6, 56.6 - 0.5, false},
		{"quality_gap_pct", 73.4, 73.4 + 0.5, true},
		{"bound_violations", 1, 1, true},
		{"profile_coverage_pct", 99.9, 80, false},
		{"frontier_points", 40, 1, false},
		{"recorded_sessions", 2, 2, false},
		{"shared_cache_hits", 16, 1, false},
		{"measured_speedup", 1.25, 1.25 * 0.75, false},
		{"replay_rows_recommended", 80666, 119420, true}, // ≤ the run's replay_rows_baseline
		{"workload_signatures", 16, 16, false},
		{"topk_weight_share", 1, 0.95, false},
		{"history_series", 97, 1, false},
		{"alerts_fired", 1, 1, false},
		{"alert_transitions", 1, 1, false},
	}
	baseMetrics := map[string]float64{
		"wall_seconds":         0.5,
		"calib_samples":        39,
		"mean_tightness":       0.49,
		"rank_correlation":     0.76,
		"plans_reused_pct":     89.9,
		"fleet_tenants":        3,
		"replay_rows_baseline": 119420,
	}
	tested := map[string]bool{}
	for _, tc := range cases {
		baseMetrics[tc.metric] = tc.base
		tested[tc.metric] = true
	}
	gate := func(base, cur map[string]float64) []Violation {
		return Gate(
			&Bench{SchemaVersion: SchemaVersion, Scenarios: []ScenarioResult{{Name: "s", Metrics: base}}},
			&Bench{SchemaVersion: SchemaVersion, Scenarios: []ScenarioResult{{Name: "s", Metrics: cur}}})
	}
	with := func(metric string, v float64) map[string]float64 {
		m := map[string]float64{metric: v}
		for k, b := range baseMetrics {
			if k != metric {
				m[k] = b
			}
		}
		return m
	}
	if vs := gate(baseMetrics, baseMetrics); len(vs) != 0 {
		t.Fatalf("the baseline fails against itself: %v", vs)
	}

	for _, tc := range cases {
		t.Run(tc.metric, func(t *testing.T) {
			far, past := tc.limit+10+math.Abs(tc.limit), math.Inf(1)
			if !tc.ceiling {
				far, past = tc.limit-10-math.Abs(tc.limit), math.Inf(-1)
			}
			vs := gate(baseMetrics, with(tc.metric, far))
			if len(vs) != 1 || vs[0].Metric != tc.metric || vs[0].Baseline != tc.base ||
				math.Abs(vs[0].Limit-tc.limit) > 1e-9*math.Abs(tc.limit) {
				t.Fatalf("value %g: want one %s violation at limit %g, got %v", far, tc.metric, tc.limit, vs)
			}
			at := vs[0].Limit
			if vs := gate(baseMetrics, with(tc.metric, at)); len(vs) != 0 {
				t.Fatalf("value at the limit %g fails: %v", at, vs)
			}
			step := math.Nextafter(at, past)
			if vs := gate(baseMetrics, with(tc.metric, step)); len(vs) != 1 || vs[0].Limit != at {
				t.Fatalf("value %g one step past the limit %g passes: %v", step, at, vs)
			}
			missing := with(tc.metric, 0)
			delete(missing, tc.metric)
			if vs := gate(baseMetrics, missing); len(vs) != 1 || vs[0].Metric != tc.metric {
				t.Fatalf("a run without %s passes: %v", tc.metric, vs)
			}
			// A positive-baseline floor does not apply to a zero baseline.
			if r, _ := ruleFor(tc.metric); r.kind == floorWhenPositive {
				if vs := gate(with(tc.metric, 0), with(tc.metric, 0)); len(vs) != 0 {
					t.Fatalf("floor fired on a zero baseline: %v", vs)
				}
			}
		})
	}
	for _, r := range rules {
		if r.kind != info {
			if !tested[r.metric] {
				t.Errorf("gated rule %s has no test case", r.metric)
			}
			continue
		}
		for _, v := range []float64{-1e12, 1e12} {
			for _, viol := range gate(baseMetrics, with(r.metric, v)) {
				if viol.Metric == r.metric {
					t.Errorf("informational %s = %g is gated: %v", r.metric, v, viol)
				}
			}
		}
	}
}

// TestGateSkipsMetricsTheBaselineLacks: a scenario records only what it
// measures, so a rule applies only where the baseline recorded its
// metric, and a metric the baseline never recorded is not gated.
func TestGateSkipsMetricsTheBaselineLacks(t *testing.T) {
	base := baselineBench()
	cur := baselineBench()
	delete(base.Scenarios[0].Metrics, "measured_speedup")
	cur.Scenarios[0].Metrics["measured_speedup"] = 0.01
	cur.Scenarios[1].Metrics["iterations"] = 1e6
	if vs := Gate(base, cur); len(vs) != 0 {
		t.Fatalf("metrics absent from the baseline were gated: %v", vs)
	}
}

func TestGateMissingScenario(t *testing.T) {
	base := baselineBench()
	cur := baselineBench()
	cur.Scenarios = cur.Scenarios[:1] // drop online-drift

	vs := Gate(base, cur)
	if len(vs) != 1 || vs[0].Scenario != "online-drift" || vs[0].Metric != "scenario" {
		t.Fatalf("missing scenario not flagged: %v", vs)
	}
}

// TestGateScenarioMissingFromBaseline: a scenario the run produces but
// the baseline lacks would otherwise pass ungated.
func TestGateScenarioMissingFromBaseline(t *testing.T) {
	base := baselineBench()
	cur := baselineBench()
	cur.Scenarios = append(cur.Scenarios, ScenarioResult{Name: "brand-new", Metrics: map[string]float64{"optimizer_calls": 1e9}})

	vs := Gate(base, cur)
	if len(vs) != 1 || vs[0].Scenario != "brand-new" || vs[0].Metric != "scenario" ||
		!strings.Contains(vs[0].Detail, "regenerate the baseline") {
		t.Fatalf("scenario missing from the baseline not flagged: %v", vs)
	}
}

func TestGateSchemaVersionMismatch(t *testing.T) {
	base := baselineBench()
	cur := baselineBench()
	cur.SchemaVersion = base.SchemaVersion + 1

	vs := Gate(base, cur)
	if len(vs) != 1 || vs[0].Metric != "schema_version" {
		t.Fatalf("schema mismatch not flagged: %v", vs)
	}
}

// TestCommittedBaselineIsGated: metric names are string keys, so a
// misspelled one would be silently ungated. Every metric of the
// committed record has a row in the rule table, and every scenario of
// the suite has a record.
func TestCommittedBaselineIsGated(t *testing.T) {
	b, err := ReadFile(filepath.Join("..", "..", "BENCH_tuner.json"))
	if err != nil {
		t.Fatal(err)
	}
	if b.SchemaVersion != SchemaVersion {
		t.Fatalf("committed baseline is schema %d, the suite writes %d", b.SchemaVersion, SchemaVersion)
	}
	recorded := map[string]bool{}
	for _, sr := range b.Scenarios {
		recorded[sr.Name] = true
		if len(sr.Metrics) == 0 {
			t.Errorf("%s: no metrics", sr.Name)
		}
		for m := range sr.Metrics {
			if _, ok := ruleFor(m); !ok {
				t.Errorf("%s: metric %q has no row in the rule table", sr.Name, m)
			}
		}
	}
	for _, sc := range Scenarios() {
		if !recorded[sc.Name] {
			t.Errorf("scenario %s is missing from BENCH_tuner.json", sc.Name)
		}
	}
}

func TestBenchFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_tuner.json")
	base := baselineBench()
	base.GeneratedAt = "2026-08-06T00:00:00Z"
	if err := WriteFile(path, base); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != SchemaVersion || len(got.Scenarios) != 2 ||
		got.Scenarios[0].Name != "batch-tpch" || got.Scenarios[0].Metrics["optimizer_calls"] != 150 {
		t.Fatalf("round trip mangled the record: %+v", got)
	}
	if vs := Gate(base, got); len(vs) != 0 {
		t.Fatalf("record fails gate against itself after round trip: %v", vs)
	}
}

func TestReadFileRejectsUnversioned(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "old.json")
	if err := WriteFile(path, &Bench{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Fatalf("unversioned record accepted: %v", err)
	}
}
