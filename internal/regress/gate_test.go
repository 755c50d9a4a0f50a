package regress

import (
	"path/filepath"
	"strings"
	"testing"
)

func baselineBench() *Bench {
	return &Bench{
		SchemaVersion: SchemaVersion,
		Suite:         "smoke",
		Scenarios: []ScenarioResult{
			{
				Name:               "batch-tpch",
				WallSeconds:        0.500,
				AllocBytes:         200 << 20,
				OptimizerCalls:     150,
				Iterations:         40,
				ImprovementPct:     56.6,
				QualityGapPct:      73.4,
				CalibSamples:       39,
				MeanTightness:      0.49,
				RankCorrelation:    0.76,
				BoundViolations:    1,
				PlansReusedPct:     89.9,
				ProfileCoveragePct: 99.9,

				MeasuredSpeedup:       1.25,
				ReplayRowsBaseline:    119420,
				ReplayRowsRecommended: 74197,
			},
			{
				Name:               "online-drift",
				WallSeconds:        1.200,
				AllocBytes:         550 << 20,
				OptimizerCalls:     293,
				ImprovementPct:     59.9,
				BoundViolations:    1,
				ProfileCoveragePct: 99.9,
				FrontierPoints:     6,
				RecordedSessions:   2,
				WorkloadSignatures: 14,
				TopKWeightShare:    1.0,
				HistorySeries:      40,
				AlertsFired:        1,
				AlertTransitions:   1,
			},
		},
	}
}

func TestGateWithinTolerancePasses(t *testing.T) {
	base := baselineBench()
	cur := baselineBench()
	// Ordinary run-to-run noise: slightly slower, slightly more
	// allocation, identical deterministic counters.
	cur.Scenarios[0].WallSeconds *= 1.2
	cur.Scenarios[0].AllocBytes += 10 << 20
	cur.Scenarios[1].WallSeconds *= 0.9

	if vs := Gate(base, cur, Tolerance{}); len(vs) != 0 {
		t.Fatalf("within-tolerance run failed the gate: %v", vs)
	}
}

// TestGateDoesNotGateWallTime: wall_seconds is recorded as information
// only — at smoke scale it flips by run, and bench/ measures time.
func TestGateDoesNotGateWallTime(t *testing.T) {
	base := baselineBench()
	cur := baselineBench()
	cur.Scenarios[0].WallSeconds = base.Scenarios[0].WallSeconds * 10

	if vs := Gate(base, cur, Tolerance{}); len(vs) != 0 {
		t.Fatalf("wall time is gated again: %v", vs)
	}
}

// TestGateViolationIsReadable: the rendered diff names the scenario, the
// metric, the factor, and the numbers involved.
func TestGateViolationIsReadable(t *testing.T) {
	base := baselineBench()
	cur := baselineBench()
	cur.Scenarios[0].AllocBytes = base.Scenarios[0].AllocBytes * 2

	vs := Gate(base, cur, Tolerance{})
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

func TestGateDeterministicCountersAreTight(t *testing.T) {
	base := baselineBench()
	cur := baselineBench()
	// +20% optimizer calls is a real search regression even though the
	// wall clock may absorb it.
	cur.Scenarios[0].OptimizerCalls = 180

	vs := Gate(base, cur, Tolerance{})
	if len(vs) != 1 || vs[0].Metric != "optimizer_calls" {
		t.Fatalf("want one optimizer_calls violation, got %v", vs)
	}
}

func TestGateQualityDrop(t *testing.T) {
	base := baselineBench()
	cur := baselineBench()
	cur.Scenarios[0].ImprovementPct -= 2 // two points of recommendation quality

	vs := Gate(base, cur, Tolerance{})
	if len(vs) != 1 || vs[0].Metric != "improvement_pct" {
		t.Fatalf("want one improvement_pct violation, got %v", vs)
	}
	// Within the ±0.5-point default it must pass.
	cur.Scenarios[0].ImprovementPct = base.Scenarios[0].ImprovementPct - 0.3
	if vs := Gate(base, cur, Tolerance{}); len(vs) != 0 {
		t.Fatalf("0.3-point wobble should pass: %v", vs)
	}
}

func TestGateNewBoundViolationsFail(t *testing.T) {
	base := baselineBench()
	cur := baselineBench()
	cur.Scenarios[0].BoundViolations = base.Scenarios[0].BoundViolations + 3

	vs := Gate(base, cur, Tolerance{})
	if len(vs) != 1 || vs[0].Metric != "bound_violations" {
		t.Fatalf("want one bound_violations violation, got %v", vs)
	}
}

// TestGateFlightRecorderLowerBounds: losing the frontier trajectory or
// recorded sessions is a regression even though every other metric only
// improves when observability silently turns off.
func TestGateFlightRecorderLowerBounds(t *testing.T) {
	base := baselineBench()
	cur := baselineBench()
	cur.Scenarios[1].FrontierPoints = 0

	vs := Gate(base, cur, Tolerance{})
	if len(vs) != 1 || vs[0].Metric != "frontier_points" {
		t.Fatalf("lost frontier not flagged: %v", vs)
	}

	cur = baselineBench()
	cur.Scenarios[1].RecordedSessions = 1
	vs = Gate(base, cur, Tolerance{})
	if len(vs) != 1 || vs[0].Metric != "recorded_sessions" {
		t.Fatalf("lost session not flagged: %v", vs)
	}

	// A longer frontier or more sessions is not a violation.
	cur = baselineBench()
	cur.Scenarios[1].FrontierPoints = 9
	cur.Scenarios[1].RecordedSessions = 3
	if vs := Gate(base, cur, Tolerance{}); len(vs) != 0 {
		t.Fatalf("growth flagged: %v", vs)
	}
}

// TestGateGroundTruthLowerBounds: the replay gates are lower bounds on
// measured reality — a recommendation that executes materially slower
// than the committed record, or scans more rows than the unindexed
// baseline, fails even when every estimate-based metric looks fine.
func TestGateGroundTruthLowerBounds(t *testing.T) {
	base := baselineBench()
	cur := baselineBench()
	cur.Scenarios[0].MeasuredSpeedup = 0.85 // below 0.75 × the 1.25 record

	vs := Gate(base, cur, Tolerance{})
	if len(vs) != 1 || vs[0].Metric != "measured_speedup" {
		t.Fatalf("sub-1 measured speedup not flagged: %v", vs)
	}

	cur = baselineBench()
	cur.Scenarios[0].ReplayRowsRecommended = cur.Scenarios[0].ReplayRowsBaseline + 1
	vs = Gate(base, cur, Tolerance{})
	if len(vs) != 1 || vs[0].Metric != "replay_rows" {
		t.Fatalf("rows-scanned regression not flagged: %v", vs)
	}

	// Fewer rows or a larger speedup is improvement, not violation; and a
	// baseline without replay data (pre-v4 regeneration) gates nothing.
	cur = baselineBench()
	cur.Scenarios[0].MeasuredSpeedup = 2.0
	cur.Scenarios[0].ReplayRowsRecommended = 50000
	if vs := Gate(base, cur, Tolerance{}); len(vs) != 0 {
		t.Fatalf("improvement flagged: %v", vs)
	}
	base.Scenarios[0].MeasuredSpeedup = 0
	base.Scenarios[0].ReplayRowsBaseline = 0
	cur.Scenarios[0].MeasuredSpeedup = 0.5
	cur.Scenarios[0].ReplayRowsRecommended = 1 << 40
	if vs := Gate(base, cur, Tolerance{}); len(vs) != 0 {
		t.Fatalf("gates fired without baseline replay data: %v", vs)
	}
}

// TestGateWorkloadIntrospectionLowerBounds: the signature count and the
// top-k weight coverage are lower bounds — losing tracked signatures or
// sketch coverage is a regression of the introspection surface even
// though tuning results stay identical.
func TestGateWorkloadIntrospectionLowerBounds(t *testing.T) {
	base := baselineBench()
	cur := baselineBench()
	cur.Scenarios[1].WorkloadSignatures = base.Scenarios[1].WorkloadSignatures - 2

	vs := Gate(base, cur, Tolerance{})
	if len(vs) != 1 || vs[0].Metric != "workload_signatures" {
		t.Fatalf("lost signatures not flagged: %v", vs)
	}

	cur = baselineBench()
	cur.Scenarios[1].TopKWeightShare = 0.80 // below 0.95 × the 1.0 record
	vs = Gate(base, cur, Tolerance{})
	if len(vs) != 1 || vs[0].Metric != "topk_weight_share" {
		t.Fatalf("lost sketch coverage not flagged: %v", vs)
	}

	// Within the 5% decay slack it must pass, as must a run tracking more
	// signatures than the baseline.
	cur = baselineBench()
	cur.Scenarios[1].TopKWeightShare = 0.96
	cur.Scenarios[1].WorkloadSignatures = base.Scenarios[1].WorkloadSignatures + 3
	if vs := Gate(base, cur, Tolerance{}); len(vs) != 0 {
		t.Fatalf("within-slack run flagged: %v", vs)
	}
	// A pre-v5 baseline without introspection counters gates nothing.
	base.Scenarios[1].WorkloadSignatures = 0
	base.Scenarios[1].TopKWeightShare = 0
	cur.Scenarios[1].WorkloadSignatures = 0
	cur.Scenarios[1].TopKWeightShare = 0
	if vs := Gate(base, cur, Tolerance{}); len(vs) != 0 {
		t.Fatalf("gates fired without baseline introspection data: %v", vs)
	}
}

func TestGateSelfMonitoringLowerBounds(t *testing.T) {
	for _, tc := range []struct {
		metric string
		zero   func(sr *ScenarioResult)
	}{
		{"history_series", func(sr *ScenarioResult) { sr.HistorySeries = 0 }},
		{"alerts_fired", func(sr *ScenarioResult) { sr.AlertsFired = 0 }},
		{"alert_transitions", func(sr *ScenarioResult) { sr.AlertTransitions = 0 }},
	} {
		base := baselineBench()
		cur := baselineBench()
		tc.zero(&cur.Scenarios[1])
		vs := Gate(base, cur, Tolerance{})
		if len(vs) != 1 || vs[0].Metric != tc.metric {
			t.Fatalf("zeroed %s not flagged: %v", tc.metric, vs)
		}
	}

	// More series / transitions than the record is fine, and a pre-v7
	// baseline without the counters gates nothing.
	base := baselineBench()
	cur := baselineBench()
	cur.Scenarios[1].HistorySeries = base.Scenarios[1].HistorySeries + 5
	cur.Scenarios[1].AlertTransitions = 3
	if vs := Gate(base, cur, Tolerance{}); len(vs) != 0 {
		t.Fatalf("healthier run flagged: %v", vs)
	}
	base.Scenarios[1].HistorySeries = 0
	base.Scenarios[1].AlertsFired = 0
	base.Scenarios[1].AlertTransitions = 0
	cur.Scenarios[1].HistorySeries = 0
	cur.Scenarios[1].AlertsFired = 0
	cur.Scenarios[1].AlertTransitions = 0
	if vs := Gate(base, cur, Tolerance{}); len(vs) != 0 {
		t.Fatalf("gates fired without baseline monitor data: %v", vs)
	}
}

func TestGateMissingScenario(t *testing.T) {
	base := baselineBench()
	cur := baselineBench()
	cur.Scenarios = cur.Scenarios[:1] // drop online-drift

	vs := Gate(base, cur, Tolerance{})
	if len(vs) != 1 || vs[0].Scenario != "online-drift" || vs[0].Metric != "scenario" {
		t.Fatalf("missing scenario not flagged: %v", vs)
	}
	// A scenario that is new in the current run is not a violation: it
	// joins the baseline when the baseline is next regenerated.
	cur2 := baselineBench()
	cur2.Scenarios = append(cur2.Scenarios, ScenarioResult{Name: "brand-new"})
	if vs := Gate(base, cur2, Tolerance{}); len(vs) != 0 {
		t.Fatalf("new scenario flagged: %v", vs)
	}
}

func TestGateSchemaVersionMismatch(t *testing.T) {
	base := baselineBench()
	cur := baselineBench()
	cur.SchemaVersion = base.SchemaVersion + 1

	vs := Gate(base, cur, Tolerance{})
	if len(vs) != 1 || vs[0].Metric != "schema_version" {
		t.Fatalf("schema mismatch not flagged: %v", vs)
	}
}

func TestGateCustomToleranceLoosens(t *testing.T) {
	base := baselineBench()
	cur := baselineBench()
	cur.Scenarios[0].AllocBytes = base.Scenarios[0].AllocBytes * 3

	// A CI override (-alloc-tolerance 4) must absorb the 3× growth...
	if vs := Gate(base, cur, Tolerance{AllocFactor: 4}); len(vs) != 0 {
		t.Fatalf("loosened gate still failed: %v", vs)
	}
	// ...while zero-valued fields keep their defaults.
	cur.Scenarios[0].OptimizerCalls *= 2
	vs := Gate(base, cur, Tolerance{AllocFactor: 4})
	if len(vs) != 1 || vs[0].Metric != "optimizer_calls" {
		t.Fatalf("defaults not preserved under partial override: %v", vs)
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
		got.Scenarios[0].Name != "batch-tpch" || got.Scenarios[0].OptimizerCalls != 150 {
		t.Fatalf("round trip mangled the record: %+v", got)
	}
	if vs := Gate(base, got, Tolerance{}); len(vs) != 0 {
		t.Fatalf("record fails gate against itself after round trip: %v", vs)
	}
}

func TestReadFileRejectsUnversioned(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "old.json")
	if err := WriteFile(path, &Bench{Suite: "smoke"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), "schema_version") {
		t.Fatalf("unversioned record accepted: %v", err)
	}
}
