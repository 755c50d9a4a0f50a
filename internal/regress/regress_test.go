package regress

import (
	"maps"
	"testing"
)

// TestBatchScenarioProducesFullRecord runs the cheapest real scenario
// end to end and checks every metric the gate depends on is recorded,
// under a name the rule table knows.
func TestBatchScenarioProducesFullRecord(t *testing.T) {
	m, err := runBatchUpdates()
	if err != nil {
		t.Fatal(err)
	}
	for name := range m {
		if _, ok := ruleFor(name); !ok {
			t.Errorf("metric %q has no row in the rule table", name)
		}
	}
	if m["wall_seconds"] <= 0 || m["alloc_bytes"] <= 0 {
		t.Errorf("resource metrics empty: wall=%g alloc=%g", m["wall_seconds"], m["alloc_bytes"])
	}
	if m["optimizer_calls"] <= 0 || m["iterations"] <= 0 {
		t.Errorf("search counters empty: calls=%g iters=%g", m["optimizer_calls"], m["iterations"])
	}
	// The budget is derived from the optimal configuration precisely so
	// relaxation runs and produces calibration samples.
	if m["calib_samples"] <= 0 {
		t.Error("no calibration samples: the scenario budget no longer forces relaxation")
	}
	if m["plans_reused_pct"] <= 0 {
		t.Errorf("plan reuse not measured: %g%%", m["plans_reused_pct"])
	}
	if m["profile_coverage_pct"] < 80 {
		t.Errorf("profile coverage = %.1f%%, want ≥ 80%%", m["profile_coverage_pct"])
	}
	if m["frontier_points"] <= 0 {
		t.Error("no frontier points recorded: trajectory capture broke")
	}
}

// TestScenarioRunsAreDeterministic re-runs the scenario: it records the
// same metrics, and all but the measured ones are equal.
func TestScenarioRunsAreDeterministic(t *testing.T) {
	a, err := runBatchUpdates()
	if err != nil {
		t.Fatal(err)
	}
	b, err := runBatchUpdates()
	if err != nil {
		t.Fatal(err)
	}
	for _, measured := range []string{"wall_seconds", "alloc_bytes", "profile_coverage_pct"} {
		delete(a, measured)
		delete(b, measured)
	}
	if !maps.Equal(a, b) {
		t.Errorf("deterministic metrics differ between runs:\n  %v\n  %v", a, b)
	}
}

func TestScenarioNamesMatchSuite(t *testing.T) {
	names := map[string]bool{}
	for _, sc := range Scenarios() {
		if sc.Name == "" || sc.Run == nil {
			t.Fatalf("malformed scenario: %+v", sc)
		}
		if names[sc.Name] {
			t.Fatalf("duplicate scenario name %q", sc.Name)
		}
		names[sc.Name] = true
	}
}
