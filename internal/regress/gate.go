package regress

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// kind says how a rule bounds its metric. Every bound but notAboveRun's
// is limit = baseline×factor + add.
type kind int

const (
	info              kind = iota // recorded for the reader, never gated
	ceiling                       // current ≤ limit
	floor                         // current ≥ limit
	floorWhenPositive             // current ≥ limit, when the baseline is positive
	notAboveRun                   // current ≤ the run's own value of rule.of
)

// rule is one row of the gate: the metric it reads, how it bounds the
// metric against the baseline, and what a violation means.
type rule struct {
	metric      string
	kind        kind
	factor, add float64
	of          string
	detail      string
}

// rules is the whole gate, in report order; it is the one place a
// tolerance lives. A scenario records only the metrics it measures, and
// a rule applies to a scenario whose baseline recorded its metric; a
// metric the baseline gates but the run lacks is a violation.
//
// Optimizer calls and iterations are deterministic for the fixed seed
// and bounded tightly. Allocations are deterministic up to GC timing;
// the what-if hot path is allocation-disciplined, so 10% creep is
// already a real regression. Wall time is not gated: at 0.03–0.3 s per
// scenario it flips by run on unchanged code, and bench/ measures time
// at a scale where it is signal. The lower bounds catch a part of the
// system going quiet — frontier capture, the flight recorder, fleet
// cache sharing, the sketch, the history sampler, the alert engine —
// which every upper bound would miss, since a silent component only
// makes the other metrics look better.
var rules = []rule{
	{metric: "wall_seconds", kind: info},
	{metric: "alloc_bytes", kind: ceiling, factor: 1.10, add: 1 << 20,
		detail: "heap allocations regressed"},
	{metric: "optimizer_calls", kind: ceiling, factor: 1.05, add: 2,
		detail: "the search spends more optimizer calls than the baseline"},
	{metric: "iterations", kind: ceiling, factor: 1.05, add: 2,
		detail: "the search needs more relaxation iterations than the baseline"},
	// The paper's quality metric: 100 × (1 − cost(recommended)/cost(initial)).
	{metric: "improvement_pct", kind: floor, factor: 1, add: -0.5,
		detail: "recommendation quality dropped below the baseline"},
	// 100 × (cost(best) − cost(optimal)) / cost(optimal), against the
	// unconstrained §2 optimum.
	{metric: "quality_gap_pct", kind: ceiling, factor: 1, add: 0.5,
		detail: "the recommendation landed farther from the unconstrained optimum"},
	// The calibration summary of the §3.3.2 ΔT bounds (obs.Calibrate),
	// and the share of incremental evaluations answered by plan reuse.
	{metric: "calib_samples", kind: info},
	{metric: "mean_tightness", kind: info},
	{metric: "rank_correlation", kind: info},
	{metric: "bound_violations", kind: ceiling, factor: 1,
		detail: "new §3.3.2 ΔT bound violations (realized cost above the proved upper bound)"},
	{metric: "plans_reused_pct", kind: info},
	// The share of wall time attributed to named profiler phases.
	{metric: "profile_coverage_pct", kind: floorWhenPositive, add: 80,
		detail: "profiler phases no longer account for the scenario's wall time"},
	// The length of the recorded (space, cost) search trajectory and the
	// flight recorder's session count.
	{metric: "frontier_points", kind: floorWhenPositive, add: 1,
		detail: "the search no longer records its (space, cost) frontier trajectory"},
	{metric: "recorded_sessions", kind: floor, factor: 1,
		detail: "the flight recorder retained fewer sessions than the baseline"},
	{metric: "fleet_tenants", kind: info},
	// Cross-tenant fragment-cache hits: tenants still get correct
	// recommendations without them, just without the savings.
	{metric: "shared_cache_hits", kind: floorWhenPositive, add: 1,
		detail: "the fleet no longer shares cached fragments across tenants"},
	// Ground truth from executing the workload: baseline wall time over
	// recommended wall time. A ratio of two wall times, so it gets a
	// loose factor; the rows-scanned counters are deterministic, and the
	// recommended configuration scanning more rows than the unindexed
	// one means its structures went unused.
	{metric: "measured_speedup", kind: floor, factor: 0.75,
		detail: "the recommendation measures materially slower than the baseline record when actually executed"},
	{metric: "replay_rows_baseline", kind: info},
	{metric: "replay_rows_recommended", kind: notAboveRun, of: "replay_rows_baseline",
		detail: "the recommended configuration scans more rows than the unindexed baseline"},
	// The top-k sketch's distinct statement signatures, and the share of
	// the window's decayed weight they cover (5% slack for decay timing).
	{metric: "workload_signatures", kind: floor, factor: 1,
		detail: "the sketch tracks fewer distinct statement signatures than the baseline"},
	{metric: "topk_weight_share", kind: floor, factor: 0.95,
		detail: "the top-k sketch covers less of the window's weight than the baseline"},
	// Self-monitoring: series the history sampler retains, alerts a
	// synthetic retune-completed rule left firing, transitions logged.
	{metric: "history_series", kind: floorWhenPositive, add: 1,
		detail: "the metrics-history sampler retained no series"},
	{metric: "alerts_fired", kind: floorWhenPositive, add: 1,
		detail: "the synthetic retune-completed rule no longer fires"},
	{metric: "alert_transitions", kind: floorWhenPositive, add: 1,
		detail: "the alert engine logged no state transitions"},
}

// Violation is one gate failure: a metric that crossed its limit.
type Violation struct {
	Scenario string  `json:"scenario"`
	Metric   string  `json:"metric"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	Limit    float64 `json:"limit"`
	// Detail carries the human-readable explanation shown in CI logs.
	Detail string `json:"detail"`
}

func (v Violation) String() string {
	s := fmt.Sprintf("%s: %s: %s (current %.4g, baseline %.4g, limit %.4g",
		v.Scenario, v.Metric, v.Detail, v.Current, v.Baseline, v.Limit)
	if v.Baseline > 0 {
		s += fmt.Sprintf(", %.2fx baseline", v.Current/v.Baseline)
	}
	return s + ")"
}

// Gate compares a run against the baseline and returns every violation:
// the baseline's scenarios in its order, then any scenario the baseline
// lacks. An empty slice means the run passes.
func Gate(baseline, current *Bench) []Violation {
	if baseline.SchemaVersion != current.SchemaVersion {
		return []Violation{{
			Scenario: "-", Metric: "schema_version",
			Baseline: float64(baseline.SchemaVersion),
			Current:  float64(current.SchemaVersion),
			Limit:    float64(baseline.SchemaVersion),
			Detail:   "benchmark schema changed; regenerate the baseline",
		}}
	}
	cur := make(map[string]ScenarioResult, len(current.Scenarios))
	for _, sr := range current.Scenarios {
		cur[sr.Name] = sr
	}
	var vs []Violation
	for _, base := range baseline.Scenarios {
		c, ok := cur[base.Name]
		if !ok {
			vs = append(vs, Violation{
				Scenario: base.Name, Metric: "scenario",
				Detail: "scenario present in baseline but missing from this run",
			})
			continue
		}
		delete(cur, base.Name)
		vs = append(vs, gateScenario(base, c)...)
	}
	for _, sr := range current.Scenarios {
		if _, ungated := cur[sr.Name]; ungated {
			vs = append(vs, Violation{
				Scenario: sr.Name, Metric: "scenario",
				Detail: "scenario produced by this run but missing from the baseline; regenerate the baseline",
			})
		}
	}
	return vs
}

func gateScenario(base, cur ScenarioResult) []Violation {
	var vs []Violation
	for _, r := range rules {
		b, gated := base.Metrics[r.metric]
		if !gated || r.kind == info {
			continue
		}
		v := Violation{Scenario: base.Name, Metric: r.metric, Baseline: b, Detail: r.detail}
		c, ok := cur.Metrics[r.metric]
		if !ok {
			v.Detail = "the baseline gates this metric but the run did not record it"
			vs = append(vs, v)
			continue
		}
		v.Current, v.Limit = c, b*r.factor+r.add
		var fail bool
		switch r.kind {
		case ceiling:
			fail = c > v.Limit
		case floor:
			fail = c < v.Limit
		case floorWhenPositive:
			fail = b > 0 && c < v.Limit
		case notAboveRun:
			v.Limit = cur.Metrics[r.of]
			fail = c > v.Limit
		}
		if fail {
			vs = append(vs, v)
		}
	}
	return vs
}

// FormatViolations renders the gate report the way CI logs it.
func FormatViolations(w io.Writer, vs []Violation) {
	if len(vs) == 0 {
		fmt.Fprintln(w, "gate: PASS")
		return
	}
	fmt.Fprintf(w, "gate: FAIL (%d violation(s))\n", len(vs))
	for _, v := range vs {
		fmt.Fprintf(w, "  %s\n", v)
	}
}

// WriteJSON writes the benchmark record as indented JSON.
func (b *Bench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// WriteFile writes the benchmark record to path.
func WriteFile(path string, b *Bench) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a benchmark record, verifying the schema version.
func ReadFile(path string) (*Bench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Bench
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("regress: parsing %s: %w", path, err)
	}
	if b.SchemaVersion == 0 {
		return nil, fmt.Errorf("regress: %s has no schema_version (pre-versioned record?)", path)
	}
	return &b, nil
}
