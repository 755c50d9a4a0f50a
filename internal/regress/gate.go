package regress

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Tolerance bounds how far a run may drift from the baseline before
// the gate fails. Deterministic counters (optimizer calls, iterations)
// get tight factors; allocations get a looser one plus an absolute
// slack. Wall time is not gated: at 0.03–0.3 s per scenario it flips by
// run on unchanged code, and bench/ measures time at a scale where it
// is signal. Zero-valued fields take the defaults below.
type Tolerance struct {
	// AllocFactor caps heap allocations at baseline×factor (+1 MiB).
	// Allocation counts are deterministic up to GC timing, so the
	// default is tight (1.10×): the what-if hot path is allocation-
	// disciplined and a 10% creep is already a real regression.
	AllocFactor float64
	// CallsFactor caps optimizer calls and iterations — both
	// deterministic for a fixed seed — at baseline×factor (+2).
	CallsFactor float64
	// QualityPoints is the allowed drop in improvement (and rise in
	// quality gap), in absolute percentage points.
	QualityPoints float64
	// CoverageFloorPct is the minimum profile coverage; checked only
	// when the baseline recorded a non-zero coverage.
	CoverageFloorPct float64
}

// DefaultTolerance returns the gate defaults (alloc 1.10×, calls 1.05×,
// quality ±0.5 points, coverage floor 80%).
func DefaultTolerance() Tolerance {
	return Tolerance{
		AllocFactor:      1.10,
		CallsFactor:      1.05,
		QualityPoints:    0.5,
		CoverageFloorPct: 80,
	}
}

func (t Tolerance) withDefaults() Tolerance {
	d := DefaultTolerance()
	if t.AllocFactor <= 0 {
		t.AllocFactor = d.AllocFactor
	}
	if t.CallsFactor <= 0 {
		t.CallsFactor = d.CallsFactor
	}
	if t.QualityPoints <= 0 {
		t.QualityPoints = d.QualityPoints
	}
	if t.CoverageFloorPct <= 0 {
		t.CoverageFloorPct = d.CoverageFloorPct
	}
	return t
}

// Violation is one gate failure: a metric that crossed its tolerance.
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
	return fmt.Sprintf("%s: %s: %s (current %.4g, baseline %.4g, limit %.4g)",
		v.Scenario, v.Metric, v.Detail, v.Current, v.Baseline, v.Limit)
}

// Gate compares a run against the baseline and returns every tolerance
// violation, grouped by scenario in baseline order. An empty slice
// means the run passes.
func Gate(baseline, current *Bench, tol Tolerance) []Violation {
	tol = tol.withDefaults()
	var vs []Violation
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
	for _, base := range baseline.Scenarios {
		c, ok := cur[base.Name]
		if !ok {
			vs = append(vs, Violation{
				Scenario: base.Name, Metric: "scenario",
				Detail: "scenario present in baseline but missing from this run",
			})
			continue
		}
		vs = append(vs, gateScenario(base, c, tol)...)
	}
	return vs
}

func gateScenario(base, c ScenarioResult, tol Tolerance) []Violation {
	var vs []Violation
	check := func(metric string, baseline, current, limit float64, detail string) {
		vs = append(vs, Violation{
			Scenario: base.Name, Metric: metric,
			Baseline: baseline, Current: current, Limit: limit,
			Detail: detail,
		})
	}

	if limit := float64(base.AllocBytes)*tol.AllocFactor + float64(1<<20); float64(c.AllocBytes) > limit {
		check("alloc_bytes", float64(base.AllocBytes), float64(c.AllocBytes), limit,
			fmt.Sprintf("heap allocations regressed %.2fx", float64(c.AllocBytes)/float64(base.AllocBytes)))
	}
	if limit := float64(base.OptimizerCalls)*tol.CallsFactor + 2; float64(c.OptimizerCalls) > limit {
		check("optimizer_calls", float64(base.OptimizerCalls), float64(c.OptimizerCalls), limit,
			"the search spends more optimizer calls than the baseline")
	}
	if limit := float64(base.Iterations)*tol.CallsFactor + 2; float64(c.Iterations) > limit {
		check("iterations", float64(base.Iterations), float64(c.Iterations), limit,
			"the search needs more relaxation iterations than the baseline")
	}
	if floor := base.ImprovementPct - tol.QualityPoints; c.ImprovementPct < floor {
		check("improvement_pct", base.ImprovementPct, c.ImprovementPct, floor,
			"recommendation quality dropped below the baseline")
	}
	if limit := base.QualityGapPct + tol.QualityPoints; c.QualityGapPct > limit {
		check("quality_gap_pct", base.QualityGapPct, c.QualityGapPct, limit,
			"the recommendation landed farther from the unconstrained optimum")
	}
	if c.BoundViolations > base.BoundViolations {
		check("bound_violations", float64(base.BoundViolations), float64(c.BoundViolations),
			float64(base.BoundViolations),
			"new §3.3.2 ΔT bound violations (realized cost above the proved upper bound)")
	}
	if base.ProfileCoveragePct > 0 && c.ProfileCoveragePct < tol.CoverageFloorPct {
		check("profile_coverage_pct", base.ProfileCoveragePct, c.ProfileCoveragePct, tol.CoverageFloorPct,
			"profiler phases no longer account for the scenario's wall time")
	}
	// Flight-recorder lower bounds: these counters are deterministic for
	// a fixed seed, and dropping to zero means the observability surface
	// silently broke (frontier capture or session recording), which no
	// upper-bound check would catch.
	if base.FrontierPoints > 0 && c.FrontierPoints == 0 {
		check("frontier_points", float64(base.FrontierPoints), 0, 1,
			"the search no longer records its (space, cost) frontier trajectory")
	}
	if c.RecordedSessions < base.RecordedSessions {
		check("recorded_sessions", float64(base.RecordedSessions), float64(c.RecordedSessions),
			float64(base.RecordedSessions),
			"the flight recorder retained fewer sessions than the baseline")
	}
	// Fleet lower bound: cross-tenant fragment reuse is the point of the
	// fleet-throughput scenario. Shared hits dropping to zero while the
	// baseline recorded some means multi-tenant cache sharing silently
	// broke (tenants still get correct recommendations — just without
	// the optimizer-call savings — so only this gate would catch it).
	if base.SharedCacheHits > 0 && c.SharedCacheHits == 0 {
		check("shared_cache_hits", float64(base.SharedCacheHits), 0, 1,
			"the fleet no longer shares cached fragments across tenants")
	}
	// Ground-truth lower bounds, from the execution-backed replay.
	// MeasuredSpeedup is a ratio of two wall-time measurements, so noise
	// compounds; gate it against the committed baseline (recorded ≥ 1)
	// with a loose factor rather than an absolute floor. A recommendation
	// that executes materially slower than the record — the regression
	// every estimate-based metric above is blind to — still fails. The
	// rows-scanned comparison is deterministic: the recommended
	// configuration scanning more rows than the baseline means its
	// structures went unused.
	if base.MeasuredSpeedup > 0 {
		if floor := base.MeasuredSpeedup * 0.75; c.MeasuredSpeedup < floor {
			check("measured_speedup", base.MeasuredSpeedup, c.MeasuredSpeedup, floor,
				"the recommendation measures materially slower than the baseline record when actually executed")
		}
	}
	if base.ReplayRowsBaseline > 0 && c.ReplayRowsRecommended > c.ReplayRowsBaseline {
		check("replay_rows", float64(base.ReplayRowsRecommended), float64(c.ReplayRowsRecommended),
			float64(c.ReplayRowsBaseline),
			"the recommended configuration scans more rows than the unindexed baseline")
	}
	// Workload-introspection lower bounds (online-drift). The signature
	// count is deterministic for a fixed seed: fewer distinct signatures
	// than the baseline means canonicalization started merging shapes it
	// should keep apart, or the sketch lost streams. The top-k weight
	// coverage dropping below the baseline (less 5% slack for decay
	// timing) means the sketch evicts live traffic it used to track.
	if base.WorkloadSignatures > 0 && c.WorkloadSignatures < base.WorkloadSignatures {
		check("workload_signatures", float64(base.WorkloadSignatures), float64(c.WorkloadSignatures),
			float64(base.WorkloadSignatures),
			"the sketch tracks fewer distinct statement signatures than the baseline")
	}
	if base.TopKWeightShare > 0 {
		if floor := base.TopKWeightShare * 0.95; c.TopKWeightShare < floor {
			check("topk_weight_share", base.TopKWeightShare, c.TopKWeightShare, floor,
				"the top-k sketch covers less of the window's weight than the baseline")
		}
	}
	// Self-monitoring lower bounds (online-drift). The baseline records
	// a populated metrics history and a synthetic rule left firing with
	// at least one logged transition; any of them collapsing to zero
	// means the sampler stopped capturing series or the alert engine
	// stopped evaluating — observability regressions no quality metric
	// would catch.
	if base.HistorySeries > 0 && c.HistorySeries == 0 {
		check("history_series", float64(base.HistorySeries), 0, 1,
			"the metrics-history sampler retained no series")
	}
	if base.AlertsFired > 0 && c.AlertsFired == 0 {
		check("alerts_fired", float64(base.AlertsFired), 0, 1,
			"the synthetic retune-completed rule no longer fires")
	}
	if base.AlertTransitions > 0 && c.AlertTransitions == 0 {
		check("alert_transitions", float64(base.AlertTransitions), 0, 1,
			"the alert engine logged no state transitions")
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
