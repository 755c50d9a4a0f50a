// Package regress is the tuner's performance-regression harness. It
// runs standardized tuning scenarios (batch TPC-H-style, an update
// workload, an online drift replay through the service layer, and a
// multi-tenant fleet throughput scenario), records per scenario the
// metrics it measures — allocations, optimizer calls, recommendation
// quality against the unconstrained §2 optimum, the §3.3.2 calibration
// score and so on — in a schema-versioned record, and gates the record
// against a committed baseline with one rule table (gate.go). Command
// tunerbench is the CLI front end; the emitted BENCH_tuner.json is the
// trajectory artifact CI uploads.
package regress

import (
	"fmt"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/service"
	"repro/internal/workloads"
)

// SchemaVersion identifies the BENCH_tuner.json layout. Bump it when a
// metric is added, removed or changes meaning; the gate refuses to
// compare across versions.
const SchemaVersion = 9

// The suite's one setting. The committed baseline was recorded with
// these values, so a run with any other could not be gated against it.
const (
	scaleFactor   = 0.001
	seed          = 42 // drives batch-updates' workload generator
	maxIterations = 40
)

// Bench is the schema-versioned payload written to BENCH_tuner.json.
type Bench struct {
	SchemaVersion int `json:"schema_version"`
	// GeneratedAt is stamped by the CLI (RFC 3339, UTC); the library
	// leaves it empty so runs stay deterministic under test.
	GeneratedAt string           `json:"generated_at,omitempty"`
	Scenarios   []ScenarioResult `json:"scenarios"`
}

// ScenarioResult is one scenario's record: the metrics it measures,
// by name, and nothing else. Every name has a row in the gate's rule
// table (gate.go), which says what it means and how it is gated.
type ScenarioResult struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics"`
}

// Scenario is one standardized benchmark scenario.
type Scenario struct {
	Name string
	Run  func() (map[string]float64, error)
}

// Scenarios returns the standard suite in execution order.
func Scenarios() []Scenario {
	return []Scenario{
		// TPC-H 22-query batch, index-only, budget = optimal/3.
		{Name: "batch-tpch", Run: runBatchTPCH},
		// Generated SELECT+UPDATE mix on the bench schema, budget = optimal/3.
		{Name: "batch-updates", Run: runBatchUpdates},
		// Two-phase workload replay through the online service (warm retune).
		{Name: "online-drift", Run: runOnlineDrift},
		// 3-tenant fleet with overlapping shapes (shared-cache reuse +
		// single-tenant parity).
		{Name: "fleet-throughput", Run: runFleetThroughput},
	}
}

// RunSuite executes every scenario and assembles the Bench record.
func RunSuite() (*Bench, error) {
	b := &Bench{SchemaVersion: SchemaVersion}
	for _, sc := range Scenarios() {
		m, err := sc.Run()
		if err != nil {
			return nil, fmt.Errorf("regress: scenario %s: %w", sc.Name, err)
		}
		b.Scenarios = append(b.Scenarios, ScenarioResult{Name: sc.Name, Metrics: m})
	}
	return b, nil
}

// budgetFor probes the unconstrained §2 optimum of w and returns its
// size divided by div: a space budget that forces the search to relax.
func budgetFor(db *catalog.Database, w *workloads.Workload, opts core.Options, div int64) (int64, error) {
	probe, err := core.NewTuner(db, w, opts)
	if err != nil {
		return 0, err
	}
	optCfg, err := probe.OptimalConfiguration()
	if err != nil {
		return 0, err
	}
	return probe.Opt.Sizer().ConfigBytes(optCfg) / div, nil
}

func runBatchTPCH() (map[string]float64, error) {
	db := datagen.TPCH(scaleFactor)
	w, err := workloads.TPCH22()
	if err != nil {
		return nil, err
	}
	m, res, err := runBatch(db, w)
	if err != nil {
		return nil, err
	}
	// Execution-grounded replay: materialize the database at the same
	// scale, run the workload under the baseline and recommended
	// configurations, and record the measured speedup and rows-scanned
	// counters. Replay wall time is deliberately outside wall_seconds,
	// which measures the tuning session alone.
	// Seven repetitions (min-of-reps): the speedup is a ratio of two
	// wall times, so the estimator needs to be noise-resistant on shared
	// CI runners. The substrate scale matches the tuning scale — the
	// catalog statistics the recommendation was optimized for are the
	// row distribution it is measured against.
	rdb, store := datagen.TPCHData(scaleFactor)
	gt, err := replay.Run(rdb, store, w.Queries, res, replay.Options{MaxLineageSteps: 2, Repetitions: 7})
	if err != nil {
		return nil, fmt.Errorf("ground-truth replay: %w", err)
	}
	m["measured_speedup"] = gt.SpeedupMeasured
	if b, r := gt.Baseline(), gt.Recommended(); b != nil && r != nil {
		m["replay_rows_baseline"] = float64(b.RowsScanned)
		m["replay_rows_recommended"] = float64(r.RowsScanned)
	}
	return m, nil
}

func runBatchUpdates() (map[string]float64, error) {
	db := datagen.Bench(scaleFactor)
	// Same generator defaults as the paper experiments (Table 3 /
	// Figures 8-9 pool), plus an update mix to exercise the skyline and
	// update-cost machinery.
	gen := workloads.DefaultGenOptions("bench-updates", seed, 12)
	gen.UpdateFraction = 0.3
	w, err := workloads.Generate(db, gen)
	if err != nil {
		return nil, err
	}
	m, _, err := runBatch(db, w)
	return m, err
}

// runBatch tunes w index-only under a budget of a third of the optimal
// configuration's size, with the profiler attached, and distills the
// scenario's metrics. The raw tuning result comes back too: batch-tpch
// replays it against real data.
func runBatch(db *catalog.Database, w *workloads.Workload) (map[string]float64, *core.Result, error) {
	// Index-only: with views enabled the 40-iteration cap exhausts on
	// TPC-H before the search shrinks under the budget, yielding a
	// degenerate (improvement 0) record with no regression signal.
	opts := core.Options{NoViews: true, MaxIterations: maxIterations, Parallelism: 1}
	budget, err := budgetFor(db, w, opts, 3)
	if err != nil {
		return nil, nil, err
	}
	opts.SpaceBudget = budget
	prof := obs.NewProfiler()
	opts.Profile = prof

	tn, err := core.NewTuner(db, w, opts)
	if err != nil {
		return nil, nil, err
	}
	alloc0 := obs.HeapAllocBytes()
	res, err := tn.Tune()
	if err != nil {
		return nil, nil, err
	}
	rep := prof.Snapshot()
	rep.WallSeconds = res.Elapsed.Seconds()
	allocBytes := obs.HeapAllocBytes() - alloc0

	m := map[string]float64{
		"wall_seconds":         res.Elapsed.Seconds(),
		"alloc_bytes":          float64(allocBytes),
		"optimizer_calls":      float64(res.OptimizerCalls),
		"iterations":           float64(res.Iterations),
		"improvement_pct":      res.ImprovementPct(),
		"quality_gap_pct":      qualityGap(res),
		"profile_coverage_pct": rep.CoveragePct(),
		"frontier_points":      float64(len(res.Frontier)),
	}
	addCalibration(m, res.Explain)
	return m, res, nil
}

// runOnlineDrift replays a two-phase workload through the service: a
// cold retune on the first half of the TPC-H batch, then a drifted
// second half and a warm retune that should reuse cached fragments.
func runOnlineDrift() (map[string]float64, error) {
	db := datagen.TPCH(scaleFactor)
	sqls := workloads.TPCH22SQL()
	if len(sqls) < 16 {
		return nil, fmt.Errorf("TPC-H batch too small: %d statements", len(sqls))
	}
	phaseA, phaseB := sqls[:8], sqls[4:16] // overlap: half the warm window is repeat work

	// Budget from the phase-A optimum so both retunes must relax.
	wA, err := workloads.FromStatements("drift-a", db.Name, phaseA)
	if err != nil {
		return nil, err
	}
	tuning := core.Options{NoViews: true, MaxIterations: maxIterations, Parallelism: 1}
	if tuning.SpaceBudget, err = budgetFor(db, wA, tuning, 2); err != nil {
		return nil, err
	}

	svc, err := service.New(service.Options{
		DB:     db,
		Tuning: tuning,
		// Self-monitoring rides the scenario: a quiescent (one-hour
		// interval) sampler the scenario ticks by hand at fixed instants,
		// plus one synthetic rule that must fire once retunes complete.
		Monitor: service.MonitorOptions{
			HistoryInterval: time.Hour,
			Rules: []obs.AlertRule{{
				Name:     "retune-completed",
				Metric:   "tuner_retunes",
				Kind:     obs.AlertKindThreshold,
				Op:       ">=",
				Value:    1,
				Severity: obs.SeverityInfo,
				Summary:  "at least one retune completed",
			}},
		},
	})
	if err != nil {
		return nil, err
	}
	defer svc.Close()

	alloc0 := obs.HeapAllocBytes()
	t0 := time.Now()
	svc.Ingest(phaseA)
	if _, err := svc.Retune(); err != nil {
		return nil, fmt.Errorf("cold retune: %w", err)
	}
	svc.Ingest(phaseB)
	svc.CheckDrift()
	rec, err := svc.Retune()
	if err != nil {
		return nil, fmt.Errorf("warm retune: %w", err)
	}
	wall := time.Since(t0)

	// Tick the monitor at fixed instants so its counters are
	// deterministic: two samples straddle the completed retunes and the
	// synthetic rule must be firing after the second evaluation.
	monT := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 2; i++ {
		now := monT.Add(time.Duration(i) * 10 * time.Second)
		svc.History().Sample(now)
		svc.Alerts().Evaluate(now)
	}
	alerts := svc.Alerts().Status()

	sm := svc.MetricsSnapshot()
	rep := svc.Profile()
	m := map[string]float64{
		"wall_seconds":         wall.Seconds(),
		"alloc_bytes":          float64(obs.HeapAllocBytes() - alloc0),
		"optimizer_calls":      float64(sm.TuneOptimizerCalls),
		"improvement_pct":      rec.ImprovementPct,
		"profile_coverage_pct": rep.CoveragePct(),
		"recorded_sessions":    float64(sm.RecordedSessions),
		"workload_signatures":  float64(sm.WorkloadSignatures),
		"topk_weight_share":    sm.TopKWeightShare,
		"history_series":       float64(svc.History().SeriesCount()),
		"alerts_fired":         float64(alerts.Firing),
		"alert_transitions":    float64(len(alerts.Transitions)),
	}
	// The warm retune's frontier, read back from the flight recorder —
	// proves recording survives the full service path, not just core.
	if sums := svc.Sessions(); len(sums) > 0 {
		if last := svc.Session(sums[len(sums)-1].ID); last != nil {
			m["frontier_points"] = float64(len(last.Frontier))
		}
	}
	addCalibration(m, svc.Explain())
	return m, nil
}

// runFleetThroughput registers three tenants with identical catalogs
// and overlapping statement shapes in one fleet registry, retunes each
// through the shared worker pool, and asserts the multi-tenant
// acceptance criterion: cross-tenant shared-cache hits are non-zero
// AND every tenant's recommendation is identical to what an isolated
// single-tenant process computes for the same workload. The record
// carries the fleet's total optimizer calls — the metric cache sharing
// exists to reduce — and the shared-hit count the gate lower-bounds.
func runFleetThroughput() (map[string]float64, error) {
	const tenants = 3
	db := datagen.TPCH(scaleFactor)
	sqls := workloads.TPCH22SQL()
	if len(sqls) < 8+tenants {
		return nil, fmt.Errorf("TPC-H batch too small: %d statements", len(sqls))
	}
	// Eight shapes shared by every tenant plus one tenant-specific shape
	// each, so reuse is real but no two windows are identical.
	shared := sqls[:8]
	workloadFor := func(i int) []string {
		return append(append([]string{}, shared...), sqls[8+i])
	}

	// Budget from the shared-shape optimum so every retune must relax.
	wS, err := workloads.FromStatements("fleet-shared", db.Name, shared)
	if err != nil {
		return nil, err
	}
	tuning := core.Options{NoViews: true, MaxIterations: maxIterations, Parallelism: 1}
	if tuning.SpaceBudget, err = budgetFor(db, wS, tuning, 2); err != nil {
		return nil, err
	}

	reg, err := fleet.New(fleet.Options{
		Workers:  2,
		Catalog:  datagen.ByName,
		Defaults: service.Options{Tuning: tuning},
	})
	if err != nil {
		return nil, err
	}
	defer reg.Close()

	alloc0 := obs.HeapAllocBytes()
	t0 := time.Now()
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("tenant-%d", i)
		if _, err := reg.Add(fleet.TenantSpec{ID: id, Database: "tpch", ScaleFactor: scaleFactor}); err != nil {
			return nil, err
		}
		if res := reg.Get(id).Service.Ingest(workloadFor(i)); res.Rejected != 0 {
			return nil, fmt.Errorf("%s: %d statements rejected", id, res.Rejected)
		}
	}
	fleetRecs := make([]*service.Recommendation, tenants)
	for i := 0; i < tenants; i++ {
		id := fmt.Sprintf("tenant-%d", i)
		rec, err := reg.Retune(id, "manual")
		if err != nil {
			return nil, fmt.Errorf("%s retune: %w", id, err)
		}
		fleetRecs[i] = rec
	}
	wall := time.Since(t0)
	allocBytes := obs.HeapAllocBytes() - alloc0

	var calls, sessions int64
	var improvement float64
	for i := 0; i < tenants; i++ {
		sm := reg.Get(fmt.Sprintf("tenant-%d", i)).Service.MetricsSnapshot()
		calls += sm.TuneOptimizerCalls
		sessions += sm.RecordedSessions
		improvement += fleetRecs[i].ImprovementPct
	}
	stats := reg.FragmentCache().Stats()
	if stats.SharedHits == 0 {
		return nil, fmt.Errorf("no cross-tenant shared-cache hits across %d tenants with overlapping shapes", tenants)
	}

	// Parity: an isolated single-tenant service over the same catalog and
	// workload must produce the same recommendation (outside the timed
	// window — the record measures the fleet, not the reference runs).
	for i := 0; i < tenants; i++ {
		solo, err := service.New(service.Options{DB: datagen.TPCH(scaleFactor), Tuning: tuning})
		if err != nil {
			return nil, err
		}
		solo.Ingest(workloadFor(i))
		soloRec, err := solo.Retune()
		solo.Close()
		if err != nil {
			return nil, fmt.Errorf("solo retune %d: %w", i, err)
		}
		if soloRec.DDL != fleetRecs[i].DDL || soloRec.Cost != fleetRecs[i].Cost {
			return nil, fmt.Errorf("tenant-%d: fleet recommendation diverged from single-tenant run (cost %v vs %v)",
				i, fleetRecs[i].Cost, soloRec.Cost)
		}
	}

	return map[string]float64{
		"wall_seconds":      wall.Seconds(),
		"alloc_bytes":       float64(allocBytes),
		"optimizer_calls":   float64(calls),
		"improvement_pct":   improvement / tenants,
		"recorded_sessions": float64(sessions),
		"fleet_tenants":     tenants,
		"shared_cache_hits": float64(stats.SharedHits),
	}, nil
}

// qualityGap is the distance from the unconstrained optimum, in
// percent of the optimal cost.
func qualityGap(res *core.Result) float64 {
	if res.Optimal == nil || res.Best == nil || res.Optimal.Cost <= 0 {
		return 0
	}
	return 100 * (res.Best.Cost - res.Optimal.Cost) / res.Optimal.Cost
}

// addCalibration records the calibration summary of the decision log,
// when the session produced one.
func addCalibration(m map[string]float64, rep *core.ExplainReport) {
	if rep == nil || rep.Calibration == nil {
		return
	}
	cal := rep.Calibration
	m["calib_samples"] = float64(cal.Overall.Samples)
	m["mean_tightness"] = cal.Overall.MeanRatio
	m["rank_correlation"] = cal.Overall.RankCorrelation
	m["bound_violations"] = float64(cal.Overall.BoundViolations)
	m["plans_reused_pct"] = 100 * cal.Economy.ReuseRatio()
}
