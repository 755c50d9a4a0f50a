package obs

// TunerMetrics bundles the Prometheus metrics describing the relaxation
// search. The search-internal metrics are fed from trace events via
// Sink; the session-level ones (optimizer calls, retune duration) are
// recorded directly by the caller that owns the tuning session.
type TunerMetrics struct {
	// OptimizerCalls counts what-if optimizer invocations across all
	// tuning sessions (tuner_optimizer_calls_total).
	OptimizerCalls *Counter
	// PhaseOptimizerCalls attributes optimizer calls to search phases
	// (initial/optimal/warm-start/search), fed from span-end events.
	PhaseOptimizerCalls *CounterVec
	// RetuneDuration is the wall-clock distribution of tuning sessions.
	RetuneDuration *Histogram
	// BoundTightness is realizedΔT/estimatedΔT per accepted relaxation
	// step: the §3.3.2 estimate is an upper bound, so samples near 1
	// mean the bound is tight and the penalty ranking trustworthy.
	BoundTightness *Histogram
	// PhaseDuration is the per-phase latency distribution
	// (tuner_phase_duration_seconds), fed by a Profiler observer — see
	// Profiler.SetObserver.
	PhaseDuration *HistogramVec
	// PhaseAllocBytes attributes heap allocation to tuning phases
	// (tuner_phase_alloc_bytes_total), fed by a Profiler alloc observer
	// — see Profiler.SetAllocObserver. Only phases profiled with
	// StartAlloc report; the what-if hot path is allocation-disciplined,
	// so a phase's series creeping up is an alertable regression.
	PhaseAllocBytes *CounterVec

	Iterations       *Counter
	Evaluations      *Counter
	ShortcutPrunes   *Counter
	DuplicateSkips   *Counter
	SkylinePruned    *Counter
	CandidatesRanked *Counter
	CacheHits        *Counter
	CacheMisses      *Counter

	// Flight-recorder live series, fed from evaluation events:
	// FrontierSpace is the size of the configuration the search last
	// visited, BudgetGap is how far that configuration sits above the
	// space budget (negative once it fits), and BoundViolations counts
	// accepted steps whose realized ΔT exceeded the §3.3.2 upper bound —
	// the alertable form of the calibration report.
	FrontierSpace   *Gauge
	BudgetGap       *Gauge
	BoundViolations *Counter

	// Ground-truth replay series, recorded by the caller that ran the
	// replay (the service retune hook or an explicit /calibration
	// trigger): replay wall time, the measured baseline/recommended
	// speedup, Spearman's ρ between estimated cost and measured wall
	// time across replayed configs, and executor rows scanned.
	ReplayDuration  *Histogram
	ReplaySpeedup   *Gauge
	RankCorrelation *Gauge
	ReplayRows      *Counter
}

// Bucket boundaries of the tuner metric family's four histograms.
var (
	DefaultRetuneBuckets    = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}
	DefaultTightnessBuckets = []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1, 1.1, 1.25, 1.5, 2, 5}
	// DefaultPhaseBuckets covers 10µs .. ~40s geometrically: phase
	// latencies range from per-candidate penalty estimation (µs) to
	// whole search loops (tens of seconds).
	DefaultPhaseBuckets = ExpBuckets(1e-5, 4, 12)
	// DefaultReplayBuckets covers 1ms .. ~1min: a replay materializes
	// data, registers indexes, and runs the workload several times.
	DefaultReplayBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
)

// NewTunerMetrics registers the tuner metric family on reg.
func NewTunerMetrics(reg *Registry) *TunerMetrics {
	return &TunerMetrics{
		OptimizerCalls: reg.NewCounter("tuner_optimizer_calls_total",
			"What-if optimizer calls made by tuning sessions."),
		PhaseOptimizerCalls: reg.NewCounterVec("tuner_phase_optimizer_calls_total",
			"Optimizer calls attributed to each search phase.", "phase"),
		RetuneDuration: reg.NewHistogram("tuner_retune_duration_seconds",
			"Wall-clock duration of tuning sessions.",
			DefaultRetuneBuckets),
		BoundTightness: reg.NewHistogram("tuner_penalty_bound_tightness",
			"Realized ΔT over estimated ΔT bound per accepted relaxation step (≤1 means the §3.3.2 bound held).",
			DefaultTightnessBuckets),
		PhaseDuration: reg.NewHistogramVec("tuner_phase_duration_seconds",
			"Wall-clock distribution of tuning phases (fed by the phase profiler).", "phase",
			DefaultPhaseBuckets),
		PhaseAllocBytes: reg.NewCounterVec("tuner_phase_alloc_bytes_total",
			"Heap bytes allocated in each tuning phase (fed by the phase profiler).", "phase"),
		Iterations: reg.NewCounter("tuner_search_iterations_total",
			"Relaxation search loop iterations."),
		Evaluations: reg.NewCounter("tuner_search_evaluations_total",
			"Configuration evaluations completed during search."),
		ShortcutPrunes: reg.NewCounter("tuner_search_shortcut_prunes_total",
			"Evaluations aborted by §3.5 shortcut pruning."),
		DuplicateSkips: reg.NewCounter("tuner_search_duplicate_skips_total",
			"Iterations skipped because the configuration fingerprint was already seen."),
		SkylinePruned: reg.NewCounter("tuner_skyline_pruned_total",
			"Transformation candidates pruned by the §3.6 skyline filter."),
		CandidatesRanked: reg.NewCounter("tuner_candidates_ranked_total",
			"Transformation candidates that survived ranking."),
		CacheHits: reg.NewCounter("tuner_fragment_cache_hits_total",
			"Per-statement optimal-fragment cache hits."),
		CacheMisses: reg.NewCounter("tuner_fragment_cache_misses_total",
			"Per-statement optimal-fragment cache misses."),
		FrontierSpace: reg.NewGauge("tuner_frontier_space_bytes",
			"Size of the configuration the relaxation search last visited."),
		BudgetGap: reg.NewGauge("tuner_budget_gap_bytes",
			"How far the last-visited configuration sits above the space budget (negative once it fits)."),
		BoundViolations: reg.NewCounter("tuner_bound_violations_total",
			"Accepted relaxation steps whose realized ΔT exceeded the §3.3.2 upper bound."),
		ReplayDuration: reg.NewHistogram("tuner_replay_duration_seconds",
			"Wall-clock duration of ground-truth replay runs (materialize + execute + score).",
			DefaultReplayBuckets),
		ReplaySpeedup: reg.NewGauge("tuner_replay_speedup_ratio",
			"Measured baseline/recommended wall-time ratio from the last ground-truth replay."),
		RankCorrelation: reg.NewGauge("tuner_costmodel_rank_correlation",
			"Spearman's ρ between estimated workload cost and measured wall time across replayed configurations."),
		ReplayRows: reg.NewCounter("tuner_replay_rows_scanned_total",
			"Executor rows scanned by ground-truth replay runs."),
	}
}

// ObserveReplay records a ground-truth replay's outcome on the replay
// series. Nil-safe on both receiver and report.
func (m *TunerMetrics) ObserveReplay(gt *GroundTruthReport) {
	if m == nil || gt == nil {
		return
	}
	m.ReplayDuration.Observe(float64(gt.DurationNanos) / 1e9)
	m.ReplaySpeedup.Set(gt.SpeedupMeasured)
	m.RankCorrelation.Set(gt.RankCorrelation)
	var rows int64
	for i := range gt.Configs {
		rows += gt.Configs[i].RowsScanned
	}
	m.ReplayRows.Add(float64(rows))
}

// Sink returns a trace sink that keeps the search-internal metrics
// current. Install it (possibly fanned out with a JSONL sink) as the
// tuning session's tracer sink.
func (m *TunerMetrics) Sink() Sink { return &metricsSink{m: m} }

type metricsSink struct{ m *TunerMetrics }

func (s *metricsSink) Emit(e Event) {
	m := s.m
	switch e.Type {
	case EvIteration:
		m.Iterations.Inc()
	case EvSpanEnd:
		// Attribute phase-level optimizer calls; the "tune" span is the
		// sum of its children and would double-count.
		if f, _ := e.payload().(F); e.Phase != "" && e.Phase != "tune" {
			if calls := fieldFloat(f, "optimizer_calls"); calls > 0 {
				m.PhaseOptimizerCalls.Add(e.Phase, calls)
			}
		}
	}
	switch p := e.typed().(type) {
	case *Candidates:
		m.CandidatesRanked.Add(float64(p.Survivors))
		m.SkylinePruned.Add(float64(p.SkylinePruned))
	case *Eval:
		m.Evaluations.Inc()
		m.FrontierSpace.Set(float64(p.Size))
		if p.Budgeted {
			m.BudgetGap.Set(float64(p.BudgetGap))
		}
		if r, rated, violated := rateBound(p.EstDT, p.RealizedDT); rated {
			m.BoundTightness.Observe(r)
			if violated {
				m.BoundViolations.Inc()
			}
		}
	case *Skip:
		switch p.Reason {
		case "shortcut":
			m.ShortcutPrunes.Inc()
		case "duplicate":
			m.DuplicateSkips.Inc()
		}
	case *Cache:
		if p.Hit {
			m.CacheHits.Inc()
		} else {
			m.CacheMisses.Inc()
		}
	}
}

func (s *metricsSink) Close() error { return nil }

// fieldFloat reads a numeric field regardless of the concrete type the
// instrumentation (or a JSON round-trip) stored.
func fieldFloat(f F, key string) float64 {
	switch v := f[key].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	case int64:
		return float64(v)
	}
	return 0
}
