package service

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Metrics holds the service's activity counters that neither the window
// nor the Prometheus registry keeps. All fields are updated atomically;
// Service.MetricsSnapshot loads them, with the window's and the
// registry's readings, into the /metrics payload.
type Metrics struct {
	ingestRequests      atomic.Int64
	driftOptimizerCalls atomic.Int64
	lastRetuneCalls     atomic.Int64
	lastRetuneMillis    atomic.Int64
	// retuneNanosTotal accumulates the wall time of every retune — the
	// outer clock the phase profile's coverage is computed against.
	retuneNanosTotal atomic.Int64
}

// retuneSeconds is the cumulative wall time spent in tuning sessions.
func (m *Metrics) retuneSeconds() float64 {
	return float64(m.retuneNanosTotal.Load()) / 1e9
}

// MetricsSnapshot is the JSON shape served by /metrics.
type MetricsSnapshot struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	IngestRequests     int64 `json:"ingest_requests"`
	StatementsIngested int64 `json:"statements_ingested"`
	ParseErrors        int64 `json:"parse_errors"`

	WindowObservations int64   `json:"window_observations"`
	WindowUnique       int64   `json:"window_unique"`
	WindowWeight       float64 `json:"window_weight"`
	WindowEvicted      int64   `json:"window_evicted"`
	// Eviction split: oldest-out (ring overflow) vs. whole-statement
	// drops (unique-cap overflow); WindowEvicted stays their sum.
	WindowEvictedOldest int64 `json:"window_evicted_oldest"`
	WindowEvictedUnique int64 `json:"window_evicted_unique"`
	// Per-kind split of the stream: SELECTs vs. data-modifying
	// statements, cumulative and currently in-window.
	ObservedSelects int64 `json:"observed_selects"`
	ObservedUpdates int64 `json:"observed_updates"`
	WindowSelects   int64 `json:"window_selects"`
	WindowUpdates   int64 `json:"window_updates"`

	// Signature-sketch introspection (all zero with the sketch disabled):
	// signatures tracked, counters reassigned at capacity, and the
	// fraction of the decayed stream weight the top-k counters cover.
	WorkloadSignatures int64   `json:"workload_signatures,omitempty"`
	SketchEvictions    int64   `json:"sketch_evictions,omitempty"`
	TopKWeightShare    float64 `json:"topk_weight_share,omitempty"`

	// DriftChecks/DriftEvents are totals across origins; the per-origin
	// split separates dashboard polling (http) from the background
	// checker and ingest-boundary checks (scheduler) that drive
	// auto-retune.
	DriftChecks          int64 `json:"drift_checks"`
	DriftEvents          int64 `json:"drift_events"`
	DriftChecksHTTP      int64 `json:"drift_checks_http,omitempty"`
	DriftChecksScheduler int64 `json:"drift_checks_scheduler,omitempty"`
	DriftEventsHTTP      int64 `json:"drift_events_http,omitempty"`
	DriftEventsScheduler int64 `json:"drift_events_scheduler,omitempty"`
	// DriftMoverShare is the fraction of the last drift assessment's
	// shape distance its reported movers explain (0 before any check).
	DriftMoverShare float64 `json:"drift_mover_share,omitempty"`

	Retunes     int64 `json:"retunes"`
	WarmRetunes int64 `json:"warm_retunes"`
	// GroundTruthReplays counts completed execution-backed replays
	// (retune hooks plus on-demand /calibration?ground_truth=1 runs).
	GroundTruthReplays int64 `json:"ground_truth_replays,omitempty"`

	TuneOptimizerCalls  int64 `json:"tune_optimizer_calls"`
	DriftOptimizerCalls int64 `json:"drift_optimizer_calls"`
	LastRetuneCalls     int64 `json:"last_retune_optimizer_calls"`
	LastRetuneMillis    int64 `json:"last_retune_millis"`
	// LastRetuneUnix is the Unix timestamp of the last successful retune
	// (0 before the first one).
	LastRetuneUnix int64 `json:"last_retune_unix"`
	// ParallelWorkers is the worker count the last retune's evaluation
	// engine ran with (0 before the first retune; 1 = serial).
	ParallelWorkers int64 `json:"parallel_workers,omitempty"`

	// Warm-start accounting from the shared request cache: calls invested
	// building cached fragments vs. calls avoided on cache hits.
	// CacheSharedHits counts hits on fragments another tenant stored
	// (always 0 when the cache is service-private).
	CacheEntries        int   `json:"cache_entries"`
	CacheHits           int64 `json:"cache_hits"`
	CacheSharedHits     int64 `json:"cache_shared_hits,omitempty"`
	OptimizerCallsSaved int64 `json:"optimizer_calls_saved"`
	OptimizerCallsSpent int64 `json:"optimizer_calls_spent"`

	// Flight-recorder state: sessions retained in the history store,
	// live /progress subscribers, and events dropped because a slow
	// subscriber's buffer was full.
	RecordedSessions    int64 `json:"recorded_sessions"`
	ProgressSubscribers int64 `json:"progress_subscribers,omitempty"`
	ProgressDropped     int64 `json:"progress_events_dropped,omitempty"`
}

// serviceGauges exports the service-level counters in the Prometheus
// registry. retunes, warmRetunes, lastRetuneUnix and parallelWorkers are
// set by each retune, and driftChecksVec and driftEventsVec by each drift
// check, and are the only copy of those values; the rest are refreshed
// from a MetricsSnapshot on each scrape (the tuner_* search metrics are
// event-driven and always current). The drift vectors split by origin:
// "http" covers explicit GET /drift polling, "scheduler" the background
// worker and ingest-boundary checks, so dashboard polling never inflates
// the counts the auto-retune path is judged by.
type serviceGauges struct {
	uptime           *obs.Gauge
	ingested         *obs.Gauge
	windowObs        *obs.Gauge
	windowUnique     *obs.Gauge
	windowByKind     *obs.GaugeVec
	retunes          *obs.Gauge
	warmRetunes      *obs.Gauge
	driftEvents      *obs.Gauge
	driftChecksVec   *obs.GaugeVec
	driftEventsVec   *obs.GaugeVec
	driftMoverShare  *obs.Gauge
	sketchSignatures *obs.Gauge
	sketchShare      *obs.Gauge
	sketchEvictions  *obs.Gauge
	cacheEntries     *obs.Gauge
	lastRetuneUnix   *obs.Gauge
	parallelWorkers  *obs.Gauge
	recordedSessions *obs.Gauge
	progressDropped  *obs.Gauge
}

func newServiceGauges(reg *obs.Registry) *serviceGauges {
	g := &serviceGauges{
		uptime:           reg.NewGauge("tuner_uptime_seconds", "Seconds since the service started."),
		ingested:         reg.NewGauge("tuner_statements_ingested", "Statements ingested since start."),
		windowObs:        reg.NewGauge("tuner_window_observations", "Statement observations in the sliding window."),
		windowUnique:     reg.NewGauge("tuner_window_unique", "Distinct statements in the sliding window."),
		windowByKind:     reg.NewGaugeVec("tuner_window_statements", "Observations in the sliding window by statement kind.", "kind"),
		retunes:          reg.NewGauge("tuner_retunes", "Completed tuning sessions."),
		warmRetunes:      reg.NewGauge("tuner_warm_retunes", "Tuning sessions that warm-started from the previous recommendation."),
		driftEvents:      reg.NewGauge("tuner_drift_events", "Drift detections since start (all origins)."),
		driftChecksVec:   reg.NewGaugeVec("tuner_drift_checks_origin", "Drift assessments since start, by origin (http = GET /drift polling, scheduler = background checker and ingest-boundary checks).", "origin"),
		driftEventsVec:   reg.NewGaugeVec("tuner_drift_events_origin", "Drift detections since start, by origin.", "origin"),
		driftMoverShare:  reg.NewGauge("tuner_drift_mover_share", "Fraction of the last drift assessment's shape distance explained by its reported movers."),
		sketchSignatures: reg.NewGauge("tuner_workload_signatures", "Statement signatures tracked by the window's top-k sketch."),
		sketchShare:      reg.NewGauge("tuner_workload_topk_weight_share", "Fraction of the decayed stream weight the top-k signature counters cover."),
		sketchEvictions:  reg.NewGauge("tuner_workload_sketch_evictions", "Cumulative signature-sketch counters reassigned at capacity (space-saving evictions)."),
		cacheEntries:     reg.NewGauge("tuner_fragment_cache_entries", "Entries in the per-statement optimal-fragment cache."),
		lastRetuneUnix:   reg.NewGauge("tuner_last_retune_unix", "Unix timestamp of the last successful retune (0 = none)."),
		parallelWorkers:  reg.NewGauge("tuner_parallel_workers", "Worker count of the last retune's parallel evaluation engine (1 = serial)."),
		recordedSessions: reg.NewGauge("tuner_recorded_sessions", "Tuning sessions retained by the flight recorder."),
		progressDropped:  reg.NewGauge("tuner_progress_events_dropped", "Live progress events dropped because a subscriber's buffer was full."),
	}
	// Both origins render from the start, as they did when every scrape
	// set them.
	for _, origin := range []string{driftOriginHTTP, driftOriginScheduler} {
		g.driftChecksVec.Set(origin, 0)
		g.driftEventsVec.Set(origin, 0)
	}
	return g
}

func (g *serviceGauges) update(snap MetricsSnapshot) {
	g.uptime.Set(snap.UptimeSeconds)
	g.ingested.Set(float64(snap.StatementsIngested))
	g.windowObs.Set(float64(snap.WindowObservations))
	g.windowUnique.Set(float64(snap.WindowUnique))
	g.windowByKind.Set("select", float64(snap.WindowSelects))
	g.windowByKind.Set("update", float64(snap.WindowUpdates))
	g.driftEvents.Set(float64(snap.DriftEvents))
	g.driftMoverShare.Set(snap.DriftMoverShare)
	g.sketchSignatures.Set(float64(snap.WorkloadSignatures))
	g.sketchShare.Set(snap.TopKWeightShare)
	g.sketchEvictions.Set(float64(snap.SketchEvictions))
	g.cacheEntries.Set(float64(snap.CacheEntries))
	g.recordedSessions.Set(float64(snap.RecordedSessions))
	g.progressDropped.Set(float64(snap.ProgressDropped))
}
