// Package tuner is the public API of the relaxation-based physical
// design tuner, a from-scratch reproduction of Bruno & Chaudhuri,
// "Automatic Physical Database Tuning: A Relaxation-based Approach"
// (SIGMOD 2005).
//
// A tuning session takes a database (schema + statistics), a workload
// (SQL text or generated), and a storage budget, and recommends a set of
// indexes and materialized views:
//
//	db := tuner.TPCH(0.01)
//	w, _ := tuner.TPCH22Workload()
//	res, _ := tuner.Tune(db, w, tuner.Options{SpaceBudget: 256 << 20})
//	fmt.Println(res.ImprovementPct())
//
// The package re-exports the building blocks (catalog construction,
// workload parsing and generation, configurations, and the bottom-up
// baseline advisor) so downstream users can compose their own
// experiments.
package tuner

import (
	"io"
	"net/http"

	"repro/internal/baseline"
	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/replay"
	"repro/internal/workloads"
)

// Core types, re-exported.
type (
	// Database is a catalog database: tables, columns, statistics.
	Database = catalog.Database
	// Table is one base table.
	Table = catalog.Table
	// Column is one table column with statistics.
	Column = catalog.Column
	// Workload is a weighted set of SQL statements.
	Workload = workloads.Workload
	// Query is one workload statement.
	Query = workloads.Query
	// Configuration is a set of indexes and materialized views.
	Configuration = physical.Configuration
	// Index is a B-tree index (keys + suffix columns).
	Index = physical.Index
	// View is a materialized view definition (the paper's 6-tuple).
	View = physical.View
	// Options configure the relaxation-based tuner.
	Options = core.Options
	// Result is the relaxation tuner's outcome.
	Result = core.Result
	// EvaluatedConfig couples a configuration with its evaluated cost.
	EvaluatedConfig = core.EvaluatedConfig
	// FrontierPoint is one (space, cost) observation of the search.
	FrontierPoint = core.FrontierPoint
	// BaselineOptions configure the bottom-up (CTT-style) advisor.
	BaselineOptions = baseline.Options
	// BaselineResult is the bottom-up advisor's outcome.
	BaselineResult = baseline.Result
	// GenOptions parameterize random workload generation.
	GenOptions = workloads.GenOptions
	// SignatureGroup aggregates a workload's statements under one
	// canonical (S,N,O,A) signature (see AttributeSignatures).
	SignatureGroup = workloads.SignatureGroup
)

// TPCH builds the TPC-H-style synthetic database at the given scale
// factor (1.0 ≈ the standard 6M-lineitem scale).
func TPCH(sf float64) *Database { return datagen.TPCH(sf) }

// DS1 builds the star-schema decision-support database.
func DS1(sf float64) *Database { return datagen.DS1(sf) }

// Bench builds the generic multi-table benchmark database.
func Bench(sf float64) *Database { return datagen.Bench(sf) }

// BaseConfiguration returns the constraint-enforcing indexes every
// configuration must contain for db.
func BaseConfiguration(db *Database) *Configuration { return datagen.BaseConfiguration(db) }

// ParseWorkload parses a semicolon-separated SQL script into a workload.
func ParseWorkload(name, database, script string) (*Workload, error) {
	return workloads.Parse(name, database, script)
}

// WorkloadFromStatements builds a workload from individual SQL strings.
func WorkloadFromStatements(name, database string, sqls []string) (*Workload, error) {
	return workloads.FromStatements(name, database, sqls)
}

// GenerateWorkload builds a random workload over db.
func GenerateWorkload(db *Database, opts GenOptions) (*Workload, error) {
	return workloads.Generate(db, opts)
}

// TPCH22Workload returns the 22-query TPC-H-style batch.
func TPCH22Workload() (*Workload, error) { return workloads.TPCH22() }

// AttributeSignatures groups w's statements by canonical (S,N,O,A)
// signature, heaviest group first. costs, when non-nil, must align with
// w.Queries (per-statement unweighted cost); demanded, when non-nil,
// maps query IDs to the structure IDs their plans demanded.
func AttributeSignatures(w *Workload, costs []float64, demanded map[string][]string) []SignatureGroup {
	return workloads.AttributeSignatures(w, costs, demanded)
}

// Session is a bound tuning session: a workload fixed against a
// database, exposing evaluation and the instrumented-optimizer
// primitives (optimal configuration, request counts) in addition to
// Tune. Sessions are safe for concurrent use; calls are serialized
// internally.
type Session = core.Tuner

// RequestCache memoizes per-statement optimal configuration fragments
// across sessions, so repeat statements cost zero extra optimizer
// calls. Share one cache between sessions via Options.Cache. Safe for
// concurrent use.
type RequestCache = core.RequestCache

// NewRequestCache returns an empty cross-session fragment cache.
func NewRequestCache() *RequestCache { return core.NewRequestCache() }

// NewSession binds a workload against a database and returns the tuning
// session.
func NewSession(db *Database, w *Workload, opts Options) (*Session, error) {
	return core.NewTuner(db, w, opts)
}

// Tune runs the relaxation-based tuner end to end.
func Tune(db *Database, w *Workload, opts Options) (*Result, error) {
	t, err := core.NewTuner(db, w, opts)
	if err != nil {
		return nil, err
	}
	return t.Tune()
}

// TuneBottomUp runs the CTT-style bottom-up advisor (the paper's
// comparison baseline) over the same machinery.
func TuneBottomUp(db *Database, w *Workload, opts BaselineOptions) (*BaselineResult, error) {
	t, err := core.NewTuner(db, w, core.Options{NoViews: opts.NoViews})
	if err != nil {
		return nil, err
	}
	return baseline.Tune(t, opts)
}

// Improvement computes the paper's quality metric:
// 100 × (1 − cost(recommended)/cost(initial)).
func Improvement(initial, recommended float64) float64 {
	return core.Improvement(initial, recommended)
}

// Report is the serializable summary of a tuning session.
type Report = core.Report

// WhatIfResult is the outcome of evaluating a user-supplied configuration.
type WhatIfResult = core.WhatIfResult

// ConfigurationDDL renders a configuration as an executable CREATE
// INDEX / CREATE VIEW script.
func ConfigurationDDL(c *Configuration) string { return physical.ConfigurationDDL(c) }

// IndexDDL renders one index as a CREATE INDEX statement.
func IndexDDL(ix *Index) string { return physical.IndexDDL(ix) }

// MigrationDDL renders the CREATE/DROP script turning configuration
// `from` into `to` (required constraint indexes are never dropped).
func MigrationDDL(from, to *Configuration) string { return physical.MigrationDDL(from, to) }

// CompressWorkload merges duplicate statements into weighted entries.
func CompressWorkload(w *Workload) *Workload { return workloads.Compress(w) }

// Observability types, re-exported. Set Options.Trace to a Tracer to
// receive span/event telemetry from a tuning session; Result.Explain
// carries the per-structure decision log.
type (
	// Tracer records spans and events from a tuning session. A nil
	// Tracer is a valid no-op.
	Tracer = obs.Tracer
	// TraceEvent is one recorded span or event.
	TraceEvent = obs.Event
	// TraceSink receives trace events (JSONL, in-memory, or metrics).
	TraceSink = obs.Sink
	// MemoryTraceSink buffers events in memory (tests, analysis).
	MemoryTraceSink = obs.MemorySink
	// ExplainReport is the per-structure decision log of a session.
	ExplainReport = core.ExplainReport
	// StructureDecision explains the fate of one index or view.
	StructureDecision = core.StructureDecision
	// DecisionEvent is one lineage transformation that touched a structure.
	DecisionEvent = core.DecisionEvent
	// MetricsRegistry is a dependency-free Prometheus text registry.
	MetricsRegistry = obs.Registry
	// TunerMetrics is the Prometheus metric family describing the search.
	TunerMetrics = obs.TunerMetrics
	// Profiler aggregates per-phase wall/allocation/counter profiles of
	// a tuning session; set Options.Profile to enable. A nil Profiler is
	// a valid no-op.
	Profiler = obs.Profiler
	// ProfileReport is a profiler snapshot (per-phase p50/p95/p99).
	ProfileReport = obs.ProfileReport
	// PhaseProfile is one phase's aggregated profile.
	PhaseProfile = obs.PhaseProfile
	// CalibrationReport scores the §3.3.2 ΔT bounds against realized
	// costs per transformation kind; attached to Result.Explain.
	CalibrationReport = obs.CalibrationReport
	// KindCalibration is one transformation kind's calibration score.
	KindCalibration = obs.KindCalibration
	// CalibSample is one est-vs-realized ΔT pair.
	CalibSample = obs.CalibSample
	// WhatIfEconomy aggregates a session's optimizer-call economy.
	WhatIfEconomy = obs.WhatIfEconomy

	// Progress is a TraceSink that folds the search's events into live
	// per-step progress and fans it out to subscribers; install it on the
	// session's tracer to watch a session as it runs.
	Progress = obs.Progress
	// ProgressEvent is one live frontier observation of the search.
	ProgressEvent = obs.ProgressEvent
	// ProgressSubscription is one subscriber's view of a Progress stream.
	ProgressSubscription = obs.ProgressSubscription
	// Recorder is the bounded, optionally JSONL-persisted session
	// history store (the flight recorder).
	Recorder = obs.Recorder
	// SessionRecord is one recorded tuning session.
	SessionRecord = obs.SessionRecord
	// SessionSummary is the list-view projection of a SessionRecord.
	SessionSummary = obs.SessionSummary
	// SessionDiff is the structural delta between two recorded sessions.
	SessionDiff = obs.SessionDiff
	// StructureDelta is one structure's fate within a SessionDiff.
	StructureDelta = obs.StructureDelta
	// FrontierSample is the persisted form of a FrontierPoint.
	FrontierSample = obs.FrontierSample
)

// NewTracer builds a tracer over sink (nil sink = disabled tracer).
func NewTracer(sink TraceSink) *Tracer { return obs.NewTracer(sink) }

// NewJSONLTraceSink streams events to w as JSON lines; Close flushes.
func NewJSONLTraceSink(w io.Writer) TraceSink { return obs.NewJSONLSink(w) }

// NewMemoryTraceSink buffers events in memory.
func NewMemoryTraceSink() *MemoryTraceSink { return obs.NewMemorySink() }

// MultiTraceSink fans events out to several sinks (nils are skipped).
func MultiTraceSink(sinks ...TraceSink) TraceSink { return obs.MultiSink(sinks...) }

// NewMetricsRegistry returns an empty Prometheus text registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTunerMetrics registers the tuner metric family on reg; feed it by
// installing NewTracer(m.Sink()) as the session's Options.Trace.
func NewTunerMetrics(reg *MetricsRegistry) *TunerMetrics { return obs.NewTunerMetrics(reg) }

// NewProfiler returns an empty phase profiler; set it as
// Options.Profile and call Snapshot after tuning.
func NewProfiler() *Profiler { return obs.NewProfiler() }

// NewProgress returns an empty live-progress reporter; install it as
// (one of) the sinks of Options.Trace — NewTracer(progress) — and
// Subscribe to watch the search frontier unfold.
func NewProgress() *Progress { return obs.NewProgress() }

// NewRecorder opens (or creates) a session flight recorder. path == ""
// keeps the history in memory; limit <= 0 keeps the newest 256 sessions.
func NewRecorder(path string, limit int) (*Recorder, error) {
	return obs.NewRecorder(path, limit)
}

// DiffSessions structurally compares two recorded sessions: structures
// added/removed/changed plus aggregate cost/space/budget deltas.
func DiffSessions(from, to *SessionRecord) *SessionDiff { return obs.DiffSessions(from, to) }

// Calibrate scores est-vs-realized ΔT pairs (Result.CalibSamples) into
// a calibration report. Tune already attaches one to Result.Explain;
// this entry point serves custom aggregation windows.
func Calibrate(samples []CalibSample, economy WhatIfEconomy) *CalibrationReport {
	return obs.Calibrate(samples, economy)
}

// Ground-truth replay, re-exported. A replay materializes the
// recommended configuration's structures in the in-repo storage engine,
// executes the workload under baseline, sampled intermediate, and
// recommended configurations, and scores the optimizer's estimates
// against measured wall time (speedup, rank correlation, per-kind
// tightness).
type (
	// ExecStore holds materialized table data and secondary indexes for
	// execution-backed replay.
	ExecStore = exec.Store
	// ExecStats counts the work one executed statement performed.
	ExecStats = exec.ExecStats
	// ReplaySource lazily builds a replay substrate (service option).
	ReplaySource = replay.Source
	// ReplayOptions bound a replay run (repetitions, sampled lineage
	// steps, statement cap).
	ReplayOptions = replay.Options
	// GroundTruthReport is a replay's measured outcome.
	GroundTruthReport = obs.GroundTruthReport
	// ReplayConfig is one measured configuration within a replay.
	ReplayConfig = obs.ReplayConfig
	// ReplayStatement is one statement's measurement under a config.
	ReplayStatement = obs.ReplayStatement
)

// TPCHData materializes the TPC-H-style database with row data, ready
// for execution-backed replay. Keep sf small (≤ 0.01): this is a
// sampled-scale measurement substrate, not a benchmark rig.
func TPCHData(sf float64) (*Database, *ExecStore) { return datagen.TPCHData(sf) }

// DS1Data materializes the star-schema database with row data.
func DS1Data(sf float64) (*Database, *ExecStore) { return datagen.DS1Data(sf) }

// BenchData materializes the generic benchmark database with row data.
func BenchData(sf float64) (*Database, *ExecStore) { return datagen.BenchData(sf) }

// Replay executes the workload against db/store under the tuning
// result's baseline, sampled lineage, and recommended configurations,
// returning measured ground truth. The store's secondary indexes are
// reset afterwards.
func Replay(db *Database, store *ExecStore, queries []*Query, res *Result, opts ReplayOptions) (*GroundTruthReport, error) {
	return replay.Run(db, store, queries, res, opts)
}

// CalibrateGrounded is Calibrate plus an execution-grounded sample
// stream: the replay's measured deltas are scored per transformation
// kind alongside the optimizer's own samples, and the report carries
// the ground-truth block.
func CalibrateGrounded(samples []CalibSample, economy WhatIfEconomy, gt *GroundTruthReport) *CalibrationReport {
	return obs.CalibrateGrounded(samples, economy, gt)
}

// Fleet types, re-exported. A fleet runs many online tuning services —
// tenants — inside one process: a registry tenants join and leave at
// runtime, a bounded worker pool sharding retune sessions across
// tenants, per-tenant ingestion quotas, and shared cross-tenant caches
// keyed by catalog fingerprint (so sharing never changes any tenant's
// recommendation). Served over HTTP by cmd/tunerd -fleet.
type (
	// Fleet is the tenant registry plus the shared tuning machinery.
	Fleet = fleet.Registry
	// FleetOptions configure a fleet (workers, catalog resolver,
	// per-tenant service defaults, default quota).
	FleetOptions = fleet.Options
	// TenantSpec declares one tenant (the POST /tenants payload).
	TenantSpec = fleet.TenantSpec
	// Tenant is one registered tenant and its running service.
	Tenant = fleet.Tenant
	// QuotaSpec is a per-tenant ingestion token bucket.
	QuotaSpec = fleet.QuotaSpec
	// FleetStatus is the fleet-wide status snapshot (GET /fleet).
	FleetStatus = fleet.Status
	// TenantStatus is one tenant's live status row.
	TenantStatus = fleet.TenantStatus
	// SharedCostCache is the bounded cross-tenant what-if cost LRU.
	SharedCostCache = fleet.SharedCostCache
)

// NewFleet starts an empty fleet registry.
func NewFleet(opts FleetOptions) (*Fleet, error) { return fleet.New(opts) }

// NewFleetHandler exposes a fleet over HTTP/JSON (tenant CRUD, scoped
// single-tenant APIs, fleet status, merged tenant-labeled metrics).
func NewFleetHandler(r *Fleet) http.Handler { return fleet.NewHandler(r) }

// NewSharedCostCache returns a bounded shared what-if cost cache
// (capacity <= 0 = default).
func NewSharedCostCache(capacity int) *SharedCostCache { return fleet.NewSharedCostCache(capacity) }
