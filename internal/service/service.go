// Package service turns the batch relaxation tuner into a continuously
// consumable online tuning service: a streaming workload ingester (a
// sliding window with duplicate-statement compression and exponential
// decay), a drift detector that decides when retuning is worthwhile, and
// an incremental retuner that warm-starts relaxation from the previous
// recommendation while reusing cached per-statement optimal fragments, so
// repeat statements cost zero additional optimizer calls.
//
// The package is transport-agnostic; http.go exposes the HTTP/JSON
// surface served by cmd/tunerd.
package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/replay"
	"repro/internal/workloads"
)

// Options configure an online tuning service.
type Options struct {
	// DB is the catalog database tuned against (required).
	DB *catalog.Database
	// Tenant names the fleet tenant this service tunes for (empty
	// outside fleet deployments). It becomes the session-record tenant,
	// the request-cache origin (so cross-tenant shared hits are
	// attributable), and — when no Recorder is supplied — the session-ID
	// prefix, so N services in one process never mint colliding IDs.
	Tenant string
	// Tuning configures each retuning session (budget, iterations, ...).
	// Cache, CacheOrigin, and WarmStart are managed by the service and
	// overwritten.
	Tuning core.Options
	// Cache, when set, is the request cache retunes consult — pass one
	// shared core.RequestCache to every tenant's service so tenants with
	// identical catalogs and overlapping statement shapes reuse each
	// other's per-statement fragments. nil gives the service a private
	// cache (the single-tenant behavior).
	Cache *core.RequestCache
	// CostCache, when set, shares drift-probe what-if costs across
	// services: entries are keyed by (catalog fingerprint, configuration
	// fingerprint, statement), so only tenants in identical states reuse
	// them. nil keeps the probe costs service-local.
	CostCache CostCache
	// RetuneScheduler, when set, receives asynchronous retune requests
	// (drift-triggered or TriggerRetune) instead of the service's own
	// single-flight worker — the hook a fleet worker pool installs to
	// shard retunes across tenants with per-tenant serialization.
	RetuneScheduler func(trigger string)
	// Window configures the streaming ingester.
	Window workloads.WindowOptions
	// Drift configures the retune-worthwhile decision.
	Drift DriftOptions
	// DriftCheckInterval enables the background drift checker (0 = only
	// explicit CheckDrift calls and the ingest-count trigger below).
	DriftCheckInterval time.Duration
	// DriftCheckEvery additionally runs a drift check after every N
	// ingested statements (0 = disabled).
	DriftCheckEvery int
	// AutoRetune makes detected drift trigger an asynchronous retune.
	AutoRetune bool
	// Logf receives service log lines (nil = silent).
	Logf func(format string, args ...any)
	// Warnf receives alertable conditions — §3.3.2 calibration bound
	// violations and workload drift (nil = fall back to Logf).
	Warnf func(format string, args ...any)
	// Recorder is the session flight recorder retunes append to. nil
	// gives the service a private in-memory recorder (history is lost on
	// restart); pass a JSONL-backed obs.Recorder to persist it. The
	// service owns the recorder from then on and closes it on Close.
	Recorder *obs.Recorder
	// TraceSink, when set, receives the full span/event telemetry of
	// every tuning session (in addition to the Prometheus metrics the
	// service always derives from the same events).
	TraceSink obs.Sink
	// Replay, when set, enables ground-truth replays: Build materializes
	// the sampled-scale substrate (catalog + rows) on first use; the
	// result is cached for the service's lifetime. nil disables
	// GET /calibration?ground_truth=1 and ReplayEachRetune at zero cost.
	Replay *replay.Source
	// ReplayEachRetune runs a ground-truth replay after every successful
	// retune, attaching the measurements to the session record and the
	// calibration report. Requires Replay.
	ReplayEachRetune bool
	// Monitor configures self-monitoring: the metrics-history sampler
	// behind GET /metrics/history and the SLO alert engine behind
	// GET /alerts. Zero value = disabled at zero cost.
	Monitor MonitorOptions
}

// CostCache shares per-statement what-if costs between services. Keys
// already encode the catalog and configuration fingerprints, so any
// bounded map implementation is correct; internal/fleet provides a
// tenant-attributing LRU. Implementations must be safe for concurrent
// use.
type CostCache interface {
	// Get returns the cached cost for key, attributing the hit or miss
	// to origin.
	Get(key, origin string) (float64, bool)
	// Put stores the cost computed by origin for key.
	Put(key, origin string, cost float64)
}

// Recommendation is the service's current physical design advice.
type Recommendation struct {
	GeneratedAt    time.Time `json:"generated_at"`
	Statements     int       `json:"statements"`
	TotalWeight    float64   `json:"total_weight"`
	InitialCost    float64   `json:"initial_cost"`
	Cost           float64   `json:"cost"`
	ImprovementPct float64   `json:"improvement_pct"`
	SizeBytes      int64     `json:"size_bytes"`
	Indexes        []string  `json:"indexes"`
	Views          []string  `json:"views,omitempty"`
	DDL            string    `json:"ddl"`
	WarmStart      bool      `json:"warm_start"`
	OptimizerCalls int64     `json:"optimizer_calls"`
	Iterations     int       `json:"iterations"`
	ElapsedMillis  int64     `json:"elapsed_millis"`

	// Config is the recommended configuration itself (not serialized).
	Config *physical.Configuration `json:"-"`
}

// ErrEmptyWindow is returned by Retune when nothing has been ingested,
// and wrapped when none of the window's statements binds: either way
// there is nothing to tune.
var ErrEmptyWindow = errors.New("service: workload window is empty")

// Service is a running online tuning service. All methods are safe for
// concurrent use.
type Service struct {
	opts    Options
	db      *catalog.Database
	window  *workloads.SlidingWindow
	cache   *core.RequestCache
	metrics *Metrics
	started time.Time

	// Prometheus surface: the registry backs the text exposition of
	// /metrics. trace is every retune's one event stream; tunerMetrics,
	// progress and Options.TraceSink are its sinks, so the core package
	// knows about none of them.
	promReg      *obs.Registry
	tunerMetrics *obs.TunerMetrics
	promGauges   *serviceGauges
	trace        *obs.Tracer
	// profiler accumulates per-phase latency/allocation profiles across
	// every retune; GET /profile renders its snapshot and each
	// observation also feeds tunerMetrics.PhaseDuration.
	profiler *obs.Profiler
	// recorder is the session flight recorder (history + /sessions +
	// /diff); progress folds the trace stream into live per-step events
	// for /progress subscribers.
	recorder *obs.Recorder
	progress *obs.Progress
	// Self-monitoring (Options.Monitor): history samples the registry on
	// an interval, alerts evaluates SLO rules over it and persists the
	// transitions. Both nil when disabled — every use is nil-safe.
	history *obs.History
	alerts  *obs.AlertEngine

	// mu guards the recommendation state, drift baseline, and the
	// drift-probe optimizer + per-statement cost cache.
	mu        sync.Mutex
	rec       *Recommendation
	explain   *core.ExplainReport
	baseline  *Fingerprint
	costCache map[string]float64
	driftOpt  *optimizer.Optimizer
	// lastDrift is the most recent drift assessment (any origin);
	// pendingDrift is the drifted report that triggered the next "auto"
	// retune, consumed into its session record so the history says why
	// the session fired.
	lastDrift    *DriftReport
	pendingDrift *DriftReport
	// calibration is the last retune's report (with ground-truth block
	// attached once a replay ran); lastResult/lastSnap/lastSessionID keep
	// what an on-demand replay needs to score that retune.
	calibration   *obs.CalibrationReport
	lastResult    *core.Result
	lastSnap      *workloads.Workload
	lastSessionID string

	// replayMu serializes ground-truth replays and guards the lazily
	// built substrate.
	replayMu    sync.Mutex
	replayDB    *catalog.Database
	replayStore *exec.Store

	// tuneMu serializes tuning sessions (one retune at a time) and guards
	// bound: the last retune's bound statements by canonical SQL, replaced
	// wholesale by each retune, so the next one parses and binds only the
	// statements new since.
	tuneMu sync.Mutex
	bound  map[string]*optimizer.BoundQuery

	ctx      context.Context
	cancel   context.CancelFunc
	wg       sync.WaitGroup
	retuneCh chan struct{}

	closeOnce sync.Once
}

// New starts an online tuning service over opts.DB.
func New(opts Options) (*Service, error) {
	if opts.DB == nil {
		return nil, errors.New("service: Options.DB is required")
	}
	ctx, cancel := context.WithCancel(context.Background())
	recorder := opts.Recorder
	if recorder == nil {
		// Memory-only never errors. The tenant name becomes the ID
		// prefix so several services in one process (the fleet case)
		// never mint the same session ID.
		prefix := ""
		if opts.Tenant != "" {
			prefix = opts.Tenant + "-"
		}
		recorder, _ = obs.NewRecorderPrefix("", 0, prefix)
	}
	cache := opts.Cache
	if cache == nil {
		cache = core.NewRequestCache()
	}
	promReg := obs.NewRegistry()
	tm := obs.NewTunerMetrics(promReg)
	gauges := newServiceGauges(promReg)
	profiler := obs.NewProfiler()
	profiler.SetObserver(tm.PhaseDuration.Observe)
	profiler.SetAllocObserver(func(phase string, bytes uint64) {
		tm.PhaseAllocBytes.Add(phase, float64(bytes))
	})
	progress := obs.NewProgress()
	s := &Service{
		opts:         opts,
		db:           opts.DB,
		window:       workloads.NewSlidingWindow(opts.DB.Name, opts.Window),
		cache:        cache,
		metrics:      &Metrics{},
		started:      time.Now(),
		promReg:      promReg,
		tunerMetrics: tm,
		promGauges:   gauges,
		trace:        obs.NewTracer(obs.MultiSink(tm.Sink(), progress, opts.TraceSink)),
		profiler:     profiler,
		recorder:     recorder,
		progress:     progress,
		costCache:    map[string]float64{},
		driftOpt:     optimizer.New(opts.DB),
		ctx:          ctx,
		cancel:       cancel,
		retuneCh:     make(chan struct{}, 1),
	}
	if err := s.initMonitor(); err != nil {
		cancel()
		_ = recorder.Close()
		return nil, err
	}
	if opts.RetuneScheduler == nil {
		s.wg.Add(1)
		go s.retuneWorker()
	}
	if opts.DriftCheckInterval > 0 {
		s.wg.Add(1)
		go s.driftWorker()
	}
	if s.history != nil {
		s.wg.Add(1)
		go s.monitorWorker()
	}
	return s, nil
}

func (s *Service) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// warnf routes alertable conditions to Warnf, falling back to Logf.
func (s *Service) warnf(format string, args ...any) {
	if s.opts.Warnf != nil {
		s.opts.Warnf(format, args...)
		return
	}
	s.logf(format, args...)
}

// IngestResult summarizes one ingestion batch.
type IngestResult struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	// Window state after the batch.
	WindowObservations int `json:"window_observations"`
	WindowUnique       int `json:"window_unique"`
	// Drift carries the post-batch drift assessment when the batch
	// crossed a DriftCheckEvery boundary.
	Drift *DriftReport `json:"drift,omitempty"`
}

// Ingest feeds a batch of observed SQL statements into the window.
// Statements that fail to parse are counted and skipped; the rest are
// admitted.
func (s *Service) Ingest(sqls []string) IngestResult {
	s.metrics.ingestRequests.Add(1)
	res := IngestResult{}
	for _, sql := range sqls {
		if err := s.window.Observe(sql); err != nil {
			res.Rejected++
			continue
		}
		res.Accepted++
	}
	var ingested int64
	res.WindowObservations, res.WindowUnique, ingested = s.window.Size()
	if n := int64(s.opts.DriftCheckEvery); n > 0 && res.Accepted > 0 {
		if before := ingested - int64(len(sqls)); before/n != ingested/n {
			rep := s.checkDrift(driftOriginScheduler)
			res.Drift = &rep
		}
	}
	return res
}

// Recommendation returns the current recommendation, or nil before the
// first successful retune.
func (s *Service) Recommendation() *Recommendation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// Drift-check origins: explicit HTTP polling vs. the scheduler paths
// (background worker, ingest-count boundary) that drive auto-retune.
const (
	driftOriginHTTP      = "http"
	driftOriginScheduler = "scheduler"
)

// CheckDrift assesses whether the windowed workload has drifted from the
// last-tuned one; when it has and AutoRetune is set, an asynchronous
// retune is triggered. Checks through this exported entry point count as
// "http"-origin polling, so they never inflate the scheduler counters.
func (s *Service) CheckDrift() DriftReport {
	return s.checkDrift(driftOriginHTTP)
}

func (s *Service) checkDrift(origin string) DriftReport {
	s.promGauges.driftChecksVec.Add(origin, 1)
	snap := s.window.Snapshot()
	st := s.window.Stats()

	s.mu.Lock()
	baseline := s.baseline
	rec := s.rec
	s.mu.Unlock()

	cur := fingerprintOf(snap)
	if rec != nil {
		cur.CostPerWeight = s.windowCostPerWeight(snap, rec)
	}
	rep := assess(s.opts.Drift, baseline, cur, int64(st.InWindow))
	s.mu.Lock()
	s.lastDrift = &rep
	if rep.Drifted && s.opts.AutoRetune {
		s.pendingDrift = &rep
	}
	s.mu.Unlock()
	if rep.Drifted {
		s.promGauges.driftEventsVec.Add(origin, 1)
		s.warnf("service: drift detected: %s", rep.Reason)
		if s.opts.AutoRetune {
			s.TriggerRetune()
		}
	}
	return rep
}

// windowCostPerWeight prices the window under the current recommendation,
// reusing the per-statement costs recorded at retune time; only
// statements unseen since the last retune cost an optimizer call — and
// with a shared CostCache installed, even those are answered for free
// when another tenant in an identical (catalog, configuration) state
// already priced them.
func (s *Service) windowCostPerWeight(snap *workloads.Workload, rec *Recommendation) float64 {
	total := snap.TotalWeight()
	if total <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rec != rec {
		return 0 // a retune happened in between; skip the cost signal
	}
	shared := s.opts.CostCache
	sharedPrefix := ""
	if shared != nil {
		sharedPrefix = s.db.Fingerprint() + "|" + rec.Config.Fingerprint() + "|"
	}
	sum := 0.0
	for _, q := range snap.Queries {
		c, ok := s.costCache[q.SQL]
		if !ok && shared != nil {
			if v, hit := shared.Get(sharedPrefix+q.SQL, s.opts.Tenant); hit {
				c, ok = v, true
				s.costCache[q.SQL] = c
			}
		}
		if !ok {
			bound, err := core.BindQuery(s.db, q)
			if err != nil {
				continue
			}
			res, err := s.driftOpt.OptimizeFull(bound, rec.Config)
			if err != nil {
				continue
			}
			s.metrics.driftOptimizerCalls.Add(1)
			c = res.TotalCost()
			s.costCache[q.SQL] = c
			if shared != nil {
				shared.Put(sharedPrefix+q.SQL, s.opts.Tenant, c)
			}
		}
		sum += q.Weight * c
	}
	return sum / total
}

// TriggerRetune schedules an asynchronous retune; a retune already
// pending or running absorbs the trigger. With a RetuneScheduler
// installed (fleet mode) the request is handed to it instead — the
// pool owns queueing, priority, and per-tenant serialization.
func (s *Service) TriggerRetune() {
	if s.opts.RetuneScheduler != nil {
		s.opts.RetuneScheduler("auto")
		return
	}
	select {
	case s.retuneCh <- struct{}{}:
	default:
	}
}

// Retune tunes the current window synchronously and installs the result
// as the new recommendation. The first retune runs cold; later ones
// warm-start from the previous recommendation and reuse cached fragments
// for every statement already seen.
func (s *Service) Retune() (*Recommendation, error) {
	return s.retune("manual", 0, false)
}

// RetuneSession is the fully parameterized synchronous retune: the
// trigger lands in the session record, and overrideBudget applies budget
// to this session only (budget <= 0 = unconstrained); later retunes
// revert to the configured budget. External schedulers (the fleet worker
// pool) use this entry point so drift-triggered retunes record "auto"
// even though the pool, not the service's own worker, ran them.
func (s *Service) RetuneSession(trigger string, budget int64, overrideBudget bool) (*Recommendation, error) {
	return s.retune(trigger, budget, overrideBudget)
}

// tuneRecovered runs the session and turns a panic on its main line —
// the optimizer, the search, a sink of the event stream — into an
// error, so one tenant's bad statement fails one retune instead of
// ending the process for every tenant. (Panics on the session's worker
// goroutines never get here: core's fan-out already returns them as
// errors.) The tuner's own lock is released by Tune's deferred unlock
// as the panic unwinds; the tuner is discarded either way.
func tuneRecovered(t *core.Tuner) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("panic in tuning session: %v", r)
		}
	}()
	return t.Tune()
}

// tunedWorkload is snap cut down to the statements t tunes.
func tunedWorkload(snap *workloads.Workload, t *core.Tuner) *workloads.Workload {
	w := *snap
	w.Queries = make([]*workloads.Query, len(t.Queries))
	for i, tq := range t.Queries {
		w.Queries[i] = tq.Query
	}
	return &w
}

func (s *Service) retune(trigger string, budget int64, overrideBudget bool) (*Recommendation, error) {
	s.tuneMu.Lock()
	defer s.tuneMu.Unlock()

	snap := s.window.Snapshot()
	if len(snap.Queries) == 0 {
		return nil, ErrEmptyWindow
	}

	opts := s.opts.Tuning
	opts.Cache = s.cache
	opts.CacheOrigin = s.opts.Tenant
	opts.Trace = s.trace
	opts.Profile = s.profiler
	if overrideBudget {
		opts.SpaceBudget = budget
	}
	s.mu.Lock()
	prev := s.rec
	s.mu.Unlock()
	warm := prev != nil
	if warm {
		opts.WarmStart = prev.Config
	}

	sessionID := s.recorder.NewSessionID()
	s.trace.SetSession(sessionID)
	startedAt := time.Now()

	t, unbound := core.NewTunerSkipping(s.db, snap, opts, s.bound)
	if len(unbound) > 0 {
		if len(t.Queries) == 0 {
			return nil, fmt.Errorf("%w: none of its %d statements binds (%v)", ErrEmptyWindow, len(snap.Queries), unbound[0])
		}
		snap = tunedWorkload(snap, t)
		skipped := make([]string, len(unbound))
		for i, err := range unbound {
			skipped[i] = err.Error()
		}
		s.warnf("service: retune: skipping %d statement(s) that do not bind: %s", len(unbound), strings.Join(skipped, "; "))
	}
	res, err := tuneRecovered(t)
	if err != nil {
		return nil, fmt.Errorf("service: retune: %w", err)
	}
	s.bound = make(map[string]*optimizer.BoundQuery, len(t.Queries))
	for _, tq := range t.Queries {
		s.bound[tq.Query.SQL] = tq.Bound
	}

	rec := &Recommendation{
		GeneratedAt:    time.Now().UTC(),
		Statements:     len(snap.Queries),
		TotalWeight:    snap.TotalWeight(),
		InitialCost:    res.Initial.Cost,
		Cost:           res.Best.Cost,
		ImprovementPct: res.ImprovementPct(),
		SizeBytes:      res.Best.SizeBytes,
		DDL:            physical.ConfigurationDDL(res.Best.Config),
		WarmStart:      warm,
		OptimizerCalls: res.OptimizerCalls,
		Iterations:     res.Iterations,
		ElapsedMillis:  res.Elapsed.Milliseconds(),
		Config:         res.Best.Config,
	}
	for _, ix := range res.Best.Config.Indexes() {
		rec.Indexes = append(rec.Indexes, ix.ID())
	}
	for _, v := range res.Best.Config.Views() {
		rec.Views = append(rec.Views, v.Name+" := "+v.SQL())
	}

	session := buildSessionRecord(sessionID, s.opts.Tenant, trigger, startedAt, warm, t, snap, res, opts.SpaceBudget)
	// A drift-triggered session records the assessment that fired it —
	// the "why" /sessions and /diff surface. Any retune consumes the
	// pending report: after installing a new baseline it is stale.
	s.mu.Lock()
	pending := s.pendingDrift
	s.pendingDrift = nil
	s.mu.Unlock()
	if trigger == "auto" && pending != nil {
		session.Drift = driftDigest(pending)
	}
	s.groundTruthHook(res, snap, session)
	if err := s.recorder.Record(session); err != nil {
		s.warnf("service: flight recorder: %v", err)
	}
	if cal := session.Calibration; cal != nil && cal.BoundViolations > 0 {
		s.warnf("service: session %s: %d §3.3.2 ΔT bound violation(s) across %d samples (mean tightness %.3g) — penalty ranking may be misled",
			sessionID, cal.BoundViolations, cal.Samples, cal.MeanTightness)
	}

	g := s.promGauges
	g.retunes.Add(1)
	if warm {
		g.warmRetunes.Add(1)
	}
	g.lastRetuneUnix.Set(float64(time.Now().Unix()))
	g.parallelWorkers.Set(float64(res.ParallelWorkers))
	s.metrics.lastRetuneCalls.Store(res.OptimizerCalls)
	s.metrics.lastRetuneMillis.Store(res.Elapsed.Milliseconds())
	s.metrics.retuneNanosTotal.Add(res.Elapsed.Nanoseconds())
	// Session-level Prometheus metrics; the search-internal ones were
	// already fed from trace events during Tune.
	s.tunerMetrics.OptimizerCalls.Add(float64(res.OptimizerCalls))
	s.tunerMetrics.RetuneDuration.Observe(res.Elapsed.Seconds())

	s.mu.Lock()
	s.rec = rec
	s.explain = res.Explain
	if res.Explain != nil {
		s.calibration = res.Explain.Calibration
	}
	s.lastResult = res
	s.lastSnap = snap
	s.lastSessionID = sessionID
	fp := fingerprintOf(snap)
	fp.CostPerWeight = res.Best.Cost / snap.TotalWeight()
	s.baseline = &fp
	s.costCache = make(map[string]float64, len(snap.Queries))
	sharedPrefix := ""
	if s.opts.CostCache != nil {
		sharedPrefix = s.db.Fingerprint() + "|" + res.Best.Config.Fingerprint() + "|"
	}
	for i, q := range snap.Queries {
		c := res.Best.Results[i].TotalCost()
		s.costCache[q.SQL] = c
		if s.opts.CostCache != nil {
			s.opts.CostCache.Put(sharedPrefix+q.SQL, s.opts.Tenant, c)
		}
	}
	s.mu.Unlock()

	s.logf("service: session %s retuned %d statements (trigger=%s warm=%v): cost %.1f -> %.1f (%.1f%%), %d optimizer calls",
		sessionID, rec.Statements, trigger, warm, rec.InitialCost, rec.Cost, rec.ImprovementPct, rec.OptimizerCalls)
	return rec, nil
}

// MetricsSnapshot assembles the /metrics payload. Each counter is loaded
// on its own: the payload is a set of readings taken while updates go on,
// not one consistent cut.
func (s *Service) MetricsSnapshot() MetricsSnapshot {
	m, g := s.metrics, s.promGauges
	driftChecksHTTP := int64(g.driftChecksVec.Value(driftOriginHTTP))
	driftChecksScheduler := int64(g.driftChecksVec.Value(driftOriginScheduler))
	driftEventsHTTP := int64(g.driftEventsVec.Value(driftOriginHTTP))
	driftEventsScheduler := int64(g.driftEventsVec.Value(driftOriginScheduler))
	st := s.window.Stats()
	cs := s.cache.Stats()
	cacheHits, cacheShared := cs.Hits, cs.SharedHits
	if s.opts.Tenant != "" {
		// The cache may be fleet-shared; report this tenant's own
		// activity, not the cache-wide totals.
		os := cs.Origins[s.opts.Tenant]
		cacheHits, cacheShared = os.Hits, os.SharedHits
	}
	moverShare := 0.0
	s.mu.Lock()
	if s.lastDrift != nil {
		moverShare = s.lastDrift.MoverShare
	}
	s.mu.Unlock()
	return MetricsSnapshot{
		UptimeSeconds: time.Since(s.started).Seconds(),

		IngestRequests:     m.ingestRequests.Load(),
		StatementsIngested: st.Observed,
		ParseErrors:        st.ParseErrors,

		WindowObservations:  int64(st.InWindow),
		WindowUnique:        int64(st.Unique),
		WindowWeight:        st.TotalWeight,
		WindowEvicted:       st.EvictedOldest + st.EvictedUnique,
		WindowEvictedOldest: st.EvictedOldest,
		WindowEvictedUnique: st.EvictedUnique,
		ObservedSelects:     st.ObservedSelects,
		ObservedUpdates:     st.ObservedUpdates,
		WindowSelects:       int64(st.SelectsInWindow),
		WindowUpdates:       int64(st.UpdatesInWindow),

		WorkloadSignatures: int64(st.SketchSignatures),
		SketchEvictions:    st.SketchEvictions,
		TopKWeightShare:    st.SketchWeightShare,

		DriftChecks:          driftChecksHTTP + driftChecksScheduler,
		DriftEvents:          driftEventsHTTP + driftEventsScheduler,
		DriftChecksHTTP:      driftChecksHTTP,
		DriftChecksScheduler: driftChecksScheduler,
		DriftEventsHTTP:      driftEventsHTTP,
		DriftEventsScheduler: driftEventsScheduler,
		DriftMoverShare:      moverShare,

		Retunes:            int64(g.retunes.Value()),
		WarmRetunes:        int64(g.warmRetunes.Value()),
		GroundTruthReplays: int64(s.tunerMetrics.ReplayDuration.Count()),

		TuneOptimizerCalls:  int64(s.tunerMetrics.OptimizerCalls.Value()),
		DriftOptimizerCalls: m.driftOptimizerCalls.Load(),
		LastRetuneCalls:     m.lastRetuneCalls.Load(),
		LastRetuneMillis:    m.lastRetuneMillis.Load(),
		LastRetuneUnix:      int64(g.lastRetuneUnix.Value()),
		ParallelWorkers:     int64(g.parallelWorkers.Value()),

		CacheEntries:        cs.Entries,
		CacheHits:           cacheHits,
		CacheSharedHits:     cacheShared,
		OptimizerCallsSaved: cs.CallsSaved,
		OptimizerCallsSpent: cs.CallsSpent,

		RecordedSessions:    int64(s.recorder.Len()),
		ProgressSubscribers: int64(s.progress.Subscribers()),
		ProgressDropped:     s.progress.Dropped(),
	}
}

// Explain returns the decision log of the last successful retune, or nil
// before the first one.
func (s *Service) Explain() *core.ExplainReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.explain
}

// Profile snapshots the per-phase performance profile accumulated
// across every retune since the service started.
func (s *Service) Profile() *obs.ProfileReport {
	rep := s.profiler.Snapshot()
	rep.WallSeconds = s.metrics.retuneSeconds()
	return rep
}

// PromRegistry exposes the service's Prometheus registry, e.g. to mount
// its Handler or register additional process metrics.
func (s *Service) PromRegistry() *obs.Registry { return s.promReg }

// RefreshPromGauges mirrors the current metrics snapshot into the
// service-level Prometheus gauges. The service's own /metrics handler
// does this per scrape; external renderers (the fleet's merged
// exposition) call it before reading PromRegistry.
func (s *Service) RefreshPromGauges() { s.promGauges.update(s.MetricsSnapshot()) }

// retuneWorker runs triggered retunes until the service closes. It runs
// only without a RetuneScheduler: with one, TriggerRetune never sends on
// retuneCh.
func (s *Service) retuneWorker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-s.retuneCh:
			if _, err := s.retune("auto", 0, false); err != nil {
				s.logf("service: async retune failed: %v", err)
			}
		}
	}
}

// driftWorker periodically assesses drift.
func (s *Service) driftWorker() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.opts.DriftCheckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-ticker.C:
			s.checkDrift(driftOriginScheduler)
		}
	}
}

// Close stops the background goroutines and waits for any in-flight
// tuning session to drain. It is idempotent.
func (s *Service) Close() error {
	s.closeOnce.Do(func() {
		s.cancel()
		s.wg.Wait()
		_ = s.trace.Close()    // flushes the TraceSink, if any
		_ = s.recorder.Close() // flushes the session history file, if any
		_ = s.alerts.Close()   // closes the alert transition log, if any
	})
	return nil
}
