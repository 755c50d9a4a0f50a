// Package core implements the paper's contribution: the relaxation-based
// physical design tuner.
//
// Section 2: the optimizer is instrumented so that every index and view
// request yields the optimal physical structures for that request; the
// union over all requests is a time-wise optimal configuration.
//
// Section 3: the search starts from that optimal configuration and
// repeatedly relaxes it — merging, splitting, prefixing, promoting, and
// removing indexes and views — guided by the penalty heuristic
// ΔT / min(Space(C)−B, ΔS), where ΔT is an upper bound on the cost
// increase computed without optimizer calls (§3.3.2). Only queries whose
// plans used a removed structure are re-optimized (§3.3.2), updates are
// handled by select/update-shell separation with a transformation skyline
// (§3.6), and shortcut evaluation prunes hopeless configurations (§3.5).
package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/workloads"
)

// Options configure a tuning session. The zero value means: no space
// constraint, no time bound, views enabled, all paper heuristics on.
type Options struct {
	// SpaceBudget is the storage constraint B in bytes (0 = unconstrained).
	SpaceBudget int64
	// MaxIterations bounds the number of relaxation steps (0 = default).
	MaxIterations int
	// TimeBudget bounds wall-clock tuning time (0 = unbounded).
	TimeBudget time.Duration
	// NoViews restricts tuning to indexes only.
	NoViews bool

	// Ablation switches (all false = the paper's algorithm).

	// DisableShortcut turns off §3.5 shortcut evaluation.
	DisableShortcut bool
	// PlainPenalty uses ΔT/ΔS without the min(Space(C)−B, ΔS) clamp.
	PlainPenalty bool
	// DisableChainCorrection turns off heuristic 2 of §3.4 (revisiting
	// the chain configuration with the largest realized penalty).
	DisableChainCorrection bool
	// FullReoptimize re-optimizes every query on every evaluation instead
	// of only those that used removed structures (ablation for the
	// optimality-principle optimization).
	FullReoptimize bool

	// Parallelism is the worker count of the parallel evaluation engine:
	// the §2 per-query derivation, per-query what-if optimization and
	// §3.3.2 penalty estimation fan out across this many goroutines.
	// 0 (the default) means runtime.GOMAXPROCS(0); 1 runs the exact serial
	// algorithm. Any setting produces the same recommendation (same best
	// configuration, cost, and iteration count) and makes the same
	// optimizer calls, except that a §3.5 cooperative abort may stop a few
	// queries earlier or later than the serial prefix abort — only wall
	// time differs otherwise.
	Parallelism int

	// Online/incremental retuning (the internal/service layer).

	// Cache, when set, memoizes per-statement optimal fragments across
	// sessions: statements whose fragment is cached skip the §2
	// instrumented optimization entirely (zero optimizer calls). Entries
	// are keyed by the catalog fingerprint, so one cache may be shared
	// between sessions over different databases (the multi-tenant fleet
	// case); only sessions whose catalogs hash identically ever reuse
	// each other's fragments.
	Cache *RequestCache
	// CacheOrigin attributes this session's Cache activity (typically a
	// tenant ID): hits on entries stored under a different origin are
	// counted as shared hits, the measurable cross-tenant reuse signal.
	// Empty is a valid origin (single-tenant deployments).
	CacheOrigin string
	// WarmStart seeds the relaxation search with a previously recommended
	// configuration: it is evaluated up front, joins the search pool, and
	// becomes the incumbent if it fits the budget, so shortcut evaluation
	// prunes against a good bound from the first iteration.
	WarmStart *physical.Configuration

	// Observability.

	// Trace receives the session's one event stream: per-iteration node
	// selection, ranked candidates with penalty components, skyline
	// pruning, bound tightness, cache activity, optimizer-call
	// attribution per phase, and the exit every relaxation step ended in.
	// Live progress, Prometheus metrics and JSONL files are sinks of
	// this stream. Events are emitted only from the serial main line of
	// the search, so any Parallelism setting emits the identical step
	// sequence. nil (the default) disables tracing at the cost of one
	// pointer check per emission site.
	Trace *obs.Tracer
	// Profile aggregates per-phase wall-clock/allocation/counter
	// profiles of the session (optimal-config construction, penalty
	// estimation per transformation kind, evaluation, skyline, ...).
	// nil (the default) disables profiling at the cost of one pointer
	// check per phase boundary.
	Profile *obs.Profiler
}

// TunedQuery pairs a workload statement with its bound form.
type TunedQuery struct {
	Query *workloads.Query
	Bound *optimizer.BoundQuery
}

// Tuner is a tuning session over one database and workload. A session is
// safe for concurrent use: every public entry point serializes on an
// internal mutex, so concurrent calls execute one at a time against the
// shared optimizer and caches (single-owner semantics, enforced rather
// than documented).
type Tuner struct {
	DB      *catalog.Database
	Opt     *optimizer.Optimizer
	Base    *physical.Configuration
	Queries []*TunedQuery
	Options Options

	// mu serializes all public entry points; internal (lowercase)
	// implementations assume it is held.
	mu sync.Mutex

	heapTables map[string]bool
	// enum builds every search node's transformations. It owns what the
	// nodes of a session share: chunks of transformations handed from parent
	// to child, and the merged view of every view pair it has met.
	enum *physical.Enumerator
	// rank holds the buffers every ranking of the search reuses.
	rank rankBuffers
	// scratch holds one configuration per penalty-estimation worker, which
	// each §3.3.2 bound on that worker applies its transformation into; the
	// serial ranking loop and BoundDelta use worker 0's.
	scratch []*physical.Configuration
	// cbvCache caches the §3.3.2 cost of computing a view from the base
	// configuration (CBV), keyed by view signature. Entries are
	// singleflighted so a view's CBV is optimized exactly once even when
	// parallel penalty-estimation workers race for it.
	cbvMu    sync.Mutex
	cbvCache map[string]*cbvEntry
	// demandedBy maps each optimal-fragment structure ("i:"+index ID or
	// "v:"+view name) to the workload statements whose §2 instrumented
	// optimization requested it — the provenance half of the explain
	// report.
	demandedBy map[string][]string
	// statPlansReused / statPlansReopt count, across the session, the
	// per-query incremental evaluations answered by the §3.3.2
	// optimality principle (parent plan reused, zero optimizer calls)
	// vs those that had to re-optimize — the what-if economy accounting
	// surfaced in CalibrationReport. Atomic: evaluation workers update
	// them concurrently.
	statPlansReused atomic.Int64
	statPlansReopt  atomic.Int64
	// shadow is the tests' shadow mode: everything the search takes over
	// from a parent or computes from a difference is also computed from
	// scratch, and the session fails on the first mismatch — every inherited
	// delta against boundDelta on the inheriting node (bit for bit), every
	// node's transformations against a parent-less enumeration, every ΔS
	// against the difference of the two configurations' sizes.
	shadow bool
	// fullShell, set only by tests, replaces a statement's update-shell term
	// of ΔT: the oracle the term is checked against.
	fullShell func(q *optimizer.BoundQuery, cfgAfter *physical.Configuration, res *optimizer.QueryResult) float64
	// onRank, set only by tests, sees every ranked list of the search loop
	// before a step is chosen from it.
	onRank func(ranked []candidate)
}

// cbvEntry singleflights one view's CBV computation.
type cbvEntry struct {
	once sync.Once
	cost float64
	err  error
}

// NewTuner binds the workload against db and prepares a session. The base
// configuration (required primary-key indexes) is derived from the
// catalog. A statement that does not bind fails it.
func NewTuner(db *catalog.Database, w *workloads.Workload, opts Options) (*Tuner, error) {
	t, unbound := NewTunerSkipping(db, w, opts, nil)
	if len(unbound) > 0 {
		return nil, unbound[0]
	}
	return t, nil
}

// NewTunerSkipping is NewTuner over the statements of w that bind: it
// prepares a session over those, in workload order, and returns one
// error per statement it left out. Its Queries may be empty. A statement
// whose canonical SQL keys prior, statements an earlier session bound
// against db, reuses that binding and the view blocks it memoized;
// only the others are parsed and bound.
func NewTunerSkipping(db *catalog.Database, w *workloads.Workload, opts Options, prior map[string]*optimizer.BoundQuery) (*Tuner, []error) {
	t := &Tuner{
		DB:         db,
		Opt:        optimizer.New(db),
		Base:       datagen.BaseConfiguration(db),
		Options:    opts,
		heapTables: datagen.HeapTables(db),
		cbvCache:   map[string]*cbvEntry{},
		demandedBy: map[string][]string{},
		scratch:    []*physical.Configuration{physical.NewConfiguration()},
	}
	t.enum = physical.NewEnumerator(t.enumerateOptions())
	var unbound []error
	for _, q := range w.Queries {
		b, ok := prior[q.SQL]
		if !ok {
			var err error
			if b, err = BindQuery(db, q); err != nil {
				unbound = append(unbound, fmt.Errorf("core: binding %s: %w", q.ID, err))
				continue
			}
		}
		t.Queries = append(t.Queries, &TunedQuery{Query: q, Bound: b})
	}
	return t, unbound
}

// BindQuery parses q's statement on demand and binds it against db.
func BindQuery(db *catalog.Database, q *workloads.Query) (*optimizer.BoundQuery, error) {
	stmt, err := q.Statement()
	if err != nil {
		return nil, err
	}
	return optimizer.Bind(db, stmt)
}

// EvaluatedConfig is a configuration together with its per-query results
// and aggregate metrics.
type EvaluatedConfig struct {
	Config *physical.Configuration
	// Results holds one entry per workload query (same order as
	// Tuner.Queries).
	Results []*optimizer.QueryResult
	// Cost is the weighted total expected execution cost.
	Cost float64
	// SizeBytes is the configuration's storage consumption.
	SizeBytes int64
}

// Evaluate optimizes every workload query under cfg and returns the
// complete evaluation.
func (t *Tuner) Evaluate(cfg *physical.Configuration) (*EvaluatedConfig, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evaluate(cfg)
}

func (t *Tuner) evaluate(cfg *physical.Configuration) (*EvaluatedConfig, error) {
	ec, _, err := t.evalQueries(nil, cfg, nil, nil, 0)
	return ec, err
}

// evalQueries optimizes every workload query under cfg. A non-nil parent
// reuses the parent's plans for every query that did not use a removed
// structure (the optimality-principle optimization of §3 and §3.3.2);
// update-shell costs are always recomputed against cfg, since they
// depend on all present indexes. When cutoff > 0 and the running total
// exceeds it, evaluation aborts (shortcut evaluation, §3.5) and returns
// (nil, false, nil). Dispatches to the parallel engine when the session
// has more than one worker; the serial path is today's exact algorithm.
func (t *Tuner) evalQueries(parent *EvaluatedConfig, cfg *physical.Configuration, removedIdx, removedViews []string, cutoff float64) (*EvaluatedConfig, bool, error) {
	if w := t.workers(); w > 1 && len(t.Queries) > 1 {
		return t.evalQueriesParallel(parent, cfg, removedIdx, removedViews, cutoff, w)
	}
	return t.evalQueriesSerial(parent, cfg, removedIdx, removedViews, cutoff)
}

func (t *Tuner) evalQueriesSerial(parent *EvaluatedConfig, cfg *physical.Configuration, removedIdx, removedViews []string, cutoff float64) (*EvaluatedConfig, bool, error) {
	ec := &EvaluatedConfig{Config: cfg, SizeBytes: t.Opt.Sizer().ConfigBytes(cfg)}
	shortcut := cutoff > 0 && !t.Options.DisableShortcut
	for i, tq := range t.Queries {
		res, err := t.evalOneQuery(i, parent, cfg, removedIdx, removedViews)
		if err != nil {
			return nil, false, err
		}
		ec.Results = append(ec.Results, res)
		ec.Cost += tq.Query.Weight * res.TotalCost()
		if shortcut && ec.Cost > cutoff {
			return nil, false, nil
		}
	}
	return ec, true, nil
}

// evalOneQuery produces the i-th query's result under cfg, reusing the
// parent plan when the optimality principle allows it. Safe for
// concurrent use across distinct i: the optimizer is reentrant and the
// economy counters are atomic.
func (t *Tuner) evalOneQuery(i int, parent *EvaluatedConfig, cfg *physical.Configuration, removedIdx, removedViews []string) (*optimizer.QueryResult, error) {
	tq := t.Queries[i]
	if parent != nil && !t.Options.FullReoptimize && !usesAny(parent.Results[i], removedIdx, removedViews) {
		// The plan is still valid and, by the optimality principle,
		// still optimal under the relaxed configuration.
		t.statPlansReused.Add(1)
		prev := parent.Results[i]
		res := &optimizer.QueryResult{
			Plan:         prev.Plan,
			SelectCost:   prev.SelectCost,
			AffectedRows: prev.AffectedRows,
		}
		if tq.Bound.IsUpdate() {
			res.UpdateCost = t.Opt.UpdateShellCost(tq.Bound, cfg, res.AffectedRows)
		}
		return res, nil
	}
	if parent != nil {
		t.statPlansReopt.Add(1)
	}
	res, err := t.Opt.OptimizeFull(tq.Bound, cfg)
	if err != nil {
		verb := "evaluating"
		if parent != nil {
			verb = "re-optimizing"
		}
		return nil, fmt.Errorf("core: %s %s: %w", verb, tq.Query.ID, err)
	}
	return res, nil
}

// workers is the effective parallelism of the session.
func (t *Tuner) workers() int { return t.Options.Workers() }

// Workers resolves the Parallelism knob: 0 defaults to the runtime's
// processor count, anything positive is taken literally.
func (o Options) Workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// usesAny reports whether the query result reads any of the removed
// indexes or views.
func usesAny(res *optimizer.QueryResult, removedIdx, removedViews []string) bool {
	if res.Plan == nil {
		return false
	}
	for _, id := range removedIdx {
		if res.Plan.UsesIndex(id) {
			return true
		}
	}
	for _, v := range removedViews {
		if res.Plan.UsesView(v) {
			return true
		}
	}
	return false
}

// Improvement computes the paper's quality metric:
// 100 × (1 − cost(W,CR)/cost(W,CI)).
func Improvement(initial, recommended float64) float64 {
	if initial <= 0 {
		return 0
	}
	return 100 * (1 - recommended/initial)
}

// span opens a trace span and a profiler phase of the same name and
// returns their closer. The closer records wall time plus the
// heap-allocation delta under the profiler phase, attributes the
// phase's optimizer calls to it, and stamps the span-end event with the
// same attribution merged with any extra fields. With both observers
// disabled the cost is two pointer checks.
func (t *Tuner) span(name string) func(extra obs.F) {
	tr, p := t.Options.Trace, t.Options.Profile
	if !tr.Enabled() && !p.Enabled() {
		return func(obs.F) {}
	}
	before := t.Opt.Stats()
	endSpan := tr.Span(name, nil)
	endProf := p.StartAlloc(name)
	return func(extra obs.F) {
		endProf()
		after := t.Opt.Stats()
		if calls := after.OptimizeCalls - before.OptimizeCalls; calls > 0 {
			p.Add(name, "optimizer_calls", float64(calls))
		}
		if tr.Enabled() {
			endSpan(callFields(before, after, extra))
		}
	}
}

// callFields is a closing span's payload: the optimizer work done
// between before and after, merged with the span's own fields.
func callFields(before, after optimizer.Stats, extra obs.F) obs.F {
	f := obs.F{
		"optimizer_calls": after.OptimizeCalls - before.OptimizeCalls,
		"index_requests":  after.IndexRequests - before.IndexRequests,
		"view_requests":   after.ViewRequests - before.ViewRequests,
	}
	for k, v := range extra {
		f[k] = v
	}
	return f
}

// enumerateOptions is what the catalog and the session's options say about
// enumeration: the same for every configuration of the session.
func (t *Tuner) enumerateOptions() physical.EnumerateOptions {
	return physical.EnumerateOptions{
		NoViews:      t.Options.NoViews,
		HeapTables:   t.heapTables,
		WidthOf:      t.viewWidthFn(),
		EstimateRows: t.Opt.EstimateViewRows,
	}
}

// widthOf returns the average width of a base column, for view merging.
func (t *Tuner) widthOf(col string, table string) int {
	tb := t.DB.Table(table)
	if tb == nil {
		return 8
	}
	c := tb.Column(col)
	if c == nil {
		return 8
	}
	return c.AvgWidth
}
