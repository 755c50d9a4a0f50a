// Package fleet runs many online tuning services — tenants — inside one
// tunerd process, the way a managed database provider would: a registry
// tenants join and leave at runtime, a bounded worker pool that shards
// retune sessions across tenants (one in flight per tenant, FIFO with
// priority for drift-triggered work), per-tenant ingestion quotas with
// backpressure, and shared cross-tenant caches.
//
// The sharing is correctness-preserving by construction: both shared
// caches key their entries by catalog fingerprint (schema + statistics),
// so tenants with identical catalogs and overlapping statement shapes
// reuse each other's per-statement optimal fragments and what-if costs,
// while tenants whose catalogs differ in any way never collide. Each
// tenant's recommendations are therefore identical to what an isolated
// single-tenant process would produce — the fleet only changes how many
// optimizer calls it takes to get there.
package fleet

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/replay"
	"repro/internal/service"
)

// TenantSpec declares one tenant: which catalog it tunes against and
// its per-tenant budgets. It is the POST /tenants payload.
type TenantSpec struct {
	// ID names the tenant (required; [a-z0-9] plus interior '-' or '_',
	// at most 64 characters). It becomes the session-ID prefix, the
	// cache origin, and the Prometheus tenant label.
	ID string `json:"id"`
	// Database selects the catalog ("tpch", "ds1", "bench" under
	// tunerd; required).
	Database string `json:"database"`
	// ScaleFactor sizes the catalog (default 0.001).
	ScaleFactor float64 `json:"scale_factor,omitempty"`
	// BudgetMB is the tenant's storage budget in MB, fractions allowed
	// (0 = the fleet default; see service.BudgetBytes for the range).
	BudgetMB float64 `json:"budget_mb,omitempty"`
	// NoViews restricts this tenant's tuning to indexes only.
	NoViews bool `json:"no_views,omitempty"`
	// MaxIterations overrides the per-retune iteration cap (0 = fleet
	// default).
	MaxIterations int `json:"max_iterations,omitempty"`
	// WindowObservations / WindowMaxUnique / HalfLife override the
	// tenant's sliding-window shape (0 = fleet default).
	WindowObservations int `json:"window_observations,omitempty"`
	WindowMaxUnique    int `json:"window_max_unique,omitempty"`
	HalfLife           int `json:"half_life,omitempty"`
	// AutoRetune makes detected drift queue a retune with the pool.
	AutoRetune bool `json:"auto_retune,omitempty"`
	// DriftCheckEvery runs a drift check after every N ingested
	// statements (0 = fleet default).
	DriftCheckEvery int `json:"drift_check_every,omitempty"`
	// Quota bounds this tenant's ingestion (zero value = the registry's
	// default quota).
	Quota QuotaSpec `json:"quota,omitempty"`
}

// Options configure a fleet registry.
type Options struct {
	// Workers sizes the shared retune worker pool (0 = half the
	// process's GOMAXPROCS, at least 1).
	Workers int
	// Catalog builds a tenant's catalog database from its spec
	// (required); cmd/tunerd passes its -db name resolver.
	Catalog func(database string, scaleFactor float64) (*catalog.Database, error)
	// ReplaySource builds a tenant's ground-truth replay substrate
	// (materialized catalog + rows) from its spec; cmd/tunerd passes the
	// datagen materializer. nil disables fleet-wide ground-truth
	// replays. Each tenant's substrate is built lazily on its first
	// replay and cached by its service.
	ReplaySource func(database string, scaleFactor float64) (*catalog.Database, *exec.Store, error)
	// Defaults is the service.Options template every tenant starts
	// from. The registry overwrites DB, Tenant, Cache, CostCache,
	// Recorder, and RetuneScheduler; TenantSpec fields override the
	// rest per tenant.
	Defaults service.Options
	// DefaultQuota applies to tenants whose spec leaves Quota zero
	// (zero value = unlimited).
	DefaultQuota QuotaSpec
	// Logf receives fleet log lines (nil = silent).
	Logf func(format string, args ...any)
}

// Tenant is one registered tenant: its spec, its running service, and
// its quota state.
type Tenant struct {
	Spec      TenantSpec
	Service   *service.Service
	CreatedAt time.Time

	handler http.Handler
	quota   *tokenBucket
	// quotaRejected counts 429'd ingest requests (mirrored into the
	// fleet Prometheus registry; kept here so DELETE cleans it up).
	rejMu         sync.Mutex
	quotaRejected int64
}

// Registry is the fleet: the tenant set, the shared caches, and the
// retune worker pool. All methods are safe for concurrent use.
type Registry struct {
	opts    Options
	frags   *core.RequestCache
	costs   *SharedCostCache
	pool    *Pool
	metrics *fleetMetrics
	started time.Time

	mu      sync.RWMutex
	tenants map[string]*Tenant
	closed  bool
}

// New starts an empty fleet registry.
func New(opts Options) (*Registry, error) {
	if opts.Catalog == nil {
		return nil, errors.New("fleet: Options.Catalog is required")
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0) / 2
		if opts.Workers < 1 {
			opts.Workers = 1
		}
	}
	r := &Registry{
		opts:    opts,
		frags:   core.NewRequestCache(),
		costs:   NewSharedCostCache(DefaultCostCacheCapacity),
		metrics: newFleetMetrics(),
		started: time.Now(),
		tenants: map[string]*Tenant{},
	}
	r.pool = newPool(opts.Workers, r.runRetune, opts.Logf)
	return r, nil
}

// runRetune is the pool's runnerFunc: resolve the tenant at run time
// (it may have been removed while queued) and run one session.
func (r *Registry) runRetune(tenant, trigger string, budget int64, overrideBudget bool) (*service.Recommendation, error) {
	t := r.Get(tenant)
	if t == nil {
		return nil, fmt.Errorf("%w: %s", ErrTenantRemoved, tenant)
	}
	rec, err := t.Service.RetuneSession(trigger, budget, overrideBudget)
	if err == nil {
		r.metrics.retunes.Add(tenant, 1)
	}
	return rec, err
}

// validateID enforces the tenant-ID alphabet: DNS-label-ish, safe in
// URLs, file names, session-ID prefixes, and Prometheus label values.
func validateID(id string) error {
	if id == "" {
		return errors.New("fleet: tenant id is required")
	}
	if len(id) > 64 {
		return fmt.Errorf("fleet: tenant id %q too long (max 64)", id)
	}
	for i, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
		case (c == '-' || c == '_') && i > 0 && i < len(id)-1:
		default:
			return fmt.Errorf("fleet: tenant id %q: want [a-z0-9] with interior '-' or '_'", id)
		}
	}
	return nil
}

// Add registers a tenant and starts its tuning service wired into the
// fleet: shared fragment + cost caches, pool-scheduled retunes, and a
// tenant-prefixed session recorder.
func (r *Registry) Add(spec TenantSpec) (*Tenant, error) {
	if err := validateID(spec.ID); err != nil {
		return nil, err
	}
	if spec.Database == "" {
		return nil, errors.New("fleet: tenant database is required")
	}
	if spec.ScaleFactor <= 0 {
		spec.ScaleFactor = 0.001
	}
	budget, err := service.BudgetBytes(spec.BudgetMB)
	if err != nil {
		return nil, fmt.Errorf("fleet: tenant %s: %w", spec.ID, err)
	}
	if spec.Quota == (QuotaSpec{}) {
		spec.Quota = r.opts.DefaultQuota
	}
	spec.Quota = spec.Quota.withDefaults()

	db, err := r.opts.Catalog(spec.Database, spec.ScaleFactor)
	if err != nil {
		return nil, fmt.Errorf("fleet: tenant %s: %w", spec.ID, err)
	}

	id := spec.ID
	svcOpts := r.opts.Defaults
	svcOpts.DB = db
	svcOpts.Tenant = id
	svcOpts.Cache = r.frags
	svcOpts.CostCache = r.costs
	svcOpts.Recorder = nil // per-tenant in-memory recorder, ID-prefixed by tenant
	// Self-monitoring cadence and rules come from the fleet template, but
	// a shared transition-log file would interleave every tenant's
	// writes; per-tenant alerting stays in memory (the fleet rollup and
	// /alerts aggregation are the durable surfaces).
	svcOpts.Monitor.AlertLogPath = ""
	// A Defaults-level replay source would point every tenant at the
	// same substrate; rebuild it from this tenant's own spec instead.
	svcOpts.Replay = nil
	if build := r.opts.ReplaySource; build != nil {
		database, sf := spec.Database, spec.ScaleFactor
		svcOpts.Replay = &replay.Source{Build: func() (*catalog.Database, *exec.Store, error) {
			return build(database, sf)
		}}
	}
	svcOpts.RetuneScheduler = func(trigger string) {
		if r.Get(id) != nil {
			r.pool.EnqueueAuto(id, trigger)
		}
	}
	if budget > 0 {
		svcOpts.Tuning.SpaceBudget = budget
	}
	if spec.NoViews {
		svcOpts.Tuning.NoViews = true
	}
	if spec.MaxIterations > 0 {
		svcOpts.Tuning.MaxIterations = spec.MaxIterations
	}
	if spec.WindowObservations > 0 {
		svcOpts.Window.MaxObservations = spec.WindowObservations
	}
	if spec.WindowMaxUnique > 0 {
		svcOpts.Window.MaxUnique = spec.WindowMaxUnique
	}
	if spec.HalfLife > 0 {
		svcOpts.Window.HalfLife = spec.HalfLife
	}
	if spec.AutoRetune {
		svcOpts.AutoRetune = true
	}
	if spec.DriftCheckEvery > 0 {
		svcOpts.DriftCheckEvery = spec.DriftCheckEvery
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errors.New("fleet: registry closed")
	}
	if _, dup := r.tenants[id]; dup {
		return nil, fmt.Errorf("fleet: tenant %q already registered", id)
	}
	svc, err := service.New(svcOpts)
	if err != nil {
		return nil, fmt.Errorf("fleet: tenant %s: %w", id, err)
	}
	t := &Tenant{
		Spec:      spec,
		Service:   svc,
		CreatedAt: time.Now().UTC(),
		handler:   service.NewHandler(svc),
		quota:     newTokenBucket(spec.Quota, time.Now()),
	}
	r.tenants[id] = t
	r.logf("fleet: tenant %s registered (db=%s sf=%g budget=%gMB quota=%+v)",
		id, spec.Database, spec.ScaleFactor, spec.BudgetMB, spec.Quota)
	return t, nil
}

// Remove deregisters a tenant: queued retunes fail, its in-flight
// session (if any) drains, then its service closes. Removing an unknown
// tenant is an error.
func (r *Registry) Remove(id string) error {
	r.mu.Lock()
	t, ok := r.tenants[id]
	if ok {
		delete(r.tenants, id)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: unknown tenant %q", id)
	}
	r.pool.DropTenant(id)
	err := t.Service.Close()
	r.metrics.forget(id)
	r.logf("fleet: tenant %s removed", id)
	return err
}

// Get returns a tenant by ID, or nil.
func (r *Registry) Get(id string) *Tenant {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tenants[id]
}

// List returns the registered tenants sorted by ID.
func (r *Registry) List() []*Tenant {
	r.mu.RLock()
	out := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.ID < out[j].Spec.ID })
	return out
}

// Len returns the number of registered tenants.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tenants)
}

// FragmentCache exposes the shared per-statement fragment cache (for
// status surfaces and tests).
func (r *Registry) FragmentCache() *core.RequestCache { return r.frags }

// CostCache exposes the shared drift-cost cache.
func (r *Registry) CostCache() *SharedCostCache { return r.costs }

// Pool exposes the retune worker pool.
func (r *Registry) Pool() *Pool { return r.pool }

// Retune submits a retune session for a tenant to the worker pool and
// waits for it to finish — the synchronous counterpart of the POST
// /tenants/{tenant}/retune route, honoring the same per-tenant
// serialization.
func (r *Registry) Retune(id, trigger string) (*service.Recommendation, error) {
	res := <-r.pool.Submit(id, trigger, 0, false)
	return res.rec, res.err
}

// noteQuotaRejection records one 429'd ingest for a tenant.
func (r *Registry) noteQuotaRejection(t *Tenant) {
	t.rejMu.Lock()
	t.quotaRejected++
	t.rejMu.Unlock()
	r.metrics.quotaRejections.Add(t.Spec.ID, 1)
}

// quotaRejections reads a tenant's 429 count.
func (t *Tenant) quotaRejections() int64 {
	t.rejMu.Lock()
	defer t.rejMu.Unlock()
	return t.quotaRejected
}

func (r *Registry) logf(format string, args ...any) {
	if r.opts.Logf != nil {
		r.opts.Logf(format, args...)
	}
}

// TenantStatus is one tenant's row in the GET /fleet payload.
type TenantStatus struct {
	ID                 string    `json:"id"`
	Database           string    `json:"database"`
	ScaleFactor        float64   `json:"scale_factor"`
	CreatedAt          time.Time `json:"created_at"`
	QueueDepth         int       `json:"queue_depth"`
	InFlight           bool      `json:"in_flight"`
	Retunes            int64     `json:"retunes"`
	Sessions           int64     `json:"sessions"`
	WindowObservations int64     `json:"window_observations"`
	StatementsIngested int64     `json:"statements_ingested"`
	QuotaRejections    int64     `json:"quota_rejections"`
	CacheHits          int64     `json:"cache_hits"`
	CacheSharedHits    int64     `json:"cache_shared_hits"`
	HasRecommendation  bool      `json:"has_recommendation"`
	AlertsFiring       int       `json:"alerts_firing"`
}

// AlertRollup is the fleet-level alert summary in GET /fleet: firing
// instances across every tenant's alert engine, broken down by severity
// and by tenant.
type AlertRollup struct {
	Firing     int            `json:"firing"`
	BySeverity map[string]int `json:"by_severity,omitempty"`
	ByTenant   map[string]int `json:"by_tenant,omitempty"`
}

// Status is the GET /fleet payload: the fleet-wide view a operator
// dashboard scrapes.
type Status struct {
	UptimeSeconds    float64         `json:"uptime_seconds"`
	Workers          int             `json:"workers"`
	Tenants          []TenantStatus  `json:"tenants"`
	QueueDepth       int             `json:"queue_depth"`
	RetunesCompleted int64           `json:"retunes_completed"`
	FragmentCache    core.CacheStats `json:"fragment_cache"`
	CostCache        CostCacheStats  `json:"cost_cache"`
	Alerts           AlertRollup     `json:"alerts"`
}

// Status assembles the fleet-wide status snapshot.
func (r *Registry) Status() Status {
	depths := r.pool.Depths()
	fragStats := r.frags.Stats()
	st := Status{
		UptimeSeconds:    time.Since(r.started).Seconds(),
		Workers:          r.pool.Workers(),
		Tenants:          []TenantStatus{},
		RetunesCompleted: r.pool.Completed(),
		FragmentCache:    fragStats,
		CostCache:        r.costs.Stats(),
		// Empty and nil maps encode alike under omitempty.
		Alerts: AlertRollup{BySeverity: map[string]int{}, ByTenant: map[string]int{}},
	}
	for _, d := range depths {
		st.QueueDepth += d.Queued
	}
	for _, t := range r.List() {
		row, bySeverity := tenantRow(t, depths[t.Spec.ID])
		for sev, n := range bySeverity {
			st.Alerts.BySeverity[sev] += n
		}
		if row.AlertsFiring > 0 {
			st.Alerts.ByTenant[t.Spec.ID] = row.AlertsFiring
		}
		st.Alerts.Firing += row.AlertsFiring
		st.Tenants = append(st.Tenants, row)
	}
	return st
}

// tenantRow builds t's row in Status, with d its retune queue depth, and
// returns its firing alerts by severity for the fleet rollup.
func tenantRow(t *Tenant, d QueueDepth) (TenantStatus, map[string]int) {
	snap := t.Service.MetricsSnapshot()
	bySeverity := t.Service.Alerts().FiringBySeverity()
	firing := 0
	for _, n := range bySeverity {
		firing += n
	}
	return TenantStatus{
		ID:                 t.Spec.ID,
		Database:           t.Spec.Database,
		ScaleFactor:        t.Spec.ScaleFactor,
		CreatedAt:          t.CreatedAt,
		QueueDepth:         d.Queued,
		InFlight:           d.InFlight,
		Retunes:            snap.Retunes,
		Sessions:           snap.RecordedSessions,
		WindowObservations: snap.WindowObservations,
		StatementsIngested: snap.StatementsIngested,
		QuotaRejections:    t.quotaRejections(),
		CacheHits:          snap.CacheHits,
		CacheSharedHits:    snap.CacheSharedHits,
		HasRecommendation:  t.Service.Recommendation() != nil,
		AlertsFiring:       firing,
	}, bySeverity
}

// readyQueueFactor bounds the retune backlog readiness tolerates: the
// fleet reports not-ready once more than readyQueueFactor sessions per
// worker are queued — a saturated pool means new tenants' retunes wait
// behind a long backlog, so a balancer should prefer another replica.
const readyQueueFactor = 4

// Ready reports whether the fleet is ready to take on tenant traffic —
// the GET /readyz predicate. An empty fleet is ready (tenants register
// at runtime); saturation of the shared retune pool is what flips it.
func (r *Registry) Ready() (bool, []string) {
	var reasons []string
	r.mu.RLock()
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		reasons = append(reasons, "registry closed")
	}
	workers := r.pool.Workers()
	depth := 0
	for _, d := range r.pool.Depths() {
		depth += d.Queued
	}
	if depth > readyQueueFactor*workers {
		reasons = append(reasons, fmt.Sprintf(
			"retune pool saturated: %d sessions queued over %d workers (limit %d)",
			depth, workers, readyQueueFactor*workers))
	}
	return len(reasons) == 0, reasons
}

// Health assembles the shared /healthz payload — the same HealthStatus
// shape the single-tenant service serves, with Mode "fleet" and the
// tenant count present.
func (r *Registry) Health() service.HealthStatus {
	ready, _ := r.Ready()
	sessions, firing := 0, 0
	hasRec := false
	for _, t := range r.List() {
		sessions += t.Service.SessionCount()
		for _, n := range t.Service.Alerts().FiringBySeverity() {
			firing += n
		}
		if t.Service.Recommendation() != nil {
			hasRec = true
		}
	}
	tenants := r.Len()
	return service.HealthStatus{
		Status:        "ok",
		Mode:          "fleet",
		UptimeSeconds: time.Since(r.started).Seconds(),
		Ready:         ready,
		HasRec:        hasRec,
		Sessions:      sessions,
		Tenants:       &tenants,
		AlertsFiring:  firing,
	}
}

// Close shuts the fleet down: the pool drains its in-flight sessions,
// then every tenant service closes. Idempotent.
func (r *Registry) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	tenants := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		tenants = append(tenants, t)
	}
	r.mu.Unlock()
	r.pool.Close()
	var firstErr error
	for _, t := range tenants {
		if err := t.Service.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
