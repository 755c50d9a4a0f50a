package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/sqlx"
)

// OptimalIndexesForRequest derives the physical structures that make an
// index request (S, N, O, A) as cheap as possible (§2.1).
//
// Lemmas 1 and 2 guarantee that, without a requested order, the optimal
// plan seeks a single covering index whose keys are the sargable columns
// ordered by selectivity (equality columns first, then the most selective
// range column) and whose suffix holds every other referenced column.
// With a requested order O, a second candidate keyed on O is generated;
// the optimizer picks whichever yields the cheaper plan.
func OptimalIndexesForRequest(req *optimizer.IndexRequest) []*physical.Index {
	var eqs, ranges []optimizer.SargCond
	for _, s := range req.S {
		if s.Iv.IsPoint() {
			eqs = append(eqs, s)
		} else {
			ranges = append(ranges, s)
		}
	}
	sort.SliceStable(eqs, func(i, j int) bool { return eqs[i].Sel < eqs[j].Sel })
	sort.SliceStable(ranges, func(i, j int) bool { return ranges[i].Sel < ranges[j].Sel })

	all := req.AllColumns()
	var keys []string
	for _, e := range eqs {
		keys = append(keys, e.Col)
	}
	if len(ranges) > 0 {
		keys = append(keys, ranges[0].Col)
	}
	var out []*physical.Index
	if len(keys) == 0 {
		// No sargable predicate: the best structure is the narrowest
		// covering index (a scan-only vertical slice of the table).
		if len(all) == 0 {
			return nil
		}
		keys = all[:1]
	}
	out = append(out, physical.NewIndex(req.Table, keys, subtract(all, keys), false))

	if len(req.O) > 0 {
		// Alternative avoiding the sort: keys start with O; if O ⊆ S the
		// remaining sargable columns extend the key, otherwise everything
		// else becomes suffix (§2.1).
		sCols := make([]string, 0, len(req.S))
		for _, s := range req.S {
			sCols = append(sCols, s.Col)
		}
		oKeys := append([]string(nil), req.O...)
		if isSubset(req.O, sCols) {
			for _, s := range sCols {
				if !slices.Contains(oKeys, s) {
					oKeys = append(oKeys, s)
				}
			}
		}
		out = append(out, physical.NewIndex(req.Table, oKeys, subtract(all, oKeys), false))
	}
	return out
}

// interceptor installs the §2 instrumentation: index requests materialize
// their optimal indexes into the working configuration; view requests
// materialize the requested SPJG block as a hypothetical view with a
// clustered index.
type interceptor struct {
	t    *Tuner
	work *physical.Configuration
	// created tracks the hypothetical structures this interception added.
	createdIdx   map[string]bool
	createdViews map[string]bool
}

func (t *Tuner) newInterceptor(work *physical.Configuration) *interceptor {
	return &interceptor{t: t, work: work, createdIdx: map[string]bool{}, createdViews: map[string]bool{}}
}

func (ic *interceptor) hooks() *optimizer.Hooks {
	h := &optimizer.Hooks{OnIndexRequest: ic.onIndexRequest}
	if !ic.t.Options.NoViews {
		h.OnViewRequest = ic.onViewRequest
	}
	return h
}

func (ic *interceptor) onIndexRequest(req *optimizer.IndexRequest) {
	for _, ix := range OptimalIndexesForRequest(req) {
		if !ic.work.HasIndex(ix.ID()) {
			added := ic.work.AddIndex(ix)
			ic.createdIdx[added.ID()] = true
		}
	}
}

func (ic *interceptor) onViewRequest(req *optimizer.ViewRequest) {
	block := req.Block
	if len(block.Cols) == 0 {
		return
	}
	if existing := ic.work.ViewBySignature(block.Signature()); existing != nil {
		return
	}
	v := block.Clone()
	v = ic.work.AddView(v)
	ic.createdViews[v.Name] = true
	// Materialize with a clustered index: grouped views cluster on their
	// grouping columns, others on their first column.
	keys := clusterKeysFor(v)
	cix := physical.NewIndex(v.Name, keys, subtract(v.AllColumnNames(), keys), true)
	if !ic.work.HasIndex(cix.ID()) {
		ic.work.AddIndex(cix)
		ic.createdIdx[cix.ID()] = true
	}
}

// clusterKeysFor picks clustered-index keys for a hypothetical view.
func clusterKeysFor(v *physical.View) []string {
	if len(v.GroupBy) > 0 {
		var keys []string
		for _, g := range v.GroupBy {
			if vc := v.ColumnForSource(g); vc != nil {
				keys = append(keys, vc.Name)
			}
		}
		if len(keys) > 0 {
			return keys
		}
	}
	return v.AllColumnNames()[:1]
}

// OptimalForQuery runs the instrumented optimization of §2 for one query:
// it returns the structures the optimal plan actually uses (a per-query
// optimal configuration fragment) along with the resulting plan.
func (t *Tuner) OptimalForQuery(tq *TunedQuery) (*physical.Configuration, *optimizer.QueryResult, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.optimalForQueryOn(t.Opt, tq)
}

// optimalForQueryOn is the §2 instrumented optimization against an
// explicit optimizer: hooks are per-optimizer state, so a parallel §2
// phase gives every worker its own fork and routes each query through
// it.
func (t *Tuner) optimalForQueryOn(opt *optimizer.Optimizer, tq *TunedQuery) (*physical.Configuration, *optimizer.QueryResult, error) {
	defer t.Options.Profile.StartAlloc("optimal-config/instrument")()
	work := t.Base.Clone()
	ic := t.newInterceptor(work)
	opt.SetHooks(ic.hooks())
	defer opt.SetHooks(nil)

	res, err := opt.OptimizeFull(tq.Bound, work)
	if err != nil {
		return nil, nil, fmt.Errorf("core: instrumented optimization of %s: %w", tq.Query.ID, err)
	}

	// Gather only the hypothetical structures the optimal plan exploits.
	frag := physical.NewConfiguration()
	for _, u := range res.Plan.Usages {
		id := u.Index.ID()
		if !ic.createdIdx[id] {
			continue
		}
		if u.ViewName != "" {
			if v := work.View(u.ViewName); v != nil {
				frag.AddView(v)
			}
		}
		frag.AddIndex(u.Index)
	}
	for _, vn := range res.Plan.UsedViews {
		if v := work.View(vn); v != nil && ic.createdViews[vn] {
			frag.AddView(v)
		}
	}
	// Every kept view needs a clustered index (it stores the view rows).
	for _, v := range frag.Views() {
		if frag.ClusteredOn(v.Name) == nil {
			if cix := work.ClusteredOn(v.Name); cix != nil {
				frag.AddIndex(cix)
			}
		}
	}
	return frag, res, nil
}

// OptimalConfiguration runs §2 over the whole workload: the union of the
// per-query optimal fragments over the base configuration. The returned
// configuration cannot be improved for SELECT-only workloads.
func (t *Tuner) OptimalConfiguration() (*physical.Configuration, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.optimalConfiguration()
}

// optimalConfiguration derives every query's optimal fragment, then
// merges the fragments — and emits their trace events — in query order
// on the calling goroutine, so the configuration, the trace and the
// explain provenance are the same at every Parallelism. Hooks are
// per-optimizer state: one worker derives inline on t.Opt, several each
// on their own fork. It consults Options.Cache when present: statements
// whose fragment was derived by an earlier session reuse it without any
// optimizer calls (the warm-start fast path of the online retuner).
func (t *Tuner) optimalConfiguration() (*physical.Configuration, error) {
	cache := t.Options.Cache
	trace := t.Options.Trace
	n := len(t.Queries)
	type fragOut struct {
		frag   *physical.Configuration
		cached bool
		err    error
	}
	outs := make([]fragOut, n)
	workers := min(t.workers(), n)
	optimizers := []*optimizer.Optimizer{t.Opt}
	if workers > 1 {
		optimizers = make([]*optimizer.Optimizer, workers)
		for w := range optimizers {
			optimizers[w] = t.Opt.Fork()
		}
	}
	err := fanOut(t.Options.Profile, "optimal-config", workers, n, func(w, i int) bool {
		tq, opt := t.Queries[i], optimizers[w]
		if cache != nil {
			if hit, ok := cache.lookup(t.cacheKey(tq), t.Options.CacheOrigin); ok {
				outs[i] = fragOut{frag: hit, cached: true}
				return true
			}
		}
		before := opt.Stats().OptimizeCalls
		frag, _, err := t.optimalForQueryOn(opt, tq)
		if err != nil {
			outs[i] = fragOut{err: err}
			return false
		}
		if cache != nil {
			cache.store(t.cacheKey(tq), frag, opt.Stats().OptimizeCalls-before, t.Options.CacheOrigin)
		}
		outs[i] = fragOut{frag: frag}
		return true
	})
	if workers > 1 {
		for _, fork := range optimizers {
			t.Opt.AddStats(fork.Stats())
		}
	}
	if err != nil {
		return nil, err
	}

	union := t.Base.Clone()
	clear(t.demandedBy)
	for i, tq := range t.Queries {
		o := outs[i]
		if o.err != nil {
			return nil, o.err
		}
		if cache != nil && trace.Enabled() {
			trace.Emit(obs.EvCache, obs.F{"hit": o.cached, "query": tq.Query.ID})
		}
		if trace.Enabled() {
			trace.Emit(obs.EvFragment, obs.F{
				"query":   tq.Query.ID,
				"cached":  o.cached,
				"indexes": o.frag.NumIndexes(),
				"views":   o.frag.NumViews(),
			})
		}
		for _, v := range o.frag.Views() {
			union.AddView(v)
			t.demand("v:"+v.Name, tq.Query.ID)
		}
		for _, ix := range o.frag.Indexes() {
			union.AddIndex(ix)
			t.demand("i:"+ix.ID(), tq.Query.ID)
		}
	}
	return union, nil
}

// demand records that the statement qid requested the structure key
// during the §2 instrumented optimization (explain provenance).
func (t *Tuner) demand(key, qid string) {
	for _, q := range t.demandedBy[key] {
		if q == qid {
			return
		}
	}
	t.demandedBy[key] = append(t.demandedBy[key], qid)
}

// RequestCounts runs the instrumented optimization over the workload and
// reports the number of index and view requests issued (Table 1).
func (t *Tuner) RequestCounts() (indexReqs, viewReqs int64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	before := t.Opt.Stats()
	if _, err := t.optimalConfiguration(); err != nil {
		return 0, 0, err
	}
	after := t.Opt.Stats()
	return after.IndexRequests - before.IndexRequests, after.ViewRequests - before.ViewRequests, nil
}

// --- small column-set helpers ---

func subtract(a, b []string) []string {
	var out []string
	for _, c := range a {
		if !slices.Contains(b, c) {
			out = append(out, c)
		}
	}
	return out
}

func isSubset(a, b []string) bool {
	for _, c := range a {
		if !slices.Contains(b, c) {
			return false
		}
	}
	return true
}

// viewWidthFn adapts the tuner's catalog to the signature MergeViews
// expects for sizing newly exposed base columns.
func (t *Tuner) viewWidthFn() func(sqlx.ColRef) int {
	return func(c sqlx.ColRef) int { return t.widthOf(c.Column, c.Table) }
}
