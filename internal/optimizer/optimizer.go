package optimizer

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/sqlx"
)

// MaxJoinTables bounds dynamic-programming join enumeration.
const MaxJoinTables = 16

// Optimizer is a cost-based query optimizer over a catalog database. It
// optimizes bound queries against a physical configuration (base indexes
// plus hypothetical structures) and reports per-index usage information.
//
// Optimize/OptimizeFull are reentrant: per-call state lives in an optCtx
// threaded through the call tree and the activity counters are atomic, so
// any number of goroutines may optimize concurrently against one
// Optimizer. SetHooks is the exception — hooks are per-Optimizer, so
// concurrent instrumented optimizations must each use a Fork.
type Optimizer struct {
	db    *catalog.Database
	model CostModel
	sizer *physical.Sizer
	hooks *Hooks
	stats statCounters
}

// statCounters are the atomic backing of Stats.
type statCounters struct {
	optimizeCalls atomic.Int64
	indexRequests atomic.Int64
	viewRequests  atomic.Int64
}

// optCtx carries the state of one Optimize call plus its reusable scratch
// buffers. reqSeen deduplicates requests within the call so repeated
// probes of the same relation during join enumeration count (and fire
// hooks) once. Contexts are pooled: every Optimize call — including calls
// from forked workers, which share the package-level pool — takes a
// context whose maps, DP table, and dpEntry arena retain their capacity
// from earlier calls, so the steady-state what-if loop allocates no
// per-call bookkeeping.
type optCtx struct {
	reqSeen map[string]bool // request dedup keys seen this call
	key     []byte          // request dedup key build scratch
	idx     map[string]int  // table → FROM position for the current query
	dp      []*dpEntry      // DP table over table subsets
	arena   []dpEntry       // bump arena backing the dpEntries of one call

	edges        []physical.JoinPred // join-edge scratch (one split live at a time)
	lKeys, rKeys []string            // merge-join key scratch (cost phase only)

	probeSpec   accessSpec // inner-probe spec scratch (innerProbe)
	probeSargs  []SargCond
	probeOthers []residCond
}

var ctxPool = sync.Pool{New: func() any {
	return &optCtx{
		reqSeen: make(map[string]bool, 64),
		key:     make([]byte, 0, 160),
		idx:     make(map[string]int, MaxJoinTables),
	}
}}

func getOptCtx() *optCtx { return ctxPool.Get().(*optCtx) }

// putOptCtx scrubs every reference the call left behind — plan nodes in
// the DP table and arena — so pooled scratch never pins a finished plan
// tree, then returns the context.
func putOptCtx(oc *optCtx) {
	clear(oc.reqSeen)
	clear(oc.idx)
	clear(oc.dp)
	oc.arena = oc.arena[:cap(oc.arena)]
	clear(oc.arena)
	oc.arena = oc.arena[:0]
	oc.probeSpec = accessSpec{}
	ctxPool.Put(oc)
}

// dpTable returns a zeroed DP table of n slots backed by the context's
// reusable buffer.
func (oc *optCtx) dpTable(n int) []*dpEntry {
	if cap(oc.dp) < n {
		oc.dp = make([]*dpEntry, n)
	} else {
		oc.dp = oc.dp[:n]
		clear(oc.dp)
	}
	return oc.dp
}

// newEntry hands out one dpEntry from the arena. Entries never escape
// Optimize (only their node/usage fields do), so the arena is recycled
// wholesale when the call finishes. When a chunk fills, a larger one
// replaces it; entries already handed out stay valid in the old backing
// array, which lives until the call returns.
func (oc *optCtx) newEntry() *dpEntry {
	if len(oc.arena) == cap(oc.arena) {
		next := 2 * cap(oc.arena)
		if next < 64 {
			next = 64
		}
		oc.arena = make([]dpEntry, 0, next)
	}
	oc.arena = append(oc.arena, dpEntry{})
	return &oc.arena[len(oc.arena)-1]
}

// New returns an optimizer over db with the default cost model.
func New(db *catalog.Database) *Optimizer {
	return &Optimizer{
		db:    db,
		model: DefaultCostModel(),
		sizer: physical.NewSizer(NewResolver(db)),
	}
}

// Fork returns an optimizer over the same catalog, cost model, and size
// estimator, with its own hooks and zeroed counters. Parallel workers
// that need hooks (the §2 instrumented optimization) each take a fork
// and merge their counters back with AddStats when done.
func (o *Optimizer) Fork() *Optimizer {
	return &Optimizer{db: o.db, model: o.model, sizer: o.sizer}
}

// SetHooks installs the instrumentation hooks of §2 (nil disables them).
func (o *Optimizer) SetHooks(h *Hooks) { o.hooks = h }

// Stats returns a copy of the activity counters.
func (o *Optimizer) Stats() Stats {
	return Stats{
		OptimizeCalls: o.stats.optimizeCalls.Load(),
		IndexRequests: o.stats.indexRequests.Load(),
		ViewRequests:  o.stats.viewRequests.Load(),
	}
}

// AddStats merges a delta (typically a Fork's counters) into this
// optimizer's counters.
func (o *Optimizer) AddStats(d Stats) {
	o.stats.optimizeCalls.Add(d.OptimizeCalls)
	o.stats.indexRequests.Add(d.IndexRequests)
	o.stats.viewRequests.Add(d.ViewRequests)
}

// ResetStats zeroes the activity counters.
func (o *Optimizer) ResetStats() {
	o.stats.optimizeCalls.Store(0)
	o.stats.indexRequests.Store(0)
	o.stats.viewRequests.Store(0)
}

// Sizer exposes the shared size estimator.
func (o *Optimizer) Sizer() *physical.Sizer { return o.sizer }

// Model exposes the cost model.
func (o *Optimizer) Model() CostModel { return o.model }

// DB exposes the catalog database.
func (o *Optimizer) DB() *catalog.Database { return o.db }

// dpEntry is the best plan found for one table subset. Join entries link
// their inputs through left/right instead of concatenating usage and view
// lists per split (which allocated quadratically); the winning tree is
// flattened once by collectEntryLists. An entry's own usages/views hold
// only the records it adds itself (leaf access, INL probe, view scan).
type dpEntry struct {
	node        plan.Node
	usages      []*plan.IndexUsage
	views       []string
	left, right *dpEntry
	// grouped reports that the sub-plan already produced the query's
	// aggregation (view-based plans may embed it).
	grouped bool
	// ordered reports that the sub-plan already delivers the query's
	// presentation order (view-based plans track it explicitly because
	// their order properties use view-local column names).
	ordered bool
}

func (e *dpEntry) cost() float64 {
	if e == nil || e.node == nil {
		return inf
	}
	return e.node.TotalCost().Total()
}

// Optimize finds the cheapest plan for the query's select part under cfg.
// For UPDATE/DELETE statements this is the "pure select query" of §3.6;
// index-maintenance costs are computed separately by UpdateShellCost.
// INSERT statements have an empty select part.
func (o *Optimizer) Optimize(q *BoundQuery, cfg *physical.Configuration) (*plan.QueryPlan, error) {
	o.stats.optimizeCalls.Add(1)
	if q.Kind == sqlx.StmtInsert {
		root := plan.NewHeapScan(q.UpdateTable, 0, plan.Cost{})
		return &plan.QueryPlan{Root: root, Cost: plan.Cost{}}, nil
	}
	n := len(q.Tables)
	if n == 0 {
		return nil, fmt.Errorf("optimizer: query has no tables")
	}
	if n > MaxJoinTables {
		return nil, fmt.Errorf("optimizer: %d tables exceeds the %d-table join limit", n, MaxJoinTables)
	}

	oc := getOptCtx()
	defer putOptCtx(oc)
	dp := oc.dpTable(1 << uint(n))

	// Leaf level: one access-path request per table.
	for i, t := range q.Tables {
		spec := o.tableSpec(q, t, n == 1)
		res := o.requestAccess(oc, cfg, spec)
		if res == nil {
			return nil, fmt.Errorf("optimizer: no access path for table %s", t)
		}
		e := oc.newEntry()
		e.node, e.usages = res.node, res.usages
		dp[1<<uint(i)] = e
	}

	idx := oc.idx
	for i, t := range q.Tables {
		idx[t] = i
	}
	full := uint64(1<<uint(n)) - 1

	// Join levels in increasing subset size, plus view-based alternatives.
	for mask := uint64(1); mask <= full; mask++ {
		size := bits.OnesCount64(mask)
		best := dp[mask] // leaf access for singletons, nil above

		if size >= 2 {
			// Joins of two disjoint sub-plans.
			lowest := mask & (^mask + 1)
			for sub := (mask - 1) & mask; sub > 0; sub = (sub - 1) & mask {
				if sub&lowest == 0 {
					continue // enumerate each split once
				}
				other := mask ^ sub
				l, r := dp[sub], dp[other]
				if l == nil || r == nil {
					continue
				}
				edges := o.joinEdges(oc, q, idx, sub, other)
				if len(edges) == 0 && o.hasAnyEdge(q, idx, mask) {
					continue // avoid cross products when the mask is joinable
				}
				cand := o.joinPlans(oc, q, cfg, idx, mask, sub, other, l, r, edges)
				if cand != nil && cand.cost() < bestCost(best) {
					best = cand
				}
			}
		}
		if size >= 2 || mask == full {
			if vcand := o.viewPlans(oc, q, cfg, idx, mask, mask == full); vcand != nil && vcand.cost() < bestCost(best) {
				best = vcand
			}
		}
		dp[mask] = best
	}

	final := dp[full]
	if final == nil {
		return nil, fmt.Errorf("optimizer: join enumeration produced no plan (disconnected join graph?)")
	}

	usages, views := collectEntryLists(final)
	root := o.finishRoot(q, final.node, rootState{grouped: final.grouped, ordered: final.ordered})
	return &plan.QueryPlan{
		Root:      root,
		Cost:      root.TotalCost(),
		Usages:    usages,
		UsedViews: views,
	}, nil
}

// collectEntryLists flattens the winning DP tree's deferred usage and
// view lists. The order — left subtree, right subtree, then the entry's
// own records — reproduces exactly what eager per-split concatenation
// (l.usages ++ r.usages ++ extras) used to build.
func collectEntryLists(e *dpEntry) ([]*plan.IndexUsage, []string) {
	nu, nv := countEntry(e)
	var us []*plan.IndexUsage
	var vs []string
	if nu > 0 {
		us = make([]*plan.IndexUsage, 0, nu)
	}
	if nv > 0 {
		vs = make([]string, 0, nv)
	}
	return appendEntry(e, us, vs)
}

func countEntry(e *dpEntry) (nu, nv int) {
	nu, nv = len(e.usages), len(e.views)
	if e.left != nil {
		a, b := countEntry(e.left)
		nu += a
		nv += b
		a, b = countEntry(e.right)
		nu += a
		nv += b
	}
	return nu, nv
}

func appendEntry(e *dpEntry, us []*plan.IndexUsage, vs []string) ([]*plan.IndexUsage, []string) {
	if e.left != nil {
		us, vs = appendEntry(e.left, us, vs)
		us, vs = appendEntry(e.right, us, vs)
	}
	return append(us, e.usages...), append(vs, e.views...)
}

// rootState tracks what compensation the chosen subplan already performed.
type rootState struct{ grouped, ordered bool }

// finishRoot layers grouping and ordering on top of the join result.
func (o *Optimizer) finishRoot(q *BoundQuery, node plan.Node, st rootState) plan.Node {
	eqBound := q.eqBoundQualified()
	needsAgg := (len(q.GroupBy) > 0 || q.HasAggregates()) && !st.grouped
	if needsAgg {
		keys := qualifyRefs(q.GroupBy)
		groups := o.groupCardinality(node.OutRows(), q.GroupBy)
		if len(q.GroupBy) == 0 {
			groups = 1
		}
		if len(keys) > 0 && plan.OrderSatisfies(node.OutOrder(), keys, eqBound) {
			node = plan.NewGroupBy(node, keys, plan.AggStream, groups, node.TotalCost().Add(o.model.StreamAggCost(node.OutRows())))
		} else {
			node = plan.NewGroupBy(node, keys, plan.AggHash, groups, node.TotalCost().Add(o.model.HashAggCost(node.OutRows())))
		}
	}
	if len(q.OrderBy) > 0 && !st.ordered {
		want := qualifyRefs(q.OrderBy)
		if !plan.OrderSatisfies(node.OutOrder(), want, eqBound) {
			pages := node.OutRows() * 64 / 8192
			node = plan.NewSort(node, want, node.TotalCost().Add(o.model.SortCost(node.OutRows(), pages)))
		}
	}
	return node
}

// eqBoundQualified returns the qualified columns pinned to single points
// by the query's sargable predicates; order checks may skip them.
func (q *BoundQuery) eqBoundQualified() map[string]bool {
	out := map[string]bool{}
	for table, tp := range q.Preds {
		for _, s := range tp.Sargs {
			if s.Iv.IsPoint() {
				out[table+"."+s.Col] = true
			}
		}
	}
	return out
}

func qualifyRefs(refs []sqlx.ColRef) []string {
	out := make([]string, len(refs))
	for i, r := range refs {
		out[i] = r.Table + "." + r.Column
	}
	return out
}

func bestCost(e *dpEntry) float64 {
	if e == nil {
		return inf
	}
	return e.cost()
}

// tableSpec builds the access spec for one base table.
func (o *Optimizer) tableSpec(q *BoundQuery, table string, root bool) *accessSpec {
	t := o.db.Table(table)
	tp := q.TablePred(table)
	needed := q.NeededCols(table)
	spec := &accessSpec{
		table:  table,
		rows:   t.Rows,
		sargs:  tp.Sargs,
		needed: needed,
		qual:   table,
		width:  o.neededWidth(table, needed),
	}
	for _, oc := range tp.Others {
		spec.others = append(spec.others, residCond{cols: localCols(oc.Cols), sel: oc.Sel})
	}
	if root {
		// Single-table queries push the interesting order into the
		// request: group-by columns when aggregating (stream aggregation),
		// otherwise the presentation order. The order is optional — when
		// no index provides it, the root compensates (hash aggregation or
		// an explicit sort), so the leaf must not force a sort.
		spec.orderOptional = true
		if len(q.GroupBy) > 0 {
			spec.order = localRefs(q.GroupBy)
		} else if !q.HasAggregates() && len(q.OrderBy) > 0 {
			spec.order = localRefs(q.OrderBy)
		}
	}
	return spec
}

func localCols(cols []sqlx.ColRef) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Column
	}
	return out
}

func localRefs(refs []sqlx.ColRef) []string { return localCols(refs) }

func (o *Optimizer) neededWidth(table string, cols []string) int {
	t := o.db.Table(table)
	if t == nil {
		return 64
	}
	w := 0
	for _, c := range cols {
		if col := t.Column(c); col != nil {
			w += col.AvgWidth
		}
	}
	if w == 0 {
		w = 8
	}
	return w
}

// requestAccess fires the index-request hook (§2) and then generates the
// best access path with whatever structures the hook simulated.
func (o *Optimizer) requestAccess(oc *optCtx, cfg *physical.Configuration, spec *accessSpec) *accessResult {
	o.issueIndexRequest(oc, spec)
	return o.bestAccess(oc, cfg, spec)
}

// issueIndexRequest counts the request and fires the hook, deduplicating
// identical requests within one optimization. The dedup key is rendered
// byte-by-byte into the call's scratch buffer; the full IndexRequest is
// materialized only for first-seen requests with a hook installed, so
// plain re-costing calls build no request objects at all.
func (o *Optimizer) issueIndexRequest(oc *optCtx, spec *accessSpec) {
	if oc != nil {
		oc.key = appendRequestKey(oc.key[:0], spec)
		if oc.reqSeen[string(oc.key)] {
			return
		}
		oc.reqSeen[string(oc.key)] = true
	}
	o.stats.indexRequests.Add(1)
	if o.hooks != nil && o.hooks.OnIndexRequest != nil {
		o.hooks.OnIndexRequest(o.buildIndexRequest(spec))
	}
}

// appendRequestKey renders the request-identity key for spec: exactly the
// bytes of "i|" + IndexRequest.String(), so the dedup partition is
// unchanged — table, sargable columns with %.3g selectivities, the count
// of non-sargable conjuncts, the requested order, and the additional
// referenced columns.
func appendRequestKey(key []byte, spec *accessSpec) []byte {
	key = append(key, "i|idxreq{"...)
	key = append(key, spec.table...)
	key = append(key, " S=["...)
	for i := range spec.sargs {
		if i > 0 {
			key = append(key, ',')
		}
		key = append(key, spec.sargs[i].Col...)
		key = append(key, '(')
		key = strconv.AppendFloat(key, spec.sargs[i].Sel, 'g', 3, 64)
		key = append(key, ')')
	}
	key = append(key, "] N="...)
	key = strconv.AppendInt(key, int64(len(spec.others)), 10)
	key = append(key, " O=["...)
	for i, c := range spec.order {
		if i > 0 {
			key = append(key, ' ')
		}
		key = append(key, c...)
	}
	key = append(key, "] A=["...)
	first := true
	for _, c := range spec.needed {
		if specReferences(spec, c) {
			continue
		}
		if !first {
			key = append(key, ' ')
		}
		first = false
		key = append(key, c...)
	}
	return append(key, "]}"...)
}

// specReferences reports whether col already appears in the spec's
// sargable, non-sargable, or order column sets (the request's S/N/O);
// the remaining needed columns form the request's A set.
func specReferences(spec *accessSpec, col string) bool {
	if spec.findSarg(col) != nil || slices.Contains(spec.order, col) {
		return true
	}
	for _, rc := range spec.others {
		if slices.Contains(rc.cols, col) {
			return true
		}
	}
	return false
}

func (o *Optimizer) buildIndexRequest(spec *accessSpec) *IndexRequest {
	req := &IndexRequest{
		Table: spec.table,
		View:  spec.view,
		S:     append([]SargCond(nil), spec.sargs...),
		O:     append([]string(nil), spec.order...),
		Rows:  spec.rows,
	}
	req.NSel = 1
	for _, rc := range spec.others {
		req.N = append(req.N, append([]string(nil), rc.cols...))
		req.NSel *= rc.sel
	}
	// A = referenced columns not already in S, N, or O.
	inSNO := map[string]bool{}
	for _, s := range req.S {
		inSNO[s.Col] = true
	}
	for _, n := range req.N {
		for _, c := range n {
			inSNO[c] = true
		}
	}
	for _, c := range req.O {
		inSNO[c] = true
	}
	for _, c := range spec.needed {
		if !inSNO[c] {
			req.A = append(req.A, c)
		}
	}
	return req
}

// joinEdges returns the join predicates connecting two disjoint masks.
// The result is backed by the call's scratch buffer: it is valid until
// the next joinEdges call, which matches its one-split lifetime.
func (o *Optimizer) joinEdges(oc *optCtx, q *BoundQuery, idx map[string]int, a, b uint64) []physical.JoinPred {
	out := oc.edges[:0]
	for _, j := range q.Joins {
		la, ra := maskHasCol(idx, a, j.L), maskHasCol(idx, a, j.R)
		lb, rb := maskHasCol(idx, b, j.L), maskHasCol(idx, b, j.R)
		if (la && rb) || (ra && lb) {
			out = append(out, j)
		}
	}
	oc.edges = out
	return out
}

func (o *Optimizer) hasAnyEdge(q *BoundQuery, idx map[string]int, mask uint64) bool {
	for _, j := range q.Joins {
		if maskHasCol(idx, mask, j.L) && maskHasCol(idx, mask, j.R) {
			li := idx[j.L.Table]
			ri := idx[j.R.Table]
			if li != ri {
				return true
			}
		}
	}
	return false
}

// join candidate tags, in the evaluation order of the node-per-candidate
// enumeration this replaces (ties keep the earliest candidate).
const (
	candNone = iota
	candHashLR
	candHashRL
	candMerge
	candINLInnerR // inner side = other mask, outer = l
	candINLInnerL // inner side = sub mask, outer = r
	candNLLR
	candNLRL
)

// joinPlans builds the cheapest join of two sub-plans, considering hash
// join (both build directions), merge join, index nested loops
// (single-table inner), and plain nested loops as the universal fallback.
// Cross-table filters that become evaluable at this mask are applied on
// top. Candidates are priced first with plain cost arithmetic — mirroring
// the build functions exactly — and only the winner materializes plan
// nodes; losing candidates used to dominate what-if-path allocation.
func (o *Optimizer) joinPlans(oc *optCtx, q *BoundQuery, cfg *physical.Configuration, idx map[string]int, mask, sub, other uint64, l, r *dpEntry, edges []physical.JoinPred) *dpEntry {
	outRows := o.selRows(q, idx, mask)
	// Filters newly evaluable at this mask.
	extraSel := 1.0
	for _, c := range q.CrossOthers {
		if maskHasAll(idx, mask, c.Cols) && !maskHasAll(idx, sub, c.Cols) && !maskHasAll(idx, other, c.Cols) {
			extraSel *= c.Sel
		}
	}
	// outRows from selRows already includes every predicate in the mask;
	// the join node's raw output (before the extra filters) is larger.
	joinRows := outRows
	if extraSel > 0 && extraSel < 1 {
		joinRows = outRows / extraSel
	}

	cand := candNone
	bestTotal := inf
	consider := func(kind int, c plan.Cost) {
		if t := c.Total(); t < bestTotal {
			cand, bestTotal = kind, t
		}
	}
	var probeR, probeL probeResult
	var colsR, colsL []string
	if len(edges) > 0 {
		consider(candHashLR, o.hashJoinCost(l, r))
		consider(candHashRL, o.hashJoinCost(r, l))
		lk, rk := oc.mergeKeys(idx, sub, edges)
		consider(candMerge, o.mergeJoinCost(l, r, lk, rk))
		// Index nested loops: inner side must be a single base table.
		if pr, pc, total, ok := o.indexNLCost(oc, q, cfg, other, l, edges, joinRows); ok {
			probeR, colsR = pr, pc
			consider(candINLInnerR, total)
		}
		if pr, pc, total, ok := o.indexNLCost(oc, q, cfg, sub, r, edges, joinRows); ok {
			probeL, colsL = pr, pc
			consider(candINLInnerL, total)
		}
	}
	consider(candNLLR, o.nlJoinCost(l, r, joinRows))
	consider(candNLRL, o.nlJoinCost(r, l, joinRows))
	if cand == candNone {
		return nil
	}

	on := joinDesc(edges)
	var node plan.Node
	var extra *plan.IndexUsage
	switch cand {
	case candHashLR:
		node = o.hashJoin(l, r, on, joinRows)
	case candHashRL:
		node = o.hashJoin(r, l, on, joinRows)
	case candMerge:
		node = o.mergeJoin(q, idx, sub, l, r, edges, on, joinRows)
	case candINLInnerR:
		node, extra = o.buildIndexNL(probeR, l, colsR, on, joinRows)
	case candINLInnerL:
		node, extra = o.buildIndexNL(probeL, r, colsL, on, joinRows)
	case candNLLR:
		node = o.nlJoin(l, r, on, joinRows)
	case candNLRL:
		node = o.nlJoin(r, l, on, joinRows)
	}
	if extraSel < 1 {
		var descs []string
		for _, c := range q.CrossOthers {
			if maskHasAll(idx, mask, c.Cols) && !maskHasAll(idx, sub, c.Cols) && !maskHasAll(idx, other, c.Cols) {
				descs = append(descs, c.Expr.String())
			}
		}
		node = plan.NewFilter(node, extraSel, strings.Join(descs, " AND "), node.TotalCost().Add(plan.Cost{CPU: o.model.CPURow * node.OutRows()}))
	}
	e := oc.newEntry()
	e.node, e.left, e.right = node, l, r
	if extra != nil {
		e.usages = []*plan.IndexUsage{extra}
	}
	return e
}

func joinDesc(edges []physical.JoinPred) string {
	if len(edges) == 0 {
		return "cross"
	}
	parts := make([]string, len(edges))
	for i, e := range edges {
		parts[i] = e.String()
	}
	return strings.Join(parts, " AND ")
}

// hashJoinCost prices hashJoin without building its node; the arithmetic
// must stay in lockstep with hashJoin.
func (o *Optimizer) hashJoinCost(probe, build *dpEntry) plan.Cost {
	buildRows := build.node.OutRows()
	probeRows := probe.node.OutRows()
	cost := probe.node.TotalCost().Add(build.node.TotalCost()).
		Add(plan.Cost{CPU: o.model.CPUHash * (buildRows + probeRows)})
	buildPages := buildRows * 64 / 8192
	if buildPages > float64(o.model.SortMemory) {
		cost = cost.Add(plan.Cost{IO: 2 * buildPages * o.model.SeqPage})
	}
	return cost
}

// mergeKeys resolves each join edge's columns onto the left/right input
// (left = the tables in lMask) as qualified names. The returned slices
// are cost-phase scratch: mergeJoin rebuilds its own copies for the
// winner because sort nodes retain their key slices.
func (oc *optCtx) mergeKeys(idx map[string]int, lMask uint64, edges []physical.JoinPred) ([]string, []string) {
	lk, rk := oc.lKeys[:0], oc.rKeys[:0]
	for _, e := range edges {
		lc, rc := e.L, e.R
		if !maskHasCol(idx, lMask, lc) {
			lc, rc = rc, lc
		}
		lk = append(lk, lc.Table+"."+lc.Column)
		rk = append(rk, rc.Table+"."+rc.Column)
	}
	oc.lKeys, oc.rKeys = lk, rk
	return lk, rk
}

// mergeJoinCost prices mergeJoin without building nodes; the arithmetic
// must stay in lockstep with mergeJoin (sorts preserve cardinality, so
// the post-prep row counts equal the input row counts).
func (o *Optimizer) mergeJoinCost(l, r *dpEntry, lKeys, rKeys []string) plan.Cost {
	prepCost := func(n plan.Node, keys []string) plan.Cost {
		if plan.OrderSatisfies(n.OutOrder(), keys, nil) {
			return n.TotalCost()
		}
		pages := n.OutRows() * 64 / 8192
		return n.TotalCost().Add(o.model.SortCost(n.OutRows(), pages))
	}
	return prepCost(l.node, lKeys).Add(prepCost(r.node, rKeys)).
		Add(plan.Cost{CPU: o.model.CPURow * (l.node.OutRows() + r.node.OutRows())})
}

// nlJoinCost prices nlJoin without building its node; the arithmetic must
// stay in lockstep with nlJoin.
func (o *Optimizer) nlJoinCost(outer, inner *dpEntry, rows float64) plan.Cost {
	outerRows := outer.node.OutRows()
	innerCost := inner.node.TotalCost()
	return outer.node.TotalCost().Add(innerCost.Scale(max(1, outerRows))).
		Add(plan.Cost{CPU: o.model.CPURow * rows})
}

// hashJoin builds on build and probes with probe; probe-side order is
// preserved.
func (o *Optimizer) hashJoin(probe, build *dpEntry, on string, rows float64) plan.Node {
	buildRows := build.node.OutRows()
	probeRows := probe.node.OutRows()
	cost := probe.node.TotalCost().Add(build.node.TotalCost()).
		Add(plan.Cost{CPU: o.model.CPUHash * (buildRows + probeRows)})
	// Spill when the build side exceeds memory.
	buildPages := buildRows * 64 / 8192
	if buildPages > float64(o.model.SortMemory) {
		cost = cost.Add(plan.Cost{IO: 2 * buildPages * o.model.SeqPage})
	}
	return plan.NewJoin(plan.JoinHash, probe.node, build.node, on, rows, probe.node.OutOrder(), cost)
}

// mergeJoin sorts both inputs on the join keys (skipping sorts an input
// already provides) and merges linearly; output carries the left input's
// join-key order. lMask identifies which tables feed the left input so
// each edge column lands on its own side.
func (o *Optimizer) mergeJoin(q *BoundQuery, idx map[string]int, lMask uint64, l, r *dpEntry, edges []physical.JoinPred, on string, rows float64) plan.Node {
	var lKeys, rKeys []string
	for _, e := range edges {
		lc, rc := e.L, e.R
		if !maskHasCol(idx, lMask, lc) {
			lc, rc = rc, lc
		}
		lKeys = append(lKeys, lc.Table+"."+lc.Column)
		rKeys = append(rKeys, rc.Table+"."+rc.Column)
	}
	prep := func(n plan.Node, keys []string) plan.Node {
		if plan.OrderSatisfies(n.OutOrder(), keys, nil) {
			return n
		}
		pages := n.OutRows() * 64 / 8192
		return plan.NewSort(n, keys, n.TotalCost().Add(o.model.SortCost(n.OutRows(), pages)))
	}
	ln := prep(l.node, lKeys)
	rn := prep(r.node, rKeys)
	cost := ln.TotalCost().Add(rn.TotalCost()).
		Add(plan.Cost{CPU: o.model.CPURow * (ln.OutRows() + rn.OutRows())})
	return plan.NewJoin(plan.JoinMerge, ln, rn, on, rows, ln.OutOrder(), cost)
}

// nlJoin scans the inner input once per outer row (universal fallback,
// also the only method for cross products).
func (o *Optimizer) nlJoin(outer, inner *dpEntry, on string, rows float64) plan.Node {
	outerRows := outer.node.OutRows()
	innerCost := inner.node.TotalCost()
	cost := outer.node.TotalCost().Add(innerCost.Scale(max(1, outerRows))).
		Add(plan.Cost{CPU: o.model.CPURow * rows})
	return plan.NewJoin(plan.JoinNestedLoop, outer.node, inner.node, on, rows, outer.node.OutOrder(), cost)
}

// probeResult captures the winning inner-side index of an index
// nested-loops candidate with everything needed to materialize its usage
// record if the candidate wins the join.
type probeResult struct {
	cost     plan.Cost // per-probe access cost
	ix       *physical.Index
	cols     []string // matched key prefix (aliases the index's Keys)
	colSels  []float64
	sel      float64
	rows     float64 // per-probe output rows
	lookedUp bool
	needed   []string
}

// indexNLCost prices an index nested-loops join whose inner side is
// innerMask (which must be a single base table). It issues the
// inner-side index request (§2) and selects the best probe index without
// building plan nodes; ok reports whether the candidate applies.
func (o *Optimizer) indexNLCost(oc *optCtx, q *BoundQuery, cfg *physical.Configuration, innerMask uint64, outer *dpEntry, edges []physical.JoinPred, rows float64) (probeResult, []string, plan.Cost, bool) {
	var none probeResult
	if bits.OnesCount64(innerMask) != 1 {
		return none, nil, plan.Cost{}, false
	}
	innerTable := q.Tables[bits.TrailingZeros64(innerMask)]
	// Join columns on the inner side.
	var probeCols []string
	for _, e := range edges {
		if e.L.Table == innerTable {
			probeCols = append(probeCols, e.L.Column)
		} else if e.R.Table == innerTable {
			probeCols = append(probeCols, e.R.Column)
		}
	}
	if len(probeCols) == 0 {
		return none, nil, plan.Cost{}, false
	}
	pr, ok := o.innerProbe(oc, q, cfg, innerTable, probeCols)
	if !ok {
		return none, nil, plan.Cost{}, false
	}
	outerRows := outer.node.OutRows()
	total := outer.node.TotalCost().Add(pr.cost.Scale(max(1, outerRows))).
		Add(plan.Cost{CPU: o.model.CPURow * rows})
	return pr, probeCols, total, true
}

// buildIndexNL materializes the winning index nested-loops candidate; the
// cost arithmetic must stay in lockstep with indexNLCost.
func (o *Optimizer) buildIndexNL(pr probeResult, outer *dpEntry, probeCols []string, on string, rows float64) (plan.Node, *plan.IndexUsage) {
	outerRows := outer.node.OutRows()
	total := outer.node.TotalCost().Add(pr.cost.Scale(max(1, outerRows))).
		Add(plan.Cost{CPU: o.model.CPURow * rows})
	// The usage reflects the accumulated access over all probes.
	usage := &plan.IndexUsage{
		Index: pr.ix, Seek: true, SeekCols: pr.cols, SeekColSels: pr.colSels, Selectivity: pr.sel,
		Rows: pr.rows * max(1, outerRows), AccessCost: pr.cost.Scale(max(1, outerRows)), NeededCols: pr.needed,
		LookedUp: pr.lookedUp,
	}
	node := plan.NewJoin(plan.JoinIndexNL, outer.node, plan.NewIndexSeek(usage.Index, probeCols, usage.Selectivity, usage.Rows, usage.AccessCost, nil), on, rows, outer.node.OutOrder(), total)
	return node, usage
}

// innerProbe finds the best index to look up one join binding on the
// inner table. The probe spec lives in the call's scratch, so repeated
// probes during join enumeration allocate nothing; per-column
// selectivities are captured only when a new best index is found.
func (o *Optimizer) innerProbe(oc *optCtx, q *BoundQuery, cfg *physical.Configuration, table string, probeCols []string) (probeResult, bool) {
	t := o.db.Table(table)
	tp := q.TablePred(table)
	needed := q.NeededCols(table)

	// The inner side of an index nested-loops join is itself an access
	// path request: the join columns appear as (parameterized) equality
	// sargable predicates (§2 intercepts these like any other request).
	spec := &oc.probeSpec
	*spec = accessSpec{table: table, rows: t.Rows, needed: needed, qual: table}
	sargs := oc.probeSargs[:0]
	for _, pc := range probeCols {
		dv := o.columnDistinct(sqlx.ColRef{Table: table, Column: pc})
		sargs = append(sargs, SargCond{
			Col: pc, Iv: physical.PointInterval(0), Sel: 1 / max(1, dv),
		})
	}
	sargs = append(sargs, tp.Sargs...)
	others := oc.probeOthers[:0]
	for _, c := range tp.Others {
		others = append(others, residCond{cols: localCols(c.Cols), sel: c.Sel})
	}
	spec.sargs, spec.others = sargs, others
	oc.probeSargs, oc.probeOthers = sargs, others
	o.issueIndexRequest(oc, spec)

	var best probeResult
	bestTotal := inf
	found := false
	for _, ix := range cfg.IndexesOn(table) {
		k, sel := o.seekPrefixLen(spec, ix)
		usesProbe := false
		for _, pc := range probeCols {
			if slices.Contains(ix.Keys[:k], pc) {
				usesProbe = true
				break
			}
		}
		if !usesProbe {
			continue
		}
		matched := max(1e-9, float64(t.Rows)*sel)
		sh := o.sizer.IndexShape(ix, cfg)
		height, leafPages := sh.Height, sh.LeafPages
		perLeaf := max(1, matched/max(1, float64(t.Rows)/max(1, float64(leafPages))))
		cost := plan.Cost{
			IO:  (float64(height) + perLeaf) * o.model.RandPage,
			CPU: o.model.CPURow * matched,
		}
		onSel, offSel, _ := o.residualAfter(spec, ix, ix.Keys[:k])
		if !ix.Covers(needed) {
			clustered := cfg.ClusteredOn(table)
			pp := o.primaryPages(cfg, spec, clustered)
			cost = cost.Add(o.model.RidLookupCost(t.Rows, pp, matched*onSel))
		}
		outRows := matched * onSel * offSel
		if cost.Total() < bestTotal {
			bestTotal = cost.Total()
			colSels := make([]float64, k)
			for i := 0; i < k; i++ {
				colSels[i] = spec.findSarg(ix.Keys[i]).Sel
			}
			best = probeResult{
				cost: cost, ix: ix, cols: ix.Keys[:k:k], colSels: colSels, sel: sel,
				rows: outRows, lookedUp: !ix.Covers(needed), needed: needed,
			}
			found = true
		}
	}
	return best, found
}
