package optimizer

import (
	"fmt"
	"math/bits"
	"slices"
	"strconv"
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
// context whose maps, DP table, arenas and priced seek legs retain
// their capacity from earlier calls, so the steady-state what-if loop
// allocates no per-call bookkeeping.
type optCtx struct {
	reqSeen map[string]bool   // request dedup keys seen this call
	key     []byte            // request dedup key build scratch
	idx     map[string]int    // table → FROM position for the current query
	dp      []*dpEntry        // DP table over table subsets
	entries arena[dpEntry]    // the dpEntries of one call
	paths   arena[accessPath] // the access paths of its leaf and view entries
	legs    []accessLeg       // priced seek legs of one bestAccess call

	edges        []physical.JoinPred // join-edge scratch (one split live at a time)
	edgeAt       []int               // each edge's position in the query's Joins
	lKeys, rKeys []string            // merge-join key scratch (one split live at a time)
	probeCols    []string            // index-NL probe-column scratch (one candidate live at a time)

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

// putOptCtx scrubs every reference the call left behind — specs, indexes
// and views in the DP table, the arenas and the seek legs — so pooled
// scratch never pins a finished call's state, then returns the context.
func putOptCtx(oc *optCtx) {
	clear(oc.reqSeen)
	clear(oc.idx)
	clear(oc.dp)
	oc.entries.reset()
	oc.paths.reset()
	clear(oc.legs[:cap(oc.legs)])
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

// arena is a bump allocator for values that never escape one Optimize
// call, so it is recycled wholesale when the call finishes. When a chunk
// fills, a larger one replaces it; values already handed out stay valid
// in the old backing array, which lives until the call returns.
type arena[T any] struct{ buf []T }

// alloc hands out one zeroed value. The first chunk holds 16, a
// three-table query's DP table, so a context rebuilt after a collection
// empties the pool starts small; larger queries double it.
func (a *arena[T]) alloc() *T {
	if len(a.buf) == cap(a.buf) {
		a.buf = make([]T, 0, max(16, 2*cap(a.buf)))
	}
	var zero T
	a.buf = append(a.buf, zero)
	return &a.buf[len(a.buf)-1]
}

// reset scrubs the current chunk and empties it; values past its length
// were scrubbed by an earlier reset.
func (a *arena[T]) reset() {
	clear(a.buf)
	a.buf = a.buf[:0]
}

// pathEntry hands out a leaf or view entry priced by its access path p,
// which it keeps out of line: join entries, most of the DP table, carry
// no path.
func (oc *optCtx) pathEntry(p *accessPath) *dpEntry {
	path := oc.paths.alloc()
	*path = *p
	e := oc.entries.alloc()
	*e = dpEntry{path: path, total: p.total, rows: p.rows, order: p.order}
	return e
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

// Sizer exposes the shared size estimator.
func (o *Optimizer) Sizer() *physical.Sizer { return o.sizer }

// Model exposes the cost model.
func (o *Optimizer) Model() CostModel { return o.model }

// DB exposes the catalog database.
func (o *Optimizer) DB() *catalog.Database { return o.db }

// dpEntry is the best plan found for one table subset, priced: total,
// rows and order are what its plan costs, returns and is sorted by. It
// holds decisions, not nodes: a leaf or view entry its priced access path,
// in the context's path arena (a view entry also whether it
// hash-aggregates the path), a join entry the decision joinPlans priced,
// with its inputs in left/right.
// treeBuilder makes the nodes, usage records and view list of the winning
// tree only, once, when Optimize returns.
type dpEntry struct {
	mask  uint64 // the table subset
	total plan.Cost
	rows  float64
	order []string

	path    *accessPath // nil on a join entry
	regroup bool        // a hash aggregation above the view path (total and rows are its)
	// grouped reports that the sub-plan already produced the query's
	// aggregation (view-based plans may embed it).
	grouped bool
	// ordered reports that the sub-plan already delivers the query's
	// presentation order (view-based plans track it explicitly because
	// their order properties use view-local column names).
	ordered bool

	left, right *dpEntry
	method      plan.JoinMethod
	swap        bool // the join node's first input is right (hash probe, NL or index-NL outer)
	joinCost    plan.Cost
	joinRows    float64
	filterSel   float64     // the cross-table filter above the join; 1 when none
	probe       probeResult // index-NL: the inner side's probe index
}

func (e *dpEntry) cost() float64 {
	if e == nil {
		return inf
	}
	return e.total.Total()
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
		p, ok := o.requestAccess(oc, cfg, o.tableSpec(q, t, n == 1))
		if !ok {
			return nil, fmt.Errorf("optimizer: no access path for table %s", t)
		}
		dp[1<<uint(i)] = oc.pathEntry(&p)
	}

	idx := oc.idx
	for i, t := range q.Tables {
		idx[t] = i
	}
	full := uint64(1<<uint(n)) - 1

	// Join levels in increasing subset size, plus view-based alternatives.
	for mask := uint64(1); mask <= full; mask++ {
		size := bits.OnesCount64(mask)
		best := dp[mask]    // leaf access for singletons, nil above
		var joined *dpEntry // the mask's best join so far, overwritten by a better split

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
				if cand, ok := o.joinPlans(oc, q, cfg, idx, mask, sub, other, l, r, edges); ok && cand.cost() < best.cost() {
					if joined == nil {
						joined = oc.entries.alloc()
					}
					*joined = cand
					best = joined
				}
			}
		}
		if size >= 2 || mask == full {
			if vcand := o.viewPlans(oc, q, cfg, idx, mask, mask == full); vcand != nil && vcand.cost() < best.cost() {
				best = vcand
			}
		}
		if best != nil {
			best.mask = mask
		}
		dp[mask] = best
	}

	final := dp[full]
	if final == nil {
		return nil, fmt.Errorf("optimizer: join enumeration produced no plan (disconnected join graph?)")
	}

	b := treeBuilder{o: o, oc: oc, q: q}
	nu, nv := countEntry(final)
	if nu > 0 {
		b.usages = make([]*plan.IndexUsage, 0, nu)
	}
	if nv > 0 {
		b.views = make([]string, 0, nv)
	}
	root := o.finishRoot(q, b.build(final), rootState{grouped: final.grouped, ordered: final.ordered})
	return &plan.QueryPlan{
		Root:      root,
		Cost:      root.TotalCost(),
		Usages:    b.usages,
		UsedViews: b.views,
	}, nil
}

// countEntry counts the usage and view records of the winning tree under
// e: one per index its leaf and view paths read, one per view, and one
// per index-NL join.
func countEntry(e *dpEntry) (nu, nv int) {
	if e.left == nil {
		for _, l := range e.path.legs {
			if l.ix != nil {
				nu++
			}
		}
		if e.path.spec.view != nil {
			nv++
		}
		return nu, nv
	}
	nu, nv = countEntry(e.left)
	a, b := countEntry(e.right)
	if e.method == plan.JoinIndexNL {
		nu++
	}
	return nu + a, nv + b
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
			spec.order = localCols(q.GroupBy)
		} else if !q.HasAggregates() && len(q.OrderBy) > 0 {
			spec.order = localCols(q.OrderBy)
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
func (o *Optimizer) requestAccess(oc *optCtx, cfg *physical.Configuration, spec *accessSpec) (accessPath, bool) {
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

// joinEdges returns the join predicates connecting two disjoint masks,
// and records their positions in q.Joins in oc.edgeAt. The result is
// backed by the call's scratch buffers: it is valid until the next
// joinEdges call, which matches its one-split lifetime.
func (o *Optimizer) joinEdges(oc *optCtx, q *BoundQuery, idx map[string]int, a, b uint64) []physical.JoinPred {
	out, at := oc.edges[:0], oc.edgeAt[:0]
	for i, j := range q.Joins {
		la, ra := maskHasCol(idx, a, j.L), maskHasCol(idx, a, j.R)
		lb, rb := maskHasCol(idx, b, j.L), maskHasCol(idx, b, j.R)
		if (la && rb) || (ra && lb) {
			out, at = append(out, j), append(at, i)
		}
	}
	oc.edges, oc.edgeAt = out, at
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

// crossAt reports whether a cross-table predicate over cols first becomes
// evaluable when sub and other join.
func crossAt(idx map[string]int, sub, other uint64, cols []sqlx.ColRef) bool {
	return maskHasAll(idx, sub|other, cols) && !maskHasAll(idx, sub, cols) && !maskHasAll(idx, other, cols)
}

// joinPlans prices the cheapest join of two sub-plans, considering hash
// join (both build directions), merge join, index nested loops
// (single-table inner), and plain nested loops as the universal fallback,
// with the cross-table filters that become evaluable at this mask on top.
// The entry records the winner's decision and price; treeBuilder makes
// its node only if it lands in the plan Optimize returns.
func (o *Optimizer) joinPlans(oc *optCtx, q *BoundQuery, cfg *physical.Configuration, idx map[string]int, mask, sub, other uint64, l, r *dpEntry, edges []physical.JoinPred) (dpEntry, bool) {
	outRows := o.selRows(q, idx, mask)
	// Filters newly evaluable at this mask.
	extraSel := 1.0
	for _, c := range q.CrossOthers {
		if crossAt(idx, sub, other, c.Cols) {
			extraSel *= c.Sel
		}
	}
	// outRows from selRows already includes every predicate in the mask;
	// the join node's raw output (before the extra filters) is larger.
	joinRows := outRows
	if extraSel > 0 && extraSel < 1 {
		joinRows = outRows / extraSel
	}

	// Candidates in pricing order; ties keep the earliest.
	e := dpEntry{left: l, right: r, joinRows: joinRows, filterSel: extraSel}
	bestTotal := inf
	consider := func(m plan.JoinMethod, swap bool, c plan.Cost) bool {
		if t := c.Total(); t < bestTotal {
			bestTotal, e.method, e.swap, e.joinCost = t, m, swap, c
			return true
		}
		return false
	}
	var sortL bool
	if len(edges) > 0 {
		consider(plan.JoinHash, false, o.hashJoinCost(l, r))
		consider(plan.JoinHash, true, o.hashJoinCost(r, l))
		lk, rk := oc.mergeKeys(q, idx, sub)
		lc, sorted := o.mergePrep(l, lk)
		rc, _ := o.mergePrep(r, rk)
		if consider(plan.JoinMerge, false, lc.Add(rc).Add(plan.Cost{CPU: o.model.CPURow * (l.rows + r.rows)})) {
			sortL = sorted
		}
		// Index nested loops: inner side must be a single base table.
		if pr, total, ok := o.indexNLCost(oc, q, cfg, other, l, edges, joinRows); ok && consider(plan.JoinIndexNL, false, total) {
			e.probe = pr
		}
		if pr, total, ok := o.indexNLCost(oc, q, cfg, sub, r, edges, joinRows); ok && consider(plan.JoinIndexNL, true, total) {
			e.probe = pr
		}
	}
	consider(plan.JoinNestedLoop, false, o.nlJoinCost(l, r, joinRows))
	consider(plan.JoinNestedLoop, true, o.nlJoinCost(r, l, joinRows))
	if bestTotal == inf {
		return dpEntry{}, false
	}

	// The join delivers its first input's order; a merge join's left
	// input is sorted on the join keys when it was not already.
	e.order = l.order
	if e.swap {
		e.order = r.order
	} else if e.method == plan.JoinMerge && sortL {
		e.order = slices.Clone(oc.lKeys)
	}
	e.total, e.rows = e.joinCost, joinRows
	if extraSel < 1 {
		e.total, e.rows = e.joinCost.Add(plan.Cost{CPU: o.model.CPURow * joinRows}), joinRows*extraSel
	}
	return e, true
}

// hashJoinCost prices a hash join that builds on build and probes with
// probe.
func (o *Optimizer) hashJoinCost(probe, build *dpEntry) plan.Cost {
	cost := probe.total.Add(build.total).
		Add(plan.Cost{CPU: o.model.CPUHash * (build.rows + probe.rows)})
	// Spill when the build side exceeds memory.
	if buildPages := build.rows * 64 / 8192; buildPages > float64(o.model.SortMemory) {
		cost = cost.Add(plan.Cost{IO: 2 * buildPages * o.model.SeqPage})
	}
	return cost
}

// mergeKeys resolves the columns of the edges the last joinEdges call
// found onto the left/right input (left = the tables in lMask) as the
// qualified names bind made. The returned slices are the call's scratch,
// valid until the next mergeKeys call.
func (oc *optCtx) mergeKeys(q *BoundQuery, idx map[string]int, lMask uint64) ([]string, []string) {
	lk, rk := oc.lKeys[:0], oc.rKeys[:0]
	for _, i := range oc.edgeAt {
		l, r := q.joinCols[i][0], q.joinCols[i][1]
		if !maskHasCol(idx, lMask, q.Joins[i].L) {
			l, r = r, l
		}
		lk, rk = append(lk, l), append(rk, r)
	}
	oc.lKeys, oc.rKeys = lk, rk
	return lk, rk
}

// mergePrep is the cost of one merge-join input delivered in keys order,
// and whether that takes a sort: the input already sorted on keys costs
// what it costs. Sorts preserve cardinality.
func (o *Optimizer) mergePrep(e *dpEntry, keys []string) (plan.Cost, bool) {
	if plan.OrderSatisfies(e.order, keys, nil) {
		return e.total, false
	}
	pages := e.rows * 64 / 8192
	return e.total.Add(o.model.SortCost(e.rows, pages)), true
}

// nlJoinCost prices a nested-loops join that scans the inner input once
// per outer row (the universal fallback, also the only method for cross
// products).
func (o *Optimizer) nlJoinCost(outer, inner *dpEntry, rows float64) plan.Cost {
	return outer.total.Add(inner.total.Scale(max(1, outer.rows))).
		Add(plan.Cost{CPU: o.model.CPURow * rows})
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

// appendProbeCols appends the inner table's columns of the join edges:
// the columns an index nested-loops join probes the inner side on.
func appendProbeCols(dst []string, edges []physical.JoinPred, innerTable string) []string {
	for _, e := range edges {
		if e.L.Table == innerTable {
			dst = append(dst, e.L.Column)
		} else if e.R.Table == innerTable {
			dst = append(dst, e.R.Column)
		}
	}
	return dst
}

// indexNLCost prices an index nested-loops join whose inner side is
// innerMask (which must be a single base table). It issues the
// inner-side index request (§2) and selects the best probe index; ok
// reports whether the candidate applies.
func (o *Optimizer) indexNLCost(oc *optCtx, q *BoundQuery, cfg *physical.Configuration, innerMask uint64, outer *dpEntry, edges []physical.JoinPred, rows float64) (probeResult, plan.Cost, bool) {
	if bits.OnesCount64(innerMask) != 1 {
		return probeResult{}, plan.Cost{}, false
	}
	innerTable := q.Tables[bits.TrailingZeros64(innerMask)]
	oc.probeCols = appendProbeCols(oc.probeCols[:0], edges, innerTable)
	if len(oc.probeCols) == 0 {
		return probeResult{}, plan.Cost{}, false
	}
	pr, ok := o.innerProbe(oc, q, cfg, innerTable, oc.probeCols)
	if !ok {
		return probeResult{}, plan.Cost{}, false
	}
	total := outer.total.Add(pr.cost.Scale(max(1, outer.rows))).
		Add(plan.Cost{CPU: o.model.CPURow * rows})
	return pr, total, true
}

// treeBuilder makes the plan Optimize returns from the winning DP tree,
// and on the same walk flattens its usage and view lists in the order
// left subtree, right subtree, then the entry's own records.
type treeBuilder struct {
	o      *Optimizer
	oc     *optCtx
	q      *BoundQuery
	usages []*plan.IndexUsage
	views  []string
}

// build returns e's plan. A join entry's node takes its recorded cost,
// rows and order; only a merge join's sorts are priced again, by the
// helper that priced them in the DP.
func (b *treeBuilder) build(e *dpEntry) plan.Node {
	if e.left == nil {
		node := b.access(e.path)
		if e.regroup {
			v := e.path.spec.view
			keys := make([]string, 0, len(b.q.GroupBy))
			for _, g := range b.q.GroupBy {
				if vc := v.ColumnForSource(g); vc != nil {
					keys = append(keys, v.Name+"."+vc.Name)
				}
			}
			node = plan.NewGroupBy(node, keys, plan.AggHash, e.rows, e.total)
		}
		return node
	}
	o, oc, idx := b.o, b.oc, b.oc.idx
	ln, rn := b.build(e.left), b.build(e.right)
	outer, inner := e.left, e.right
	if e.swap {
		ln, rn = rn, ln
		outer, inner = inner, outer
	}
	edges := slices.Clone(o.joinEdges(oc, b.q, idx, e.left.mask, e.right.mask))
	switch e.method {
	case plan.JoinMerge:
		lk, rk := oc.mergeKeys(b.q, idx, e.left.mask)
		if c, sorted := o.mergePrep(e.left, lk); sorted {
			ln = plan.NewSort(ln, e.order, c)
		}
		if c, sorted := o.mergePrep(e.right, rk); sorted {
			rn = plan.NewSort(rn, slices.Clone(rk), c)
		}
	case plan.JoinIndexNL:
		// The usage reflects the accumulated access over all probes.
		pr, probes := e.probe, max(1, outer.rows)
		u := &plan.IndexUsage{
			Index: pr.ix, Seek: true, SeekCols: pr.cols, SeekColSels: pr.colSels, Selectivity: pr.sel,
			Rows: pr.rows * probes, AccessCost: pr.cost.Scale(probes), NeededCols: pr.needed,
			LookedUp: pr.lookedUp,
		}
		b.usages = append(b.usages, u)
		probeCols := appendProbeCols(nil, edges, b.q.Tables[bits.TrailingZeros64(inner.mask)])
		rn = plan.NewIndexSeek(u.Index, probeCols, u.Selectivity, u.Rows, u.AccessCost, nil)
	}
	var node plan.Node = plan.NewJoin(e.method, ln, rn, edges, e.joinRows, e.order, e.joinCost)
	if e.filterSel < 1 {
		var preds []sqlx.Expr
		for _, c := range b.q.CrossOthers {
			if crossAt(idx, e.left.mask, e.right.mask, c.Cols) {
				preds = append(preds, c.Expr)
			}
		}
		node = plan.NewPredFilter(node, e.filterSel, preds, e.total)
	}
	return node
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
	*spec = accessSpec{table: table, rows: t.Rows, needed: needed}
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
	for _, ix := range cfg.IndexesOn(table) {
		info := o.seekPrefix(spec, ix)
		usesProbe := false
		for _, pc := range probeCols {
			if slices.Contains(info.cols, pc) {
				usesProbe = true
				break
			}
		}
		if !usesProbe {
			continue
		}
		matched := max(1e-9, float64(t.Rows)*info.sel)
		sh := o.sizer.IndexShape(ix, cfg)
		height, leafPages := sh.Height, sh.LeafPages
		perLeaf := max(1, matched/max(1, float64(t.Rows)/max(1, float64(leafPages))))
		cost := plan.Cost{
			IO:  (float64(height) + perLeaf) * o.model.RandPage,
			CPU: o.model.CPURow * matched,
		}
		onSel, offSel := o.residualAfter(spec, ix, info.cols)
		if !ix.Covers(needed) {
			clustered := cfg.ClusteredOn(table)
			pp := o.primaryPages(cfg, spec, clustered)
			cost = cost.Add(o.model.RidLookupCost(t.Rows, pp, matched*onSel))
		}
		outRows := matched * onSel * offSel
		if cost.Total() < bestTotal {
			bestTotal = cost.Total()
			best = probeResult{
				cost: cost, ix: ix, cols: info.cols, colSels: spec.colSels(info.cols), sel: info.sel,
				rows: outRows, lookedUp: !ix.Covers(needed), needed: needed,
			}
		}
	}
	return best, best.ix != nil
}
