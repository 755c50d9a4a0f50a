package optimizer

import (
	"slices"

	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/storage"
)

// accessSpec describes a single-relation access path problem: which
// table/view to read, under which sargable and residual predicates, with
// which required order and needed columns. All column names are local to
// the relation.
type accessSpec struct {
	table  string
	view   *physical.View // nil for base tables
	rows   int64
	sargs  []SargCond
	others []residCond
	order  []string
	needed []string
	// orderOptional marks interesting orders: when no index provides the
	// order the access path stays unsorted and the caller (e.g. the root,
	// which may prefer hash aggregation) decides how to compensate. When
	// false, an explicit sort is appended.
	orderOptional bool
	// qual prefixes column names in plan order properties ("table.col").
	qual string
	// width is the average byte width of the needed columns (sort sizing).
	width int
	// eqBound memoizes eqBoundCols — specs are per-call and
	// single-threaded, and the set is consulted once per candidate plan.
	eqBound map[string]bool
}

// findSarg returns the first sargable condition on col, or nil.
func (s *accessSpec) findSarg(col string) *SargCond {
	for i := range s.sargs {
		if s.sargs[i].Col == col {
			return &s.sargs[i]
		}
	}
	return nil
}

// residCond is one residual (non-sargable) conjunct: its local columns and
// selectivity.
type residCond struct {
	cols []string
	sel  float64
}

func (s *accessSpec) qualify(cols []string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = s.qual + "." + c
	}
	return out
}

// eqBoundCols returns the qualified columns bound to single points by the
// sargable predicates; such columns can be skipped when checking order
// satisfaction.
func (s *accessSpec) eqBoundCols() map[string]bool {
	if s.eqBound == nil {
		out := map[string]bool{}
		for _, c := range s.sargs {
			if c.Iv.IsPoint() {
				out[s.qual+"."+c.Col] = true
			}
		}
		s.eqBound = out
	}
	return s.eqBound
}

// accessResult couples a candidate plan with its index usage records.
type accessResult struct {
	node   plan.Node
	usages []*plan.IndexUsage
}

func (r *accessResult) cost() float64 {
	if r == nil || r.node == nil {
		return inf
	}
	return r.node.TotalCost().Total()
}

const inf = 1e308

// bestAccess generates the access path alternatives of Figure 1 — index
// seeks, rid intersections, rid lookups, covering scans, heap scans,
// residual filters and sorts — over the indexes available in cfg, and
// returns the cheapest.
func (o *Optimizer) bestAccess(oc *optCtx, cfg *physical.Configuration, spec *accessSpec) *accessResult {
	indexes := cfg.IndexesOn(spec.table)
	clustered := cfg.ClusteredOn(spec.table)

	var best *accessResult
	consider := func(r *accessResult) {
		if r != nil && r.node != nil && (best == nil || r.cost() < best.cost()) {
			best = r
		}
	}

	for _, ix := range indexes {
		consider(o.seekPlan(cfg, spec, ix, clustered))
		consider(o.scanPlan(cfg, spec, ix))
	}
	// Binary rid intersections between seekable secondary indexes; seek
	// prefixes are resolved once per index and shared across pairs.
	var seekable []*physical.Index
	var infos []seekInfo
	for _, ix := range indexes {
		if ix.Clustered {
			continue
		}
		if k, _ := o.seekPrefixLen(spec, ix); k > 0 {
			seekable = append(seekable, ix)
			infos = append(infos, o.seekPrefix(spec, ix))
		}
	}
	for i := 0; i < len(seekable); i++ {
		for j := i + 1; j < len(seekable); j++ {
			consider(o.intersectPlan(cfg, spec, seekable[i], seekable[j], infos[i], infos[j], clustered))
		}
	}
	if clustered == nil {
		consider(o.heapScanPlan(cfg, spec))
	} else if best == nil && spec.view == nil {
		// A heap table's promoted clustered index keeps the key and suffix
		// lists of the secondary index it came from, so Covers can fail on
		// it; once the last covering secondary index is gone the table
		// would have no access path at all. Its leaves are the table's
		// rows (the sizer sizes them so): scan them.
		best = o.fullScanPlan(cfg, spec, clustered)
	}
	return best
}

// seekInfo is the outcome of matching sargable predicates to a key
// prefix. The consumed sargable columns are exactly the matched prefix,
// so no separate "used" set is tracked; membership in cols answers it.
type seekInfo struct {
	cols    []string // matched key prefix (aliases the index's Keys)
	colSels []float64
	sel     float64
}

// seekPrefixLen returns the length and combined selectivity of the
// longest usable key prefix — equality-bound columns extend the prefix;
// the first range-bound column is consumed and ends it — without
// materializing per-column data.
func (o *Optimizer) seekPrefixLen(spec *accessSpec, ix *physical.Index) (int, float64) {
	k, sel := 0, 1.0
	for _, key := range ix.Keys {
		cond := spec.findSarg(key)
		if cond == nil {
			break
		}
		k++
		sel *= cond.Sel
		if !cond.Iv.IsPoint() {
			break // a range column ends the seekable prefix
		}
	}
	return k, sel
}

// seekPrefix resolves the longest usable key prefix with its per-column
// selectivities. The cols slice aliases the index's key list.
func (o *Optimizer) seekPrefix(spec *accessSpec, ix *physical.Index) seekInfo {
	k, _ := o.seekPrefixLen(spec, ix)
	info := seekInfo{sel: 1}
	if k == 0 {
		return info
	}
	info.cols = ix.Keys[:k:k]
	info.colSels = make([]float64, k)
	for i := 0; i < k; i++ {
		s := spec.findSarg(ix.Keys[i]).Sel
		info.colSels[i] = s
		info.sel *= s
	}
	return info
}

// residualAfter splits the predicates not consumed by a seek into those
// evaluable on the index (before any lookup) and those requiring fetched
// columns, returning the combined selectivities. used is the seek's
// matched key prefix.
func (o *Optimizer) residualAfter(spec *accessSpec, ix *physical.Index, used []string) (onSel, offSel float64, any bool) {
	onSel, offSel = 1, 1
	for _, c := range spec.sargs {
		if slices.Contains(used, c.Col) {
			continue
		}
		any = true
		if ix.HasColumn(c.Col) {
			onSel *= c.Sel
		} else {
			offSel *= c.Sel
		}
	}
	for _, rc := range spec.others {
		any = true
		on := true
		for _, c := range rc.cols {
			if !ix.HasColumn(c) {
				on = false
				break
			}
		}
		if on {
			onSel *= rc.sel
		} else {
			offSel *= rc.sel
		}
	}
	return onSel, offSel, any
}

// primaryPages returns the page count of the relation's primary structure
// (clustered index or heap) for rid-lookup costing.
func (o *Optimizer) primaryPages(cfg *physical.Configuration, spec *accessSpec, clustered *physical.Index) int64 {
	if clustered != nil {
		return o.sizer.IndexShape(clustered, cfg).LeafPages
	}
	return o.sizer.HeapPages(spec.table, cfg)
}

func (o *Optimizer) seekPlan(cfg *physical.Configuration, spec *accessSpec, ix *physical.Index, clustered *physical.Index) *accessResult {
	info := o.seekPrefix(spec, ix)
	if len(info.cols) == 0 {
		return nil
	}
	sh := o.sizer.IndexShape(ix, cfg)
	leafPages, height := sh.LeafPages, sh.Height
	rowsAfterSeek := float64(spec.rows) * info.sel
	access := plan.Cost{
		IO:  float64(height)*o.model.RandPage + storage.FracPages(leafPages, info.sel)*o.model.SeqPage,
		CPU: o.model.CPURow * rowsAfterSeek,
	}
	usage := &plan.IndexUsage{
		Index: ix, Seek: true, SeekCols: info.cols, SeekColSels: info.colSels, Selectivity: info.sel,
		Rows: rowsAfterSeek, AccessCost: access, NeededCols: spec.needed,
	}
	if spec.view != nil {
		usage.ViewName = spec.view.Name
	}
	var node plan.Node = plan.NewIndexSeek(ix, info.cols, info.sel, rowsAfterSeek, access, spec.qualify(ix.Keys))

	onSel, offSel, _ := o.residualAfter(spec, ix, info.cols)
	if onSel < 1 {
		node = plan.NewFilter(node, onSel, "index-residual", node.TotalCost().Add(plan.Cost{CPU: o.model.CPURow * node.OutRows()}))
	}
	if !ix.Covers(spec.needed) {
		k := node.OutRows()
		lk := o.model.RidLookupCost(spec.rows, o.primaryPages(cfg, spec, clustered), k)
		node = plan.NewRidLookup(node, spec.table, node.TotalCost().Add(lk))
		usage.LookedUp = true
	}
	if offSel < 1 {
		node = plan.NewFilter(node, offSel, "post-lookup-residual", node.TotalCost().Add(plan.Cost{CPU: o.model.CPURow * node.OutRows()}))
	}
	node, satisfied := o.enforceOrder(spec, node)
	if satisfied {
		usage.OrderCols = spec.order
	}
	return &accessResult{node: node, usages: []*plan.IndexUsage{usage}}
}

func (o *Optimizer) scanPlan(cfg *physical.Configuration, spec *accessSpec, ix *physical.Index) *accessResult {
	if !ix.Covers(spec.needed) {
		return nil // non-covering full scans are dominated by primary scans
	}
	return o.fullScanPlan(cfg, spec, ix)
}

// fullScanPlan reads every leaf of ix and filters.
func (o *Optimizer) fullScanPlan(cfg *physical.Configuration, spec *accessSpec, ix *physical.Index) *accessResult {
	leafPages := o.sizer.IndexShape(ix, cfg).LeafPages
	rows := float64(spec.rows)
	access := plan.Cost{IO: float64(leafPages) * o.model.SeqPage, CPU: o.model.CPURow * rows}
	usage := &plan.IndexUsage{
		Index: ix, Seek: false, Selectivity: 1,
		Rows: rows, AccessCost: access, NeededCols: spec.needed,
	}
	if spec.view != nil {
		usage.ViewName = spec.view.Name
	}
	var node plan.Node = plan.NewIndexScan(ix, rows, access, spec.qualify(ix.Keys))
	node = o.filterAll(spec, node)
	node, satisfied := o.enforceOrder(spec, node)
	if satisfied {
		usage.OrderCols = spec.order
	}
	return &accessResult{node: node, usages: []*plan.IndexUsage{usage}}
}

func (o *Optimizer) heapScanPlan(cfg *physical.Configuration, spec *accessSpec) *accessResult {
	pages := o.sizer.HeapPages(spec.table, cfg)
	rows := float64(spec.rows)
	access := plan.Cost{IO: float64(pages) * o.model.SeqPage, CPU: o.model.CPURow * rows}
	var node plan.Node = plan.NewHeapScan(spec.table, rows, access)
	node = o.filterAll(spec, node)
	node, _ = o.enforceOrder(spec, node)
	return &accessResult{node: node}
}

func (o *Optimizer) intersectPlan(cfg *physical.Configuration, spec *accessSpec, i1, i2 *physical.Index, s1, s2 seekInfo, clustered *physical.Index) *accessResult {
	if len(s1.cols) == 0 || len(s2.cols) == 0 {
		return nil
	}
	mkSeek := func(ix *physical.Index, info seekInfo) (plan.Node, *plan.IndexUsage) {
		sh := o.sizer.IndexShape(ix, cfg)
		leafPages, height := sh.LeafPages, sh.Height
		rows := float64(spec.rows) * info.sel
		access := plan.Cost{
			IO:  float64(height)*o.model.RandPage + storage.FracPages(leafPages, info.sel)*o.model.SeqPage,
			CPU: o.model.CPURow * rows,
		}
		u := &plan.IndexUsage{
			Index: ix, Seek: true, SeekCols: info.cols, SeekColSels: info.colSels, Selectivity: info.sel,
			Rows: rows, AccessCost: access, NeededCols: spec.needed,
			InIntersection: true, LookedUp: true,
		}
		if spec.view != nil {
			u.ViewName = spec.view.Name
		}
		return plan.NewIndexSeek(ix, info.cols, info.sel, rows, access, nil), u
	}
	n1, u1 := mkSeek(i1, s1)
	n2, u2 := mkSeek(i2, s2)
	outRows := float64(spec.rows) * s1.sel * s2.sel
	icost := n1.TotalCost().Add(n2.TotalCost()).Add(plan.Cost{CPU: o.model.CPUHash * (n1.OutRows() + n2.OutRows())})
	var node plan.Node = plan.NewRidIntersect(n1, n2, outRows, icost)

	// Intersections produce rids; fetch the rows, then apply residuals.
	lk := o.model.RidLookupCost(spec.rows, o.primaryPages(cfg, spec, clustered), outRows)
	node = plan.NewRidLookup(node, spec.table, node.TotalCost().Add(lk))
	residSel := 1.0
	for _, c := range spec.sargs {
		if !slices.Contains(s1.cols, c.Col) && !slices.Contains(s2.cols, c.Col) {
			residSel *= c.Sel
		}
	}
	for _, rc := range spec.others {
		residSel *= rc.sel
	}
	if residSel < 1 {
		node = plan.NewFilter(node, residSel, "post-intersect-residual", node.TotalCost().Add(plan.Cost{CPU: o.model.CPURow * node.OutRows()}))
	}
	node, _ = o.enforceOrder(spec, node)
	return &accessResult{node: node, usages: []*plan.IndexUsage{u1, u2}}
}

// filterAll applies every predicate of the spec as one residual filter.
func (o *Optimizer) filterAll(spec *accessSpec, node plan.Node) plan.Node {
	sel := 1.0
	for _, c := range spec.sargs {
		sel *= c.Sel
	}
	for _, rc := range spec.others {
		sel *= rc.sel
	}
	if sel >= 1 {
		return node
	}
	return plan.NewFilter(node, sel, "scan-residual", node.TotalCost().Add(plan.Cost{CPU: o.model.CPURow * node.OutRows()}))
}

// enforceOrder handles the spec's order requirement. It reports whether
// the access path provided the order "for free" (an index supplied it):
// in that case the index usage may record the exploited order. When the
// order is unsatisfied, a sort is appended — unless the order is
// optional, in which case the node is returned unsorted and the caller
// compensates.
func (o *Optimizer) enforceOrder(spec *accessSpec, node plan.Node) (plan.Node, bool) {
	if len(spec.order) == 0 {
		return node, false
	}
	want := spec.qualify(spec.order)
	if plan.OrderSatisfies(node.OutOrder(), want, spec.eqBoundCols()) {
		return node, true
	}
	if spec.orderOptional {
		return node, false
	}
	pages := node.OutRows() * float64(spec.width) / storage.PageSize
	sc := o.model.SortCost(node.OutRows(), pages)
	return plan.NewSort(node, want, node.TotalCost().Add(sc)), false
}
