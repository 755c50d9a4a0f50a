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
	// width is the average byte width of the needed columns (sort sizing).
	width int
	// eqBound memoizes eqBoundCols — specs are per-call and
	// single-threaded, and the set is consulted once per candidate path.
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

// qualify spells cols as plan order properties do ("table.col").
func (s *accessSpec) qualify(cols []string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = s.table + "." + c
	}
	return out
}

// eqBoundCols returns the local columns bound to single points by the
// sargable predicates; such columns can be skipped when checking order
// satisfaction.
func (s *accessSpec) eqBoundCols() map[string]bool {
	if s.eqBound == nil {
		out := map[string]bool{}
		for _, c := range s.sargs {
			if c.Iv.IsPoint() {
				out[c.Col] = true
			}
		}
		s.eqBound = out
	}
	return s.eqBound
}

// colSels returns the selectivity of each column of a seek prefix (nil
// for none).
func (s *accessSpec) colSels(cols []string) []float64 {
	if len(cols) == 0 {
		return nil
	}
	out := make([]float64, len(cols))
	for i, c := range cols {
		out[i] = s.findSarg(c).Sel
	}
	return out
}

const inf = 1e308

// pathKind is what an access path reads at its base (Figure 1).
type pathKind uint8

const (
	pathSeek      pathKind = iota // one index seek
	pathScan                      // a full index scan: covering, or a heap table's promoted clustered index
	pathHeap                      // a heap scan
	pathIntersect                 // two index seeks whose rids are intersected
)

// accessLeg is one index read — a seek over a key prefix, or a scan when
// the prefix is empty — with its own cost and rows.
type accessLeg struct {
	ix   *physical.Index
	seek seekInfo
	cost plan.Cost
	rows float64
}

// accessPath is one priced alternative of bestAccess: its base and the
// layers chain puts above it, with the cost after each layer, so
// treeBuilder makes the nodes and usage records of the winning path only.
// rows and order are what the path returns; order is qualified only on
// the path bestAccess returns.
type accessPath struct {
	spec       *accessSpec
	kind       pathKind
	legs       [2]accessLeg // a seek or scan reads legs[0]; an intersection both
	baseRows   float64
	onSel      float64 // residual on the index; 1 when none
	lookup     bool    // rid lookup into the primary structure
	offSel     float64 // residual after the lookup; 1 when none
	indexOrder bool    // the base's key order delivers spec.order
	sorted     bool    // a sort delivers spec.order
	// The cost after the base and after each layer above it.
	baseCost, onCost, lookupCost, offCost, total plan.Cost
	rows                                         float64
	order                                        []string
}

// bestAccess prices the access path alternatives of Figure 1 — index
// seeks, covering scans, rid intersections and heap scans, each with the
// residual filters, rid lookup and sort it needs — over the indexes
// available in cfg, and returns the cheapest; of equal costs, the first
// priced.
func (o *Optimizer) bestAccess(oc *optCtx, cfg *physical.Configuration, spec *accessSpec) (accessPath, bool) {
	clustered := cfg.ClusteredOn(spec.table)
	var best, c accessPath
	found := false
	keep := func() {
		if !found || c.total.Total() < best.total.Total() {
			best, found = c, true
		}
	}

	legs := oc.legs[:0] // seek legs of the secondary indexes, for intersections
	for _, ix := range cfg.IndexesOn(spec.table) {
		covers := ix.Covers(spec.needed)
		if info := o.seekPrefix(spec, ix); len(info.cols) > 0 {
			leg := o.seekLeg(cfg, spec, ix, info)
			c = accessPath{kind: pathSeek, legs: [2]accessLeg{leg}, lookup: !covers}
			c.onSel, c.offSel = o.residualAfter(spec, ix, info.cols)
			o.chain(cfg, spec, &c, leg.cost, leg.rows, ix.Keys, clustered)
			keep()
			if !ix.Clustered {
				legs = append(legs, leg)
			}
		}
		if covers { // non-covering full scans are dominated by primary scans
			o.scanPath(cfg, spec, &c, ix, clustered)
			keep()
		}
	}
	for i := range legs {
		for j := i + 1; j < len(legs); j++ {
			l1, l2 := legs[i], legs[j]
			residSel := 1.0
			for _, s := range spec.sargs {
				if !slices.Contains(l1.seek.cols, s.Col) && !slices.Contains(l2.seek.cols, s.Col) {
					residSel *= s.Sel
				}
			}
			for _, rc := range spec.others {
				residSel *= rc.sel
			}
			c = accessPath{kind: pathIntersect, legs: [2]accessLeg{l1, l2}, onSel: 1, lookup: true, offSel: residSel}
			base := l1.cost.Add(l2.cost).Add(plan.Cost{CPU: o.model.CPUHash * (l1.rows + l2.rows)})
			o.chain(cfg, spec, &c, base, float64(spec.rows)*l1.seek.sel*l2.seek.sel, nil, clustered)
			keep()
		}
	}
	oc.legs = legs

	if clustered == nil {
		rows := float64(spec.rows)
		base := plan.Cost{IO: float64(o.sizer.HeapPages(spec.table, cfg)) * o.model.SeqPage, CPU: o.model.CPURow * rows}
		c = accessPath{kind: pathHeap, onSel: allSel(spec), offSel: 1}
		o.chain(cfg, spec, &c, base, rows, nil, clustered)
		keep()
	} else if !found && spec.view == nil {
		// A heap table's promoted clustered index keeps the key and suffix
		// lists of the secondary index it came from, so Covers can fail on
		// it; once the last covering secondary index is gone the table
		// would have no access path at all. Its leaves are the table's
		// rows (the sizer sizes them so): scan them.
		o.scanPath(cfg, spec, &c, clustered, clustered)
		keep()
	}
	if best.sorted {
		best.order = spec.qualify(spec.order)
	} else if found && (best.kind == pathSeek || best.kind == pathScan) {
		best.order = spec.qualify(best.legs[0].ix.Keys)
	}
	return best, found
}

// seekInfo is the outcome of matching sargable predicates to a key
// prefix. The consumed sargable columns are exactly the matched prefix,
// so no separate "used" set is tracked; membership in cols answers it.
type seekInfo struct {
	cols []string // matched key prefix (aliases the index's Keys)
	sel  float64
}

// seekPrefix resolves the longest usable key prefix of ix and its
// combined selectivity: equality-bound columns extend the prefix; the
// first range-bound column is consumed and ends it.
func (o *Optimizer) seekPrefix(spec *accessSpec, ix *physical.Index) seekInfo {
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
	return seekInfo{cols: ix.Keys[:k:k], sel: sel}
}

// seekLeg prices a seek of ix over info's key prefix: one descent of the
// B-tree and the fraction of its leaves the prefix selects. A seek path
// and both legs of an intersection are priced here.
func (o *Optimizer) seekLeg(cfg *physical.Configuration, spec *accessSpec, ix *physical.Index, info seekInfo) accessLeg {
	sh := o.sizer.IndexShape(ix, cfg)
	rows := float64(spec.rows) * info.sel
	return accessLeg{ix: ix, seek: info, rows: rows, cost: plan.Cost{
		IO:  float64(sh.Height)*o.model.RandPage + storage.FracPages(sh.LeafPages, info.sel)*o.model.SeqPage,
		CPU: o.model.CPURow * rows,
	}}
}

// scanPath prices into p a read of every leaf of ix that filters on all
// the spec's predicates.
func (o *Optimizer) scanPath(cfg *physical.Configuration, spec *accessSpec, p *accessPath, ix, clustered *physical.Index) {
	rows := float64(spec.rows)
	leg := accessLeg{ix: ix, seek: seekInfo{sel: 1}, rows: rows, cost: plan.Cost{
		IO:  float64(o.sizer.IndexShape(ix, cfg).LeafPages) * o.model.SeqPage,
		CPU: o.model.CPURow * rows,
	}}
	*p = accessPath{kind: pathScan, legs: [2]accessLeg{leg}, onSel: allSel(spec), offSel: 1}
	o.chain(cfg, spec, p, leg.cost, rows, ix.Keys, clustered)
}

// allSel is the combined selectivity of every predicate of the spec.
func allSel(spec *accessSpec) float64 {
	sel := 1.0
	for _, c := range spec.sargs {
		sel *= c.Sel
	}
	for _, rc := range spec.others {
		sel *= rc.sel
	}
	return sel
}

// residualAfter splits the predicates not consumed by a seek into those
// evaluable on the index (before any lookup) and those requiring fetched
// columns, returning the combined selectivities. used is the seek's
// matched key prefix.
func (o *Optimizer) residualAfter(spec *accessSpec, ix *physical.Index, used []string) (onSel, offSel float64) {
	onSel, offSel = 1, 1
	for _, c := range spec.sargs {
		if slices.Contains(used, c.Col) {
			continue
		}
		if ix.HasColumn(c.Col) {
			onSel *= c.Sel
		} else {
			offSel *= c.Sel
		}
	}
	for _, rc := range spec.others {
		if !slices.ContainsFunc(rc.cols, func(c string) bool { return !ix.HasColumn(c) }) {
			onSel *= rc.sel
		} else {
			offSel *= rc.sel
		}
	}
	return onSel, offSel
}

// primaryPages returns the page count of the relation's primary structure
// (clustered index or heap) for rid-lookup costing.
func (o *Optimizer) primaryPages(cfg *physical.Configuration, spec *accessSpec, clustered *physical.Index) int64 {
	if clustered != nil {
		return o.sizer.IndexShape(clustered, cfg).LeafPages
	}
	return o.sizer.HeapPages(spec.table, cfg)
}

// chain prices the layers every kind of path shares above its base, in
// order: the residual on the index (p.onSel), the rid lookup (p.lookup),
// the residual after it (p.offSel), and the sort that spec.order needs
// when the base's key order (keys, local names) does not deliver it and
// the order is not optional. A filter costs one CPU row per input row.
func (o *Optimizer) chain(cfg *physical.Configuration, spec *accessSpec, p *accessPath, cost plan.Cost, rows float64, keys []string, clustered *physical.Index) {
	p.spec, p.baseRows, p.baseCost = spec, rows, cost
	if p.onSel < 1 {
		cost, rows = cost.Add(plan.Cost{CPU: o.model.CPURow * rows}), rows*p.onSel
	}
	p.onCost = cost
	if p.lookup {
		cost = cost.Add(o.model.RidLookupCost(spec.rows, o.primaryPages(cfg, spec, clustered), rows))
	}
	p.lookupCost = cost
	if p.offSel < 1 {
		cost, rows = cost.Add(plan.Cost{CPU: o.model.CPURow * rows}), rows*p.offSel
	}
	p.offCost = cost
	if len(spec.order) > 0 {
		p.indexOrder = plan.OrderSatisfies(keys, spec.order, spec.eqBoundCols())
		if !p.indexOrder && !spec.orderOptional {
			cost = cost.Add(o.model.SortCost(rows, rows*float64(spec.width)/storage.PageSize))
			p.sorted = true
		}
	}
	p.total, p.rows = cost, rows
}

// access makes the nodes of a path bestAccess returned, base first, and
// appends its index usage records and view to the plan's lists.
func (b *treeBuilder) access(p *accessPath) plan.Node {
	spec := p.spec
	onDesc, offDesc := "scan-residual", "post-lookup-residual"
	var n plan.Node
	switch p.kind {
	case pathSeek, pathScan:
		l, keys := &p.legs[0], p.order
		if p.sorted {
			keys = spec.qualify(l.ix.Keys)
		}
		if p.kind == pathScan {
			n = plan.NewIndexScan(l.ix, l.rows, l.cost, keys)
		} else {
			n = plan.NewIndexSeek(l.ix, l.seek.cols, l.seek.sel, l.rows, l.cost, keys)
			onDesc = "index-residual"
		}
	case pathHeap:
		n = plan.NewHeapScan(spec.table, p.baseRows, p.baseCost)
	case pathIntersect:
		l1, l2 := &p.legs[0], &p.legs[1]
		n = plan.NewRidIntersect(plan.NewIndexSeek(l1.ix, l1.seek.cols, l1.seek.sel, l1.rows, l1.cost, nil),
			plan.NewIndexSeek(l2.ix, l2.seek.cols, l2.seek.sel, l2.rows, l2.cost, nil), p.baseRows, p.baseCost)
		offDesc = "post-intersect-residual"
	}
	if p.onSel < 1 {
		n = plan.NewFilter(n, p.onSel, onDesc, p.onCost)
	}
	if p.lookup {
		n = plan.NewRidLookup(n, spec.table, p.lookupCost)
	}
	if p.offSel < 1 {
		n = plan.NewFilter(n, p.offSel, offDesc, p.offCost)
	}
	if p.sorted {
		n = plan.NewSort(n, p.order, p.total)
	}

	for i := range p.legs {
		l := &p.legs[i]
		if l.ix == nil {
			break
		}
		u := &plan.IndexUsage{
			Index: l.ix, Seek: len(l.seek.cols) > 0, SeekCols: l.seek.cols, SeekColSels: spec.colSels(l.seek.cols),
			Selectivity: l.seek.sel, Rows: l.rows, AccessCost: l.cost, NeededCols: spec.needed,
			LookedUp: p.lookup, InIntersection: p.kind == pathIntersect,
		}
		if p.indexOrder {
			u.OrderCols = spec.order
		}
		if spec.view != nil {
			u.ViewName = spec.view.Name
		}
		b.usages = append(b.usages, u)
	}
	if spec.view != nil {
		b.views = append(b.views, spec.view.Name)
	}
	return n
}
