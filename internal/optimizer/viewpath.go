package optimizer

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/sqlx"
)

// subsetBlock expresses the sub-query over one table subset as a 6-tuple
// view definition (§2: view requests are SPJG sub-queries). When grouped
// is true (full FROM set only) the block carries the query's GROUP BY and
// aggregate outputs.
func (o *Optimizer) subsetBlock(q *BoundQuery, idx map[string]int, mask uint64, grouped bool) *physical.View {
	var tables []string
	for i, t := range q.Tables {
		if mask&(1<<uint(i)) != 0 {
			tables = append(tables, t)
		}
	}
	sort.Strings(tables)
	inMask := func(c sqlx.ColRef) bool { return maskHasCol(idx, mask, c) }

	block := &physical.View{Tables: tables}
	for _, j := range q.Joins {
		if inMask(j.L) && inMask(j.R) {
			block.Joins = append(block.Joins, j)
		}
	}
	for _, t := range tables {
		tp := q.TablePred(t)
		for _, s := range tp.Sargs {
			block.Ranges = append(block.Ranges, physical.RangeCond{
				Col: sqlx.ColRef{Table: t, Column: s.Col}, Iv: s.Iv,
			})
		}
		for _, oc := range tp.Others {
			block.Others = append(block.Others, oc.Expr)
		}
	}
	for _, oc := range q.CrossOthers {
		if maskHasAll(idx, mask, oc.Cols) {
			block.Others = append(block.Others, oc.Expr)
		}
	}

	if grouped {
		block.GroupBy = append([]sqlx.ColRef(nil), q.GroupBy...)
		for _, vc := range q.SelectCols {
			addBlockCol(block, vc)
		}
		for _, g := range q.GroupBy {
			addBlockCol(block, physical.BaseViewColumn(g, o.colWidth(g)))
		}
		for _, ob := range q.OrderBy {
			if len(q.GroupBy) == 0 || containsRef(q.GroupBy, ob) {
				addBlockCol(block, physical.BaseViewColumn(ob, o.colWidth(ob)))
			}
		}
		block.EstRows = int64(o.groupCardinality(o.selRows(q, idx, mask), q.GroupBy))
	} else {
		for _, t := range tables {
			for _, c := range q.NeededCols(t) {
				ref := sqlx.ColRef{Table: t, Column: c}
				addBlockCol(block, physical.BaseViewColumn(ref, o.colWidth(ref)))
			}
		}
		block.EstRows = int64(o.selRows(q, idx, mask))
	}
	if block.EstRows < 1 {
		block.EstRows = 1
	}
	block.Name = physical.ViewNameFor(block)
	return block
}

func addBlockCol(v *physical.View, col physical.ViewColumn) {
	if v.Column(col.Name) == nil {
		v.Cols = append(v.Cols, col)
	}
}

func containsRef(list []sqlx.ColRef, c sqlx.ColRef) bool {
	for _, x := range list {
		if x == c {
			return true
		}
	}
	return false
}

func (o *Optimizer) colWidth(c sqlx.ColRef) int {
	t := o.db.Table(c.Table)
	if t == nil {
		return 8
	}
	col := t.Column(c.Column)
	if col == nil {
		return 8
	}
	return col.AvgWidth
}

// ViewDefinition converts a bound single-block SELECT into the 6-tuple
// view form covering its whole FROM set (with the query's grouping and
// aggregates), estimating the view's cardinality. Used to build
// user-supplied what-if views and baseline candidates.
func (o *Optimizer) ViewDefinition(q *BoundQuery) (*physical.View, error) {
	if q.IsUpdate() || len(q.Tables) == 0 {
		return nil, fmt.Errorf("optimizer: view definitions must be SELECT statements")
	}
	idx := tableIndexMap(q)
	full := uint64(1)<<uint(len(q.Tables)) - 1
	grouped := len(q.GroupBy) > 0 || q.HasAggregates()
	return o.subsetBlock(q, idx, full, grouped), nil
}

// viewPlans fires the view request(s) for a table subset (§2) and builds
// the cheapest plan that answers the subset from a matching materialized
// view in cfg, or nil when no view applies.
func (o *Optimizer) viewPlans(oc *optCtx, q *BoundQuery, cfg *physical.Configuration, idx map[string]int, mask uint64, isFull bool) *dpEntry {
	size := bits.OnesCount64(mask)
	queryGrouped := isFull && (len(q.GroupBy) > 0 || q.HasAggregates())
	if size < 2 && !queryGrouped {
		// Single-table SPJ sub-plans are fully served by index requests;
		// only grouped single-table blocks warrant a view.
		return nil
	}

	ungrouped, ukey := o.viewBlock(q, idx, mask, false)
	o.issueViewRequest(oc, ukey, ungrouped, false)
	var grouped *physical.View
	if queryGrouped {
		var gkey string
		grouped, gkey = o.viewBlock(q, idx, mask, true)
		o.issueViewRequest(oc, gkey, grouped, true)
	}

	var best *dpEntry
	consider := func(e *dpEntry) {
		if e != nil && (best == nil || e.cost() < best.cost()) {
			best = e
		}
	}
	for _, v := range cfg.Views() {
		if !v.HasTableSet(ungrouped.Tables) || v.EstRows <= 0 {
			continue
		}
		if len(cfg.IndexesOn(v.Name)) == 0 {
			continue // not materialized
		}
		if m := physical.MatchView(ungrouped, v); m != nil {
			consider(o.viewAccessPlan(oc, q, cfg, idx, v, m, mask, isFull, false))
		}
		if grouped != nil {
			if m := physical.MatchView(grouped, v); m != nil {
				consider(o.viewAccessPlan(oc, q, cfg, idx, v, m, mask, isFull, true))
			}
		}
	}
	return best
}

// viewBlockEntry is one memoized subsetBlock result (see viewBlock).
type viewBlockEntry struct {
	block *physical.View
	key   string
}

// viewBlock returns the memoized SPJG block for (mask, grouped) together
// with its request-dedup key. Blocks depend only on the bound query and
// the catalog statistics — never on the configuration being optimized —
// so each is computed once per query and shared across every what-if
// call and every forked worker. Sharing the block with hooks is safe:
// the interceptor clones it before storing it in a configuration.
func (o *Optimizer) viewBlock(q *BoundQuery, idx map[string]int, mask uint64, grouped bool) (*physical.View, string) {
	memoKey := mask << 1
	if grouped {
		memoKey |= 1
	}
	q.blockMu.Lock()
	e, ok := q.blockMemo[memoKey]
	q.blockMu.Unlock()
	if ok {
		return e.block, e.key
	}
	block := o.subsetBlock(q, idx, mask, grouped)
	key := "v|" + block.Signature()
	q.blockMu.Lock()
	if prev, ok := q.blockMemo[memoKey]; ok {
		// Lost a race with another worker: keep the first instance.
		block, key = prev.block, prev.key
	} else {
		if q.blockMemo == nil {
			q.blockMemo = map[uint64]viewBlockEntry{}
		}
		q.blockMemo[memoKey] = viewBlockEntry{block: block, key: key}
	}
	q.blockMu.Unlock()
	return block, key
}

// issueViewRequest counts the request and fires the hook, deduplicating
// by the block's signature within one optimization. The ViewRequest
// wrapper is materialized only when a hook is installed.
func (o *Optimizer) issueViewRequest(oc *optCtx, key string, block *physical.View, grouped bool) {
	if oc != nil {
		if oc.reqSeen[key] {
			return
		}
		oc.reqSeen[key] = true
	}
	o.stats.viewRequests.Add(1)
	if o.hooks != nil && o.hooks.OnViewRequest != nil {
		o.hooks.OnViewRequest(&ViewRequest{Block: block, Grouped: grouped})
	}
}

// viewAccessPlan builds an access path over a matched view, applying the
// match's compensating filters and (when needed) re-aggregation.
func (o *Optimizer) viewAccessPlan(oc *optCtx, q *BoundQuery, cfg *physical.Configuration, idx map[string]int, v *physical.View, m *physical.ViewMatch, mask uint64, isFull, groupedMatch bool) *dpEntry {
	spec := &accessSpec{
		table: v.Name,
		view:  v,
		rows:  v.EstRows,
		qual:  v.Name,
	}
	// Residual ranges become sargable over the view, with selectivities
	// conditioned on what the view already filters.
	for _, r := range m.ResidualRanges {
		vc := v.ColumnForSource(r.Col)
		qSel := o.intervalSelectivity(r.Col, r.Iv)
		vSel := 1.0
		for _, vr := range v.Ranges {
			if vr.Col == r.Col {
				vSel = o.intervalSelectivity(vr.Col, vr.Iv)
				break
			}
		}
		cond := qSel
		if vSel > 0 {
			cond = qSel / vSel
		}
		if cond > 1 {
			cond = 1
		}
		if vc != nil {
			spec.sargs = append(spec.sargs, SargCond{Col: vc.Name, Iv: r.Iv, Sel: cond})
		} else {
			spec.others = append(spec.others, residCond{sel: cond})
		}
	}
	// Residual joins and other conjuncts become filters.
	for _, j := range m.ResidualJoins {
		spec.others = append(spec.others, residCond{
			cols: o.mapViewCols(v, []sqlx.ColRef{j.L, j.R}),
			sel:  o.joinSelectivity(j),
		})
	}
	for _, e := range m.ResidualOthers {
		sel := o.lookupOtherSel(q, e)
		spec.others = append(spec.others, residCond{cols: o.mapViewCols(v, e.Columns(nil)), sel: sel})
	}

	// Needed columns over the view.
	neededSet := map[string]bool{}
	addNeeded := func(name string) {
		if name != "" && !neededSet[name] {
			neededSet[name] = true
			spec.needed = append(spec.needed, name)
		}
	}
	if groupedMatch {
		for _, g := range q.GroupBy {
			if vc := v.ColumnForSource(g); vc != nil {
				addNeeded(vc.Name)
			}
		}
		for _, sc := range q.SelectCols {
			if sc.Agg == sqlx.AggNone {
				if vc := v.ColumnForSource(sc.Source); vc != nil {
					addNeeded(vc.Name)
				}
				continue
			}
			for _, vc := range o.derivableAggCols(v, sc) {
				addNeeded(vc)
			}
		}
	} else {
		for i, t := range q.Tables {
			if mask&(1<<uint(i)) == 0 {
				continue
			}
			for _, c := range q.NeededCols(t) {
				if vc := v.ColumnForSource(sqlx.ColRef{Table: t, Column: c}); vc != nil {
					addNeeded(vc.Name)
				}
			}
		}
	}
	for _, s := range spec.sargs {
		addNeeded(s.Col)
	}
	for _, rc := range spec.others {
		for _, c := range rc.cols {
			addNeeded(c)
		}
	}
	spec.width = o.viewNeededWidth(v, spec.needed)

	// Order pushdown only at the root with no re-aggregation pending.
	regroup := m.NeedGroupBy || (!groupedMatch && (len(q.GroupBy) > 0 || q.HasAggregates()))
	if isFull && !regroup && len(q.OrderBy) > 0 {
		var ord []string
		ok := true
		for _, ob := range q.OrderBy {
			vc := v.ColumnForSource(ob)
			if vc == nil {
				ok = false
				break
			}
			ord = append(ord, vc.Name)
		}
		if ok {
			spec.order = ord
		}
	}

	res := o.requestAccess(oc, cfg, spec)
	if res == nil {
		return nil
	}
	node := res.node
	entry := oc.newEntry()
	entry.usages = res.usages
	entry.views = []string{v.Name}
	// The view plan's order properties use view-local names; flag order
	// delivery explicitly so the root does not add a redundant sort.
	if len(spec.order) > 0 && plan.OrderSatisfies(node.OutOrder(), spec.qualify(spec.order), spec.eqBoundCols()) {
		entry.ordered = true
	}
	if regroup {
		keys := make([]string, 0, len(q.GroupBy))
		for _, g := range q.GroupBy {
			if vc := v.ColumnForSource(g); vc != nil {
				keys = append(keys, v.Name+"."+vc.Name)
			}
		}
		groups := o.groupCardinality(o.selRows(q, idx, mask), q.GroupBy)
		if len(q.GroupBy) == 0 {
			groups = 1
		}
		if groupedMatch || isFull {
			node = plan.NewGroupBy(node, keys, plan.AggHash, groups, node.TotalCost().Add(o.model.HashAggCost(node.OutRows())))
			entry.grouped = true
		}
	} else if groupedMatch {
		entry.grouped = true
	}
	entry.node = node
	return entry
}

// derivableAggCols returns the view columns needed to derive an aggregate
// output (SUM→SUM, COUNT→COUNT, AVG→SUM+COUNT or AVG).
func (o *Optimizer) derivableAggCols(v *physical.View, sc physical.ViewColumn) []string {
	var out []string
	switch sc.Agg {
	case sqlx.AggAvg:
		if c := v.AggColumnFor(sqlx.AggSum, sc.Source); c != nil {
			out = append(out, c.Name)
		}
		if c := v.AggColumnFor(sqlx.AggCount, sqlx.ColRef{}); c != nil {
			out = append(out, c.Name)
		} else if c := v.AggColumnFor(sqlx.AggCount, sc.Source); c != nil {
			out = append(out, c.Name)
		}
		if len(out) == 0 {
			if c := v.AggColumnFor(sqlx.AggAvg, sc.Source); c != nil {
				out = append(out, c.Name)
			}
		}
	case sqlx.AggCount:
		if c := v.AggColumnFor(sqlx.AggCount, sc.Source); c != nil {
			out = append(out, c.Name)
		} else if c := v.AggColumnFor(sqlx.AggCount, sqlx.ColRef{}); c != nil {
			out = append(out, c.Name)
		}
	default:
		if c := v.AggColumnFor(sc.Agg, sc.Source); c != nil {
			out = append(out, c.Name)
		}
	}
	return out
}

func (o *Optimizer) mapViewCols(v *physical.View, refs []sqlx.ColRef) []string {
	var out []string
	for _, r := range refs {
		if vc := v.ColumnForSource(r); vc != nil {
			out = append(out, vc.Name)
		}
	}
	return out
}

func (o *Optimizer) lookupOtherSel(q *BoundQuery, e sqlx.Expr) float64 {
	for _, tp := range q.Preds {
		for _, oc := range tp.Others {
			if oc.Expr.EqualExpr(e) {
				return oc.Sel
			}
		}
	}
	for _, oc := range q.CrossOthers {
		if oc.Expr.EqualExpr(e) {
			return oc.Sel
		}
	}
	return 0.5
}

func (o *Optimizer) viewNeededWidth(v *physical.View, needed []string) int {
	w := 0
	for _, n := range needed {
		if c := v.Column(n); c != nil {
			w += c.Width
		}
	}
	if w == 0 {
		w = 8
	}
	return w
}
