package optimizer

import (
	"slices"

	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/sqlx"
	"repro/internal/storage"
)

// IndexAffectedByUpdate reports whether maintaining ix is required when q
// runs: INSERT and DELETE touch every index on the table; UPDATE touches
// the clustered index (rows are rewritten in place) and any secondary
// index containing a SET column.
func IndexAffectedByUpdate(q *BoundQuery, ix *physical.Index) bool {
	if q.Kind == sqlx.StmtSelect {
		return false
	}
	if ix.Table != q.UpdateTable {
		return false
	}
	if q.Kind != sqlx.StmtUpdate || ix.Clustered {
		return true
	}
	for _, c := range q.SetCols {
		if ix.HasColumn(c) {
			return true
		}
	}
	return false
}

// indexUpkeep estimates the cost of applying k row modifications to one
// index over view v (nil over a base table): the distinct leaf pages
// touched (random I/O) plus per-row delete/insert CPU work.
func (o *Optimizer) indexUpkeep(ix *physical.Index, v *physical.View, k float64) float64 {
	if k <= 0 {
		return 0
	}
	sh := o.sizer.ShapeOn(ix, v)
	touched := storage.RandomPages(sh.Rows, sh.LeafPages, k)
	height := float64(sh.Height)
	return touched*o.model.RandPage + height*o.model.RandPage + 2*k*o.model.CPURow
}

// viewMaintenanceRows estimates how many rows of view v are affected when
// k rows of base table change: scaled by the view-to-table cardinality
// ratio (an aggregated view typically absorbs many base rows per view
// row; an unaggregated join view can amplify them).
func (o *Optimizer) viewMaintenanceRows(v *physical.View, base string, k float64) float64 {
	t := o.db.Table(base)
	if t == nil || t.Rows <= 0 || v.EstRows <= 0 {
		return k
	}
	ratio := float64(v.EstRows) / float64(t.Rows)
	if ratio > 1 {
		ratio = 1 + (ratio-1)*0.5 // dampen join amplification
	}
	rows := k * ratio
	if rows < 1 {
		rows = 1
	}
	if rows > float64(v.EstRows) {
		rows = float64(v.EstRows)
	}
	return rows
}

// UpdateShellCost is the §3.6 update-shell cost of q under cfg for k
// affected rows: the maintenance cost of every affected index on the
// updated table plus the maintenance of every materialized view (and its
// indexes) referencing that table.
func (o *Optimizer) UpdateShellCost(q *BoundQuery, cfg *physical.Configuration, k float64) float64 {
	if q.Kind == sqlx.StmtSelect || q.UpdateTable == "" || k <= 0 {
		return 0
	}
	total := 0.0
	onTable := cfg.View(q.UpdateTable)
	for _, ix := range cfg.IndexesOn(q.UpdateTable) {
		if IndexAffectedByUpdate(q, ix) {
			total += o.indexUpkeep(ix, onTable, k)
		}
	}
	for _, v := range cfg.Views() {
		if !slices.Contains(v.Tables, q.UpdateTable) {
			continue
		}
		kv := o.viewMaintenanceRows(v, q.UpdateTable, k)
		for _, ix := range cfg.IndexesOn(v.Name) {
			total += o.indexUpkeep(ix, v, kv)
		}
	}
	return total
}

// UpdateShellDelta is UpdateShellCost(q, after, k) − UpdateShellCost(q,
// before, k) from the lists physical.RelationsApart collected for the
// step: the upkeep of every index list after holds and before does not
// hold as it is, minus the upkeep of every list before holds and after
// does not. A list both hold as it is adds the same terms to both shells
// and is in neither, so the result is the difference of the two shells up
// to the rounding of summing in another order.
func (o *Optimizer) UpdateShellDelta(q *BoundQuery, apart []physical.ListApart, k float64) float64 {
	if q.Kind == sqlx.StmtSelect || q.UpdateTable == "" || k <= 0 {
		return 0
	}
	delta := 0.0
	for i := range apart {
		a := &apart[i]
		if up := o.listUpkeep(q, a, k); a.Before {
			delta -= up
		} else {
			delta += up
		}
	}
	return delta
}

// listUpkeep is what one index list adds to q's update shell for k
// affected rows: its affected indexes when it is over the updated table,
// all of its indexes at the view's share of the rows when it is over a
// view referencing that table, nothing otherwise.
func (o *Optimizer) listUpkeep(q *BoundQuery, a *physical.ListApart, k float64) float64 {
	total := 0.0
	if a.Name == q.UpdateTable {
		for _, ix := range a.List {
			if IndexAffectedByUpdate(q, ix) {
				total += o.indexUpkeep(ix, a.View, k)
			}
		}
	}
	if v := a.View; v != nil && slices.Contains(v.Tables, q.UpdateTable) {
		kv := o.viewMaintenanceRows(v, q.UpdateTable, k)
		for _, ix := range a.List {
			total += o.indexUpkeep(ix, v, kv)
		}
	}
	return total
}

// QueryResult couples the optimized select-part plan with the update-shell
// cost under a configuration.
type QueryResult struct {
	Plan *plan.QueryPlan
	// SelectCost is the select part's estimated cost.
	SelectCost float64
	// UpdateCost is the index/view maintenance cost (0 for SELECTs).
	UpdateCost float64
	// AffectedRows is the estimated number of modified rows.
	AffectedRows float64
}

// TotalCost is SelectCost + UpdateCost.
func (r *QueryResult) TotalCost() float64 { return r.SelectCost + r.UpdateCost }

// OptimizeFull optimizes the select part and adds the update-shell cost,
// returning the complete per-query result under cfg.
func (o *Optimizer) OptimizeFull(q *BoundQuery, cfg *physical.Configuration) (*QueryResult, error) {
	p, err := o.Optimize(q, cfg)
	if err != nil {
		return nil, err
	}
	res := &QueryResult{Plan: p, SelectCost: p.Cost.Total()}
	if q.IsUpdate() {
		k := p.Root.OutRows()
		if q.Kind == sqlx.StmtInsert {
			k = float64(q.InsertRows)
		}
		res.AffectedRows = k
		res.UpdateCost = o.UpdateShellCost(q, cfg, k)
	}
	return res, nil
}
