package core

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/sqlx"
	"repro/internal/storage"
)

// scaledEstimateMargin pads linearly scaled access-cost estimates so the
// §3.3.2 bound stays an upper bound despite per-access cost floors the
// scaling cannot see.
const scaledEstimateMargin = 1.15

// Delta is the estimated effect of one transformation: an upper bound on
// the workload cost increase (which can be negative for update workloads)
// and the exact storage saving.
type Delta struct {
	// DT is the §3.3.2 upper bound on cost increase in time units.
	DT float64
	// DS is the space saved in bytes (Space(C) − Space(C')).
	DS int64
}

// BoundDelta computes (ΔT, ΔS) for applying tr to ec.Config without
// re-optimizing any workload query (§3.3.2). The only optimizer calls it
// may trigger are one-time cached CBV computations for view removals.
// Merged views in tr must already carry estimated cardinalities.
func (t *Tuner) BoundDelta(ec *EvaluatedConfig, tr *physical.Transformation) (Delta, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.boundDelta(ec, tr)
}

// penaltyPhase maps a transformation kind to its profiler phase name,
// precomputed so the per-candidate hot path never concatenates strings.
var penaltyPhase = func() (a [physical.TransRemoveView + 1]string) {
	for k := range a {
		a[k] = "search/penalty/" + physical.TransKind(k).String()
	}
	return a
}()

func penaltyPhaseName(k physical.TransKind) string {
	if int(k) < len(penaltyPhase) {
		return penaltyPhase[k]
	}
	return "search/penalty/" + k.String()
}

func (t *Tuner) boundDelta(ec *EvaluatedConfig, tr *physical.Transformation) (Delta, error) {
	if p := t.Options.Profile; p.Enabled() {
		defer p.Since(penaltyPhaseName(tr.Kind), time.Now())
	}
	cfgAfter := tr.Apply(ec.Config)
	sizer := t.Opt.Sizer()
	// ΔS over the lists Apply installed: every other relation is the same
	// list on both sides and cancels.
	d := Delta{DS: sizer.SavedBytes(ec.Config, cfgAfter)}
	if t.shadow {
		if full := ec.SizeBytes - sizer.ConfigBytes(cfgAfter); d.DS != full {
			return Delta{}, fmt.Errorf("core: ΔS of %s over the lists it touched is %d, over the whole configuration %d", tr.ID(), d.DS, full)
		}
	}

	// Removed structures, tracked in stack-backed slices: transformations
	// remove at most two indexes and two views directly, so the maps this
	// used to allocate per candidate were pure overhead (view-removal
	// cascades may grow past the arrays, which append handles).
	var remIdxArr [2]string
	removedIdx := remIdxArr[:0]
	if tr.I1 != nil {
		if id := tr.I1.ID(); !cfgAfter.HasIndex(id) {
			removedIdx = append(removedIdx, id)
		}
	}
	if tr.I2 != nil {
		if id := tr.I2.ID(); !cfgAfter.HasIndex(id) {
			removedIdx = append(removedIdx, id)
		}
	}
	var remViewArr [2]string
	removedViews := remViewArr[:0]
	for _, vn := range tr.RemovedViewNames() {
		if cfgAfter.View(vn) == nil {
			removedViews = append(removedViews, vn)
			// Cascaded view indexes count as removed too.
			for _, ix := range ec.Config.IndexesOn(vn) {
				removedIdx = append(removedIdx, ix.ID())
			}
		}
	}
	if len(removedIdx) == 0 && len(removedViews) == 0 {
		return d, nil
	}
	contains := func(list []string, s string) bool {
		for _, x := range list {
			if x == s {
				return true
			}
		}
		return false
	}

	for i, tq := range t.Queries {
		res := ec.Results[i]
		w := tq.Query.Weight
		if res.Plan != nil {
			for _, u := range res.Plan.Usages {
				if !contains(removedIdx, u.Index.ID()) && !(u.ViewName != "" && contains(removedViews, u.ViewName)) {
					continue
				}
				inc, err := t.usageBound(ec, cfgAfter, tr, u)
				if err != nil {
					return Delta{}, err
				}
				d.DT += w * inc
			}
		}
		// The update-shell term is optimizer-free and taken over the index
		// lists tr changes (UpdateShellDelta), so it reads nothing a step
		// on other lists can move. A statement whose table tr cannot reach
		// has none of those lists in its shell and is skipped.
		if tq.Bound.IsUpdate() && reachesTable(ec.Config, tr, tq.Bound.UpdateTable) {
			shell := t.Opt.UpdateShellDelta(tq.Bound, ec.Config, cfgAfter, res.AffectedRows)
			if t.fullShell != nil {
				shell = t.fullShell(tq.Bound, cfgAfter, res)
			}
			d.DT += w * shell
		}
	}
	return d, nil
}

// reachesTable reports whether tr can change the update-shell cost of
// statements modifying table: the shell reads the indexes on the table and
// on every view referencing it, so tr reaches the table when the indexes it
// adds and removes sit on it or on such a view (cfg resolves the view), or
// when a view it removes or creates references it. Where it does not, no
// list tr changes is in that shell and UpdateShellDelta is exactly 0.
func reachesTable(cfg *physical.Configuration, tr *physical.Transformation, table string) bool {
	if tr.I1 != nil {
		if v := cfg.View(tr.I1.Table); v != nil {
			return slices.Contains(v.Tables, table)
		}
		return tr.I1.Table == table
	}
	for _, v := range [...]*physical.View{tr.V1, tr.V2, tr.VM} {
		if v != nil && slices.Contains(v.Tables, table) {
			return true
		}
	}
	return false
}

// usageBound bounds the cost increase of one index usage when its index
// disappears under tr (§3.3.2's per-usage procedure).
func (t *Tuner) usageBound(ec *EvaluatedConfig, cfgAfter *physical.Configuration, tr *physical.Transformation, u *plan.IndexUsage) (float64, error) {
	old := u.AccessCost.Total()
	switch tr.Kind {
	case physical.TransMergeIndexes, physical.TransPrefixIndex, physical.TransPromoteClustered:
		return t.replacementCost(ec, cfgAfter, u, tr.NewIdx[0]) - old, nil
	case physical.TransSplitIndexes:
		common, r1, r2 := physical.SplitIndexes(tr.I1, tr.I2)
		if common == nil {
			return 0, nil
		}
		resid := r1
		if u.Index.ID() == tr.I2.ID() {
			resid = r2
		}
		newCost := t.replacementCost(ec, cfgAfter, u, common)
		if resid != nil {
			newCost += t.replacementCost(ec, cfgAfter, u, resid)
			// Rid intersection of the two partial results.
			newCost += t.Opt.Model().CPUHash * 2 * u.Rows
		}
		return newCost - old, nil
	case physical.TransRemoveIndex:
		return t.removalBound(ec, cfgAfter, u) - old, nil
	case physical.TransMergeViews:
		return t.viewMergeBound(ec, cfgAfter, tr, u) - old, nil
	case physical.TransRemoveView:
		cbv, err := t.costFromBase(tr.V1)
		if err != nil {
			return 0, err
		}
		return cbv + t.viewScanCost(tr.V1) - old, nil
	default:
		return 0, nil
	}
}

// replacementCost bounds the cost of re-answering u's request with ir
// (§3.3.2): scans scale linearly with size; seeks scale with the shared
// key prefix's selectivity and size; missing columns add rid lookups;
// incompatible orders add a sort.
func (t *Tuner) replacementCost(ec *EvaluatedConfig, cfgAfter *physical.Configuration, u *plan.IndexUsage, ir *physical.Index) float64 {
	sizer := t.Opt.Sizer()
	model := t.Opt.Model()
	shR := sizer.IndexShape(ir, cfgAfter)
	szI := float64(sizer.IndexBytes(u.Index, ec.Config))
	szR := float64(shR.Bytes)
	if szI <= 0 {
		szI = 1
	}
	old := u.AccessCost.Total()
	var newCost float64
	if !u.Seek {
		newCost = old * szR / szI
	} else {
		// Longest common column prefix between the seek columns used on I
		// and IR's keys.
		n := 0
		for n < len(u.SeekCols) && n < len(ir.Keys) && u.SeekCols[n] == ir.Keys[n] {
			n++
		}
		sIR := 1.0
		for i := 0; i < n && i < len(u.SeekColSels); i++ {
			sIR *= u.SeekColSels[i]
		}
		sI := u.Selectivity
		if sI <= 0 {
			sI = 1e-9
		}
		newCost = old * (sIR * szR) / (sI * szI)
	}
	// Linear scaling misses per-access floors (B-tree descent, minimum
	// page touches); pad the estimate so it stays an upper bound.
	newCost = newCost*scaledEstimateMargin + float64(shR.Height)*model.RandPage
	// Rid lookups when IR cannot provide every needed column.
	if !ir.Clustered && !ir.Covers(u.NeededCols) {
		rows, pages := t.primaryShape(ec, cfgAfter, ir.Table)
		newCost += model.RidLookupCost(rows, pages, u.Rows).Total()
	}
	// Sort when the exploited order is incompatible with IR's keys.
	if len(u.OrderCols) > 0 && u.Index.SharedKeyPrefixLen(ir) < len(u.OrderCols) {
		newCost += model.SortCost(u.Rows, u.Rows*64/storage.PageSize).Total()
	}
	return newCost
}

// removalBound bounds the cost of losing u.Index entirely: the cheapest
// replacement among the surviving indexes on the same relation, or a
// primary-structure scan.
func (t *Tuner) removalBound(ec *EvaluatedConfig, cfgAfter *physical.Configuration, u *plan.IndexUsage) float64 {
	best := t.primaryScanCost(ec, cfgAfter, u)
	for _, ir := range cfgAfter.IndexesOn(u.Index.Table) {
		if c := t.replacementCost(ec, cfgAfter, u, ir); c < best {
			best = c
		}
	}
	return best
}

// primaryScanCost is the fallback of scanning the relation's primary
// structure (clustered index or heap) plus any required sort.
func (t *Tuner) primaryScanCost(ec *EvaluatedConfig, cfgAfter *physical.Configuration, u *plan.IndexUsage) float64 {
	model := t.Opt.Model()
	rows, pages := t.primaryShape(ec, cfgAfter, u.Index.Table)
	// Scan CPU plus one residual-filter pass (the scan plan re-applies
	// the predicates the original seek evaluated implicitly).
	cost := float64(pages)*model.SeqPage + 2*float64(rows)*model.CPURow
	if len(u.OrderCols) > 0 {
		cost += model.SortCost(u.Rows, u.Rows*64/storage.PageSize).Total()
	}
	return cost
}

// primaryShape returns the row and page counts of a relation's primary
// structure under cfgAfter.
func (t *Tuner) primaryShape(ec *EvaluatedConfig, cfgAfter *physical.Configuration, table string) (int64, int64) {
	sizer := t.Opt.Sizer()
	if cl := cfgAfter.ClusteredOn(table); cl != nil {
		sh := sizer.IndexShape(cl, cfgAfter)
		return sh.Rows, sh.LeafPages
	}
	if v := cfgAfter.View(table); v != nil {
		return v.EstRows, storage.HeapPages(v.EstRows, v.RowWidth())
	}
	tb := t.DB.Table(table)
	if tb == nil {
		return 1, 1
	}
	return tb.Rows, storage.HeapPages(tb.Rows, tb.RowWidth())
}

// viewMergeBound bounds the cost of answering u (an access to an index on
// V1 or V2) with the corresponding promoted index on VM, adding the
// compensating filter and group-by operations the rewriting needs.
func (t *Tuner) viewMergeBound(ec *EvaluatedConfig, cfgAfter *physical.Configuration, tr *physical.Transformation, u *plan.IndexUsage) float64 {
	model := t.Opt.Model()
	src := tr.V1
	if u.ViewName == tr.V2.Name {
		src = tr.V2
	}
	ir := physical.PromoteIndexToView(u.Index, src, tr.VM)
	if ir == nil {
		// The index could not be promoted: fall back to the clustered
		// index of the merged view.
		if cl := cfgAfter.ClusteredOn(tr.VM.Name); cl != nil {
			ir = cl
		} else {
			// Worst case: treat like view removal.
			cbv, err := t.costFromBase(src)
			if err != nil {
				cbv = u.AccessCost.Total() * 10
			}
			return cbv + t.viewScanCost(src)
		}
	}
	newCost := t.replacementCost(ec, cfgAfter, u, ir)
	// Rows surviving in VM that correspond to this access: scale by the
	// cardinality ratio (VM is a superset of V1/V2 rows).
	scaledRows := u.Rows
	if src.EstRows > 0 && tr.VM.EstRows > src.EstRows {
		scaledRows = u.Rows * float64(tr.VM.EstRows) / float64(src.EstRows)
	}
	// Compensating filter for predicates VM no longer applies (widened or
	// dropped ranges, dropped joins, dropped other conjuncts).
	if len(src.Ranges) > 0 || len(src.Joins) != len(tr.VM.Joins) || len(src.Others) != len(tr.VM.Others) {
		newCost += model.CPURow * scaledRows
	}
	// Compensating group-by when the grouping changed.
	if !sameGrouping(src, tr.VM) {
		newCost += model.HashAggCost(scaledRows).Total()
	}
	return newCost
}

func sameGrouping(a, b *physical.View) bool {
	if len(a.GroupBy) != len(b.GroupBy) {
		return false
	}
	for _, g := range a.GroupBy {
		found := false
		for _, h := range b.GroupBy {
			if g == h {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// viewScanCost is the cost of scanning the view's rows once (the implied
// plan after view removal replaces each index usage with a scan of V).
func (t *Tuner) viewScanCost(v *physical.View) float64 {
	model := t.Opt.Model()
	pages := storage.HeapPages(v.EstRows, v.RowWidth())
	return float64(pages)*model.SeqPage + float64(v.EstRows)*model.CPURow
}

// costFromBase returns CBV: the cost of computing the view's definition
// under the base configuration (§3.3.2's view-removal bound), cached by
// view signature. The computation is singleflighted: when parallel
// penalty-estimation workers race for the same signature, exactly one
// optimizes the view and the rest wait on it, so the session's
// optimizer-call count matches the serial run.
func (t *Tuner) costFromBase(v *physical.View) (float64, error) {
	sig := v.Signature()
	t.cbvMu.Lock()
	e, ok := t.cbvCache[sig]
	if !ok {
		e = &cbvEntry{}
		t.cbvCache[sig] = e
	}
	t.cbvMu.Unlock()
	e.once.Do(func() { e.cost, e.err = t.computeCBV(v) })
	return e.cost, e.err
}

// computeCBV optimizes the view's definition under the base configuration.
func (t *Tuner) computeCBV(v *physical.View) (float64, error) {
	stmt, err := sqlx.Parse(v.SQL())
	if err != nil {
		return 0, fmt.Errorf("core: rendering view %s for CBV: %w", v.Name, err)
	}
	bound, err := optimizer.Bind(t.DB, stmt)
	if err != nil {
		return 0, fmt.Errorf("core: binding view %s for CBV: %w", v.Name, err)
	}
	p, err := t.Opt.Optimize(bound, t.Base)
	if err != nil {
		return 0, fmt.Errorf("core: optimizing view %s for CBV: %w", v.Name, err)
	}
	return p.Cost.Total(), nil
}
