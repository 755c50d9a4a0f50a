package physical

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"

	"repro/internal/sqlx"
)

// MergeViews computes the merged view VM of §3.1.2 for V1 and V2:
//
//	FM = F1 = F2 (merging requires equal FROM sets)
//	JM = J1 ∩ J2
//	RM = per-column interval hulls; predicates that become unbounded, or
//	     appear in only one input, are eliminated (their columns are kept
//	     in SM — and GM when grouping survives — so compensating filters
//	     can still be evaluated, as the paper's footnote 7 prescribes)
//	OM = O1 ∩ O2 (structural conjunct equality)
//	GM = G1 ∪ G2 when both are non-empty, else ∅
//	SM = S1 ∪ S2 when GM ≠ ∅; otherwise aggregates are replaced by their
//	     underlying base columns
//
// widthOf supplies average column widths for base columns that must be
// added to SM. The merged view's EstRows is left at zero; the caller must
// estimate it with the optimizer's cardinality module. MergeViews returns
// nil when the views are not mergeable.
func MergeViews(v1, v2 *View, widthOf func(sqlx.ColRef) int) *View {
	if !v1.HasTableSet(v2.Tables) {
		return nil
	}
	vm := &View{Tables: append([]string(nil), v1.Tables...)}

	// JM = J1 ∩ J2. Columns of dropped join predicates must stay available
	// for compensating filters.
	var extraCols []sqlx.ColRef
	for _, j := range v1.Joins {
		if slices.Contains(v2.Joins, j) {
			vm.Joins = append(vm.Joins, j)
		}
	}
	for _, j := range append(append([]JoinPred(nil), v1.Joins...), v2.Joins...) {
		if !slices.Contains(vm.Joins, j) {
			extraCols = append(extraCols, j.L, j.R)
		}
	}

	// RM: hull per column; single-sided or unbounded hulls are dropped.
	ranges := map[sqlx.ColRef][]Interval{}
	for _, r := range v1.Ranges {
		ranges[r.Col] = append(ranges[r.Col], r.Iv)
	}
	for _, r := range v2.Ranges {
		ranges[r.Col] = append(ranges[r.Col], r.Iv)
	}
	rangeCols := make([]sqlx.ColRef, 0, len(ranges))
	for col := range ranges {
		rangeCols = append(rangeCols, col)
	}
	sort.Slice(rangeCols, func(i, j int) bool { return rangeCols[i].Less(rangeCols[j]) })
	for _, col := range rangeCols {
		ivs := ranges[col]
		// Every range column can carry a compensating filter after the
		// merge, so it must be exposed in the view output.
		extraCols = append(extraCols, col)
		if len(ivs) != 2 {
			continue // present in only one input: predicate dropped
		}
		hull := ivs[0].Hull(ivs[1])
		if hull.Unbounded() {
			continue // eliminated altogether (paper's example: a<10 ∪ a>5)
		}
		vm.Ranges = append(vm.Ranges, RangeCond{Col: col, Iv: hull})
	}

	// OM = O1 ∩ O2 with structural equality; dropped conjuncts keep their
	// columns available.
	for _, o := range v1.Others {
		if containsExpr(v2.Others, o) {
			vm.Others = append(vm.Others, o)
		}
	}
	for _, o := range append(append([]sqlx.Expr(nil), v1.Others...), v2.Others...) {
		if !containsExpr(vm.Others, o) {
			extraCols = append(extraCols, o.Columns(nil)...)
		}
	}

	grouped := len(v1.GroupBy) > 0 && len(v2.GroupBy) > 0
	if grouped {
		// GM = G1 ∪ G2; SM = S1 ∪ S2 plus compensating columns, and every
		// base column of SM joins the grouping so the view stays
		// well-formed (footnote 7's "small number of additional columns").
		vm.GroupBy = unionColRefs(v1.GroupBy, v2.GroupBy)
		for _, c := range v1.Cols {
			addViewCol(vm, c)
		}
		for _, c := range v2.Cols {
			addViewCol(vm, c)
		}
		for _, col := range sqlx.DedupColRefs(extraCols) {
			addViewCol(vm, BaseViewColumn(col, widthOf(col)))
		}
		for _, c := range vm.Cols {
			if c.Agg == sqlx.AggNone && !slices.Contains(vm.GroupBy, c.Source) {
				vm.GroupBy = append(vm.GroupBy, c.Source)
			}
		}
	} else {
		// GM = ∅: the merged view holds raw SPJ rows, so aggregates are
		// replaced by the base columns they aggregate (S'A in the paper).
		for _, c := range append(append([]ViewColumn(nil), v1.Cols...), v2.Cols...) {
			if c.Agg == sqlx.AggNone {
				addViewCol(vm, c)
				continue
			}
			if c.Source == (sqlx.ColRef{}) {
				continue // COUNT(*) needs no stored column in a raw view
			}
			addViewCol(vm, BaseViewColumn(c.Source, widthOf(c.Source)))
		}
		// Group-by columns of either input become plain columns.
		for _, g := range append(append([]sqlx.ColRef(nil), v1.GroupBy...), v2.GroupBy...) {
			addViewCol(vm, BaseViewColumn(g, widthOf(g)))
		}
		for _, col := range sqlx.DedupColRefs(extraCols) {
			addViewCol(vm, BaseViewColumn(col, widthOf(col)))
		}
	}
	vm.Name = ViewNameFor(vm)
	return vm
}

// addViewCol appends col unless an identically named column exists.
func addViewCol(v *View, col ViewColumn) {
	if v.Column(col.Name) == nil {
		v.Cols = append(v.Cols, col)
	}
}

// ViewNameFor derives a stable short name from the view's signature, and
// seals that signature on v: callers name a view as the last step of
// building it, before anything else can see it.
func ViewNameFor(v *View) string {
	v.sig = v.buildSignature()
	h := fnv.New64a()
	_, _ = h.Write([]byte(v.sig))
	return fmt.Sprintf("v_%s_%08x", strings.ToLower(strings.Join(shortTables(v.Tables), "_")), h.Sum64()&0xffffffff)
}

func shortTables(tables []string) []string {
	out := make([]string, len(tables))
	for i, t := range tables {
		if len(t) > 4 {
			t = t[:4]
		}
		out[i] = t
	}
	return out
}

// PromoteIndexToView maps an index defined over src onto the merged view
// vm, renaming columns: identical view-column names carry over; aggregate
// columns that were replaced by base columns during the merge map to those
// base columns. Returns nil if any key column cannot be mapped (the index
// is then dropped rather than promoted).
func PromoteIndexToView(ix *Index, src, vm *View) *Index {
	mapCol := func(name string) (string, bool) {
		if vm.Column(name) != nil {
			return name, true
		}
		sc := src.Column(name)
		if sc == nil {
			return "", false
		}
		if sc.Agg != sqlx.AggNone && sc.Source != (sqlx.ColRef{}) {
			base := viewColName(sqlx.AggNone, sc.Source)
			if vm.Column(base) != nil {
				return base, true
			}
		}
		return "", false
	}
	keys := make([]string, 0, len(ix.Keys))
	for _, k := range ix.Keys {
		m, ok := mapCol(k)
		if !ok {
			return nil
		}
		keys = append(keys, m)
	}
	var suffix []string
	for _, s := range ix.Suffix {
		if m, ok := mapCol(s); ok {
			suffix = append(suffix, m)
		}
	}
	return NewIndex(vm.Name, keys, suffix, ix.Clustered)
}

// --- small helpers over view components ---

func containsExpr(list []sqlx.Expr, e sqlx.Expr) bool {
	for _, x := range list {
		if x.EqualExpr(e) {
			return true
		}
	}
	return false
}

func unionColRefs(a, b []sqlx.ColRef) []sqlx.ColRef {
	out := append([]sqlx.ColRef(nil), a...)
	for _, c := range b {
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}
