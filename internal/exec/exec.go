package exec

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/sqlx"
)

// block is the executable form of an SPJG query block: per-table range
// conditions, residual predicates, equi-joins, grouping, and outputs. Both
// bound queries and view definitions lower to this form, so results are
// directly comparable.
type block struct {
	tables  []string
	ranges  []physical.RangeCond
	others  []sqlx.Expr
	joins   []physical.JoinPred
	groupBy []sqlx.ColRef
	outs    []physical.ViewColumn
}

// ExecuteQuery runs a bound SELECT against the store and returns its
// result together with execution counters (rows scanned, pages touched,
// access-path decisions). Aggregates over compound expressions are
// evaluated over their representative column (mirroring how the tuner
// models them), so results are internally consistent rather than full
// SQL semantics.
func ExecuteQuery(store *Store, q *optimizer.BoundQuery) (*Relation, ExecStats, error) {
	if q.IsUpdate() {
		return nil, ExecStats{}, fmt.Errorf("exec: only SELECT statements are executable")
	}
	b := &block{
		tables:  q.Tables,
		joins:   q.Joins,
		groupBy: q.GroupBy,
		outs:    q.SelectCols,
	}
	for _, t := range q.Tables {
		tp := q.TablePred(t)
		for _, s := range tp.Sargs {
			b.ranges = append(b.ranges, physical.RangeCond{
				Col: sqlx.ColRef{Table: t, Column: s.Col}, Iv: s.Iv,
			})
		}
		for _, oc := range tp.Others {
			b.others = append(b.others, oc.Expr)
		}
	}
	for _, oc := range q.CrossOthers {
		b.others = append(b.others, oc.Expr)
	}
	return executeBlock(store, b)
}

// ExecuteView materializes a view definition's contents, with the same
// execution counters as ExecuteQuery.
func ExecuteView(store *Store, v *physical.View) (*Relation, ExecStats, error) {
	b := &block{
		tables:  v.Tables,
		ranges:  v.Ranges,
		others:  v.Others,
		joins:   v.Joins,
		groupBy: v.GroupBy,
		outs:    v.Cols,
	}
	return executeBlock(store, b)
}

func executeBlock(store *Store, b *block) (*Relation, ExecStats, error) {
	var stats ExecStats
	// 1. Per-table selection, through the cheapest registered access
	// path: an index whose leading key column is bound by one of the
	// block's ranges scans only its binary-searched span; otherwise the
	// full table.
	filtered := map[string]*Relation{}
	for _, t := range b.tables {
		base := store.Get(t)
		if base == nil {
			return nil, stats, fmt.Errorf("exec: no data for table %q", t)
		}
		path := store.chooseAccessPath(t, base, b.ranges)
		stats.RowsScanned += path.scanned
		stats.PagesTouched += path.pages
		if path.indexed {
			stats.IndexSeeks++
		} else {
			stats.TableScans++
		}
		out := NewRelation(base.Cols)
		for _, row := range path.rows {
			keep := true
			for _, rc := range b.ranges {
				if rc.Col.Table != t {
					continue
				}
				v, err := EvalExpr(base, row, rc.Col)
				if err != nil {
					return nil, stats, err
				}
				if !inInterval(v, rc.Iv) {
					keep = false
					break
				}
			}
			if keep {
				ok, err := singleTableOthers(base, row, t, b.others)
				if err != nil {
					return nil, stats, err
				}
				keep = ok
			}
			if keep {
				out.Append(row)
			}
		}
		filtered[t] = out
	}

	// 2. Join along the equi-join edges (hash joins), cartesian fallback.
	joined, err := joinAll(b, filtered)
	if err != nil {
		return nil, stats, err
	}

	// 3. Residual predicates spanning tables.
	joined, err = filterCross(joined, b)
	if err != nil {
		return nil, stats, err
	}

	// 4. Grouping / projection.
	res, err := projectOrAggregate(joined, b)
	return res, stats, err
}

// singleTableOthers applies the residual conjuncts fully contained in one
// table.
func singleTableOthers(rel *Relation, row Row, table string, others []sqlx.Expr) (bool, error) {
	for _, e := range others {
		if !exprWithinTable(e, table) {
			continue
		}
		ok, err := EvalPred(rel, row, e)
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

func exprWithinTable(e sqlx.Expr, table string) bool {
	cols := e.Columns(nil)
	if len(cols) == 0 {
		return true
	}
	for _, c := range cols {
		if c.Table != table {
			return false
		}
	}
	return true
}

// joinAll hash-joins the filtered tables along the block's join edges.
func joinAll(b *block, filtered map[string]*Relation) (*Relation, error) {
	remaining := append([]string(nil), b.tables...)
	cur := filtered[remaining[0]]
	joinedSet := map[string]bool{remaining[0]: true}
	remaining = remaining[1:]

	for len(remaining) > 0 {
		// Find a table connected to the joined set.
		pick := -1
		var edges []physical.JoinPred
		for i, t := range remaining {
			edges = edges[:0]
			for _, j := range b.joins {
				lIn := joinedSet[j.L.Table]
				rIn := joinedSet[j.R.Table]
				tIsL := j.L.Table == t
				tIsR := j.R.Table == t
				if (lIn && tIsR) || (rIn && tIsL) {
					edges = append(edges, j)
				}
			}
			if len(edges) > 0 {
				pick = i
				break
			}
		}
		if pick < 0 {
			pick = 0 // cartesian product fallback
			edges = nil
		}
		next := filtered[remaining[pick]]
		var err error
		cur, err = hashJoin(cur, next, remaining[pick], edges, joinedSet)
		if err != nil {
			return nil, err
		}
		joinedSet[remaining[pick]] = true
		remaining = append(remaining[:pick], remaining[pick+1:]...)
	}
	return cur, nil
}

func hashJoin(l, r *Relation, rTable string, edges []physical.JoinPred, joinedSet map[string]bool) (*Relation, error) {
	outCols := append(append([]string(nil), l.Cols...), r.Cols...)
	out := NewRelation(outCols)
	if len(edges) == 0 {
		for _, lr := range l.Rows {
			for _, rr := range r.Rows {
				out.Append(append(append(Row{}, lr...), rr...))
			}
		}
		return out, nil
	}
	// Orient every edge: left column in l, right column in r.
	type pair struct{ li, ri int }
	var pairs []pair
	for _, e := range edges {
		lc, rc := e.L, e.R
		if lc.Table == rTable {
			lc, rc = rc, lc
		}
		li := l.ColIndex(lc.Table + "." + lc.Column)
		ri := r.ColIndex(rc.Table + "." + rc.Column)
		if li < 0 || ri < 0 {
			return nil, fmt.Errorf("exec: join column missing (%v = %v)", e.L, e.R)
		}
		pairs = append(pairs, pair{li, ri})
	}
	// Build on r.
	buckets := map[string][]Row{}
	for _, rr := range r.Rows {
		var key strings.Builder
		for _, p := range pairs {
			key.WriteString(rr[p.ri].Key())
			key.WriteString("|")
		}
		buckets[key.String()] = append(buckets[key.String()], rr)
	}
	for _, lr := range l.Rows {
		var key strings.Builder
		for _, p := range pairs {
			key.WriteString(lr[p.li].Key())
			key.WriteString("|")
		}
		for _, rr := range buckets[key.String()] {
			out.Append(append(append(Row{}, lr...), rr...))
		}
	}
	return out, nil
}

// filterCross applies residual conjuncts that span multiple tables.
func filterCross(rel *Relation, b *block) (*Relation, error) {
	var cross []sqlx.Expr
	for _, e := range b.others {
		single := false
		for _, t := range b.tables {
			if exprWithinTable(e, t) {
				single = true
				break
			}
		}
		if !single {
			cross = append(cross, e)
		}
	}
	if len(cross) == 0 {
		return rel, nil
	}
	out := NewRelation(rel.Cols)
	for _, row := range rel.Rows {
		keep := true
		for _, e := range cross {
			ok, err := EvalPred(rel, row, e)
			if err != nil {
				return nil, err
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			out.Append(row)
		}
	}
	return out, nil
}

// projectOrAggregate produces the block's output columns, grouping when
// the block aggregates.
func projectOrAggregate(rel *Relation, b *block) (*Relation, error) {
	grouped := len(b.groupBy) > 0 || hasAgg(b.outs)
	outNames := make([]string, len(b.outs))
	for i, c := range b.outs {
		outNames[i] = c.Name
	}
	out := NewRelation(outNames)
	if !grouped {
		for _, row := range rel.Rows {
			nr := make(Row, len(b.outs))
			for i, c := range b.outs {
				v, err := EvalExpr(rel, row, c.Source)
				if err != nil {
					return nil, err
				}
				nr[i] = v
			}
			out.Append(nr)
		}
		return out, nil
	}

	type aggState struct {
		rep   Row // representative row for group-key outputs
		sums  []float64
		mins  []float64
		maxs  []float64
		count int64
	}
	groups := map[string]*aggState{}
	var order []string
	for _, row := range rel.Rows {
		var key strings.Builder
		for _, g := range b.groupBy {
			v, err := EvalExpr(rel, row, g)
			if err != nil {
				return nil, err
			}
			key.WriteString(v.Key())
			key.WriteString("|")
		}
		k := key.String()
		st, ok := groups[k]
		if !ok {
			st = &aggState{
				rep:  row,
				sums: make([]float64, len(b.outs)),
				mins: make([]float64, len(b.outs)),
				maxs: make([]float64, len(b.outs)),
			}
			for i := range st.mins {
				st.mins[i] = math.Inf(1)
				st.maxs[i] = math.Inf(-1)
			}
			groups[k] = st
			order = append(order, k)
		}
		st.count++
		for i, c := range b.outs {
			if c.Agg == sqlx.AggNone || c.Source == (sqlx.ColRef{}) {
				continue
			}
			v, err := EvalExpr(rel, row, c.Source)
			if err != nil {
				return nil, err
			}
			if v.IsStr {
				continue
			}
			st.sums[i] += v.F
			if v.F < st.mins[i] {
				st.mins[i] = v.F
			}
			if v.F > st.maxs[i] {
				st.maxs[i] = v.F
			}
		}
	}
	for _, k := range order {
		st := groups[k]
		nr := make(Row, len(b.outs))
		for i, c := range b.outs {
			switch c.Agg {
			case sqlx.AggNone:
				v, err := EvalExpr(rel, st.rep, c.Source)
				if err != nil {
					return nil, err
				}
				nr[i] = v
			case sqlx.AggCount:
				nr[i] = Num(float64(st.count))
			case sqlx.AggSum:
				nr[i] = Num(st.sums[i])
			case sqlx.AggAvg:
				nr[i] = Num(st.sums[i] / float64(st.count))
			case sqlx.AggMin:
				nr[i] = Num(st.mins[i])
			case sqlx.AggMax:
				nr[i] = Num(st.maxs[i])
			}
		}
		out.Append(nr)
	}
	return out, nil
}

func hasAgg(outs []physical.ViewColumn) bool {
	for _, c := range outs {
		if c.Agg != sqlx.AggNone {
			return true
		}
	}
	return false
}

// inInterval checks a value against a range condition's interval.
func inInterval(v Value, iv physical.Interval) bool {
	if iv.IsString {
		return v.IsStr && v.S == iv.StrVal
	}
	if v.IsStr {
		return iv.Unbounded()
	}
	if !math.IsInf(iv.Lo, -1) {
		if v.F < iv.Lo || (v.F == iv.Lo && !iv.LoIncl) {
			return false
		}
	}
	if !math.IsInf(iv.Hi, 1) {
		if v.F > iv.Hi || (v.F == iv.Hi && !iv.HiIncl) {
			return false
		}
	}
	return true
}
