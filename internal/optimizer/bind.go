package optimizer

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/catalog"
	"repro/internal/physical"
	"repro/internal/sqlx"
)

// SargCond is a sargable single-column condition with its estimated
// selectivity.
type SargCond struct {
	Col string // table-local column name
	Iv  physical.Interval
	Sel float64
}

// OtherCond is a non-sargable conjunct with its estimated selectivity and
// the columns it references.
type OtherCond struct {
	Expr sqlx.Expr
	Sel  float64
	Cols []sqlx.ColRef
}

// TablePreds groups the single-table predicates of one referenced table.
type TablePreds struct {
	Sargs  []SargCond
	Others []OtherCond
}

// SargSelectivity returns the product of sargable selectivities.
func (tp *TablePreds) SargSelectivity() float64 {
	s := 1.0
	for _, c := range tp.Sargs {
		s *= c.Sel
	}
	return s
}

// OtherSelectivity returns the product of non-sargable selectivities.
func (tp *TablePreds) OtherSelectivity() float64 {
	s := 1.0
	for _, c := range tp.Others {
		s *= c.Sel
	}
	return s
}

// TotalSelectivity is the product over all conjuncts.
func (tp *TablePreds) TotalSelectivity() float64 {
	return tp.SargSelectivity() * tp.OtherSelectivity()
}

// BoundQuery is a statement bound against a catalog: aliases resolved to
// real table names, predicates classified into equi-joins, per-table
// sargable ranges, and "other" conjuncts (the three classes of the
// paper), selectivities estimated, and required column sets computed.
type BoundQuery struct {
	SQL  string
	Kind sqlx.StmtKind

	Tables []string // real table names in FROM order (no self-joins)
	Preds  map[string]*TablePreds
	Joins  []physical.JoinPred
	// CrossOthers are non-equi-join predicates spanning tables; applied
	// after the join of all their referenced tables.
	CrossOthers []OtherCond

	SelectCols []physical.ViewColumn // outputs in view-column form
	GroupBy    []sqlx.ColRef
	OrderBy    []sqlx.ColRef
	Top        int

	// Needed maps each table to every column referenced anywhere in the
	// query (outputs, predicates, grouping, ordering).
	Needed map[string][]string

	// Update/insert/delete specifics.
	UpdateTable string
	SetCols     []string
	InsertRows  int

	db *catalog.Database

	// blockMemo caches the SPJG view blocks of table subsets (see
	// Optimizer.viewBlock). Blocks depend only on the bound query and the
	// catalog statistics, never on the configuration being costed, so they
	// are computed once per query. Forked workers optimize the same bound
	// query concurrently, hence the mutex.
	blockMu   sync.Mutex
	blockMemo map[uint64]viewBlockEntry
}

// Bind resolves and classifies a parsed statement against db. Statements
// referencing unknown tables or columns, or joining a table with itself,
// are rejected.
//
// Bind is where identifiers are matched case-insensitively: every table
// and column name in the result is spelled as the catalog spells it, so
// code downstream of Bind compares names with ==.
func Bind(db *catalog.Database, stmt sqlx.Statement) (*BoundQuery, error) {
	b := &binder{db: db, q: &BoundQuery{
		SQL:    stmt.SQL(),
		Kind:   stmt.Kind(),
		Preds:  map[string]*TablePreds{},
		Needed: map[string][]string{},
		db:     db,
	}}
	switch s := stmt.(type) {
	case *sqlx.SelectStmt:
		return b.bindSelect(s)
	case *sqlx.UpdateStmt:
		return b.bindUpdate(s)
	case *sqlx.InsertStmt:
		return b.bindInsert(s)
	case *sqlx.DeleteStmt:
		return b.bindDelete(s)
	default:
		return nil, fmt.Errorf("optimizer: unsupported statement type %T", stmt)
	}
}

type binder struct {
	db      *catalog.Database
	q       *BoundQuery
	binding map[string]string // aliasKey(alias or name) -> real table name
}

func (b *binder) bindSelect(s *sqlx.SelectStmt) (*BoundQuery, error) {
	if len(s.From) == 0 {
		return nil, fmt.Errorf("optimizer: SELECT with empty FROM")
	}
	if err := b.bindFrom(s.From); err != nil {
		return nil, err
	}
	for _, it := range s.Items {
		vc, err := b.bindSelectItem(it)
		if err != nil {
			return nil, err
		}
		b.q.SelectCols = append(b.q.SelectCols, vc)
	}
	if err := b.classifyWhere(s.Where); err != nil {
		return nil, err
	}
	for _, g := range s.GroupBy {
		c, err := b.resolveCol(g)
		if err != nil {
			return nil, err
		}
		b.q.GroupBy = append(b.q.GroupBy, c)
	}
	for _, o := range s.OrderBy {
		c, err := b.resolveCol(o.Col)
		if err != nil {
			return nil, err
		}
		b.q.OrderBy = append(b.q.OrderBy, c)
	}
	b.q.Top = s.Top
	b.computeNeeded()
	return b.q, nil
}

func (b *binder) bindUpdate(s *sqlx.UpdateStmt) (*BoundQuery, error) {
	if err := b.bindFrom([]sqlx.TableRef{s.Table}); err != nil {
		return nil, err
	}
	b.q.UpdateTable = b.q.Tables[0]
	t := b.db.Table(b.q.UpdateTable)
	for _, set := range s.Sets {
		col := t.Column(set.Column)
		if col == nil {
			return nil, fmt.Errorf("optimizer: unknown column %s.%s in SET", t.Name, set.Column)
		}
		b.q.SetCols = append(b.q.SetCols, col.Name)
		// The SET expressions become outputs of the pure select part
		// (§3.6's query separation).
		for _, c := range set.Value.Columns(nil) {
			rc, err := b.resolveCol(c)
			if err != nil {
				return nil, err
			}
			w := 8
			if cc := t.Column(rc.Column); cc != nil {
				w = cc.AvgWidth
			}
			b.q.SelectCols = append(b.q.SelectCols, physical.BaseViewColumn(rc, w))
		}
	}
	if err := b.classifyWhere(s.Where); err != nil {
		return nil, err
	}
	b.q.Top = s.Top
	b.computeNeeded()
	return b.q, nil
}

func (b *binder) bindInsert(s *sqlx.InsertStmt) (*BoundQuery, error) {
	if err := b.bindFrom([]sqlx.TableRef{s.Table}); err != nil {
		return nil, err
	}
	b.q.UpdateTable = b.q.Tables[0]
	b.q.InsertRows = s.Rows
	// Inserts touch every column.
	t := b.db.Table(b.q.UpdateTable)
	b.q.SetCols = t.ColumnNames()
	b.computeNeeded()
	return b.q, nil
}

func (b *binder) bindDelete(s *sqlx.DeleteStmt) (*BoundQuery, error) {
	if err := b.bindFrom([]sqlx.TableRef{s.Table}); err != nil {
		return nil, err
	}
	b.q.UpdateTable = b.q.Tables[0]
	// Deletes touch every index regardless of columns.
	t := b.db.Table(b.q.UpdateTable)
	b.q.SetCols = t.ColumnNames()
	if err := b.classifyWhere(s.Where); err != nil {
		return nil, err
	}
	b.computeNeeded()
	return b.q, nil
}

func (b *binder) bindFrom(from []sqlx.TableRef) error {
	b.binding = map[string]string{}
	for _, tr := range from {
		t := b.db.Table(tr.Name)
		if t == nil {
			return fmt.Errorf("optimizer: unknown table %q", tr.Name)
		}
		if _, dup := b.q.Preds[t.Name]; dup {
			return fmt.Errorf("optimizer: self-joins are not supported (table %s referenced twice)", t.Name)
		}
		b.binding[aliasKey(tr.Binding())] = t.Name
		b.binding[aliasKey(t.Name)] = t.Name
		b.q.Tables = append(b.q.Tables, t.Name)
		b.q.Preds[t.Name] = &TablePreds{}
	}
	return nil
}

// aliasKey is the key an alias or table name binds under: SQL identifiers
// are case-insensitive, and this is the one place a query's spelling of a
// table is matched.
func aliasKey(name string) string { return strings.ToLower(name) }

// resolveCol maps an AST column reference to a canonical one whose Table
// field is the real catalog table name.
func (b *binder) resolveCol(c sqlx.ColRef) (sqlx.ColRef, error) {
	if c.Table != "" {
		real, ok := b.binding[aliasKey(c.Table)]
		if !ok {
			return sqlx.ColRef{}, fmt.Errorf("optimizer: unknown table or alias %q", c.Table)
		}
		t := b.db.Table(real)
		col := t.Column(c.Column)
		if col == nil {
			return sqlx.ColRef{}, fmt.Errorf("optimizer: unknown column %s.%s", real, c.Column)
		}
		return sqlx.ColRef{Table: t.Name, Column: col.Name}, nil
	}
	var found sqlx.ColRef
	matches := 0
	for _, tn := range b.q.Tables {
		t := b.db.Table(tn)
		if col := t.Column(c.Column); col != nil {
			found = sqlx.ColRef{Table: t.Name, Column: col.Name}
			matches++
		}
	}
	switch matches {
	case 0:
		return sqlx.ColRef{}, fmt.Errorf("optimizer: unknown column %q", c.Column)
	case 1:
		return found, nil
	default:
		return sqlx.ColRef{}, fmt.Errorf("optimizer: ambiguous column %q", c.Column)
	}
}

// resolveExpr rewrites every column reference in an expression to its
// canonical form.
func (b *binder) resolveExpr(e sqlx.Expr) (sqlx.Expr, error) {
	switch x := e.(type) {
	case sqlx.ColRef:
		return b.resolveCol(x)
	case sqlx.Const:
		return x, nil
	case *sqlx.BinExpr:
		l, err := b.resolveExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := b.resolveExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &sqlx.BinExpr{Op: x.Op, L: l, R: r}, nil
	case *sqlx.CmpExpr:
		l, err := b.resolveExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := b.resolveExpr(x.R)
		if err != nil {
			return nil, err
		}
		return &sqlx.CmpExpr{Op: x.Op, L: l, R: r}, nil
	case *sqlx.LikeExpr:
		c, err := b.resolveCol(x.Col)
		if err != nil {
			return nil, err
		}
		return &sqlx.LikeExpr{Col: c, Pattern: x.Pattern, Negated: x.Negated}, nil
	case *sqlx.InExpr:
		c, err := b.resolveCol(x.Col)
		if err != nil {
			return nil, err
		}
		return &sqlx.InExpr{Col: c, Values: x.Values}, nil
	case *sqlx.BoolExpr:
		l, err := b.resolveExpr(x.L)
		if err != nil {
			return nil, err
		}
		var r sqlx.Expr
		if x.R != nil {
			r, err = b.resolveExpr(x.R)
			if err != nil {
				return nil, err
			}
		}
		return &sqlx.BoolExpr{Op: x.Op, L: l, R: r}, nil
	default:
		return nil, fmt.Errorf("optimizer: unsupported expression %T", e)
	}
}

func (b *binder) bindSelectItem(it sqlx.SelectItem) (physical.ViewColumn, error) {
	if it.Agg != sqlx.AggNone {
		if it.Expr == nil {
			return physical.AggViewColumn(sqlx.AggCount, sqlx.ColRef{}, 8), nil
		}
		// Aggregates over single columns keep the column identity;
		// aggregates over compound expressions track their source columns
		// through the first referenced column (others land in Needed).
		cols := it.Expr.Columns(nil)
		if len(cols) == 0 {
			return physical.AggViewColumn(it.Agg, sqlx.ColRef{}, 8), nil
		}
		first, err := b.resolveCol(cols[0])
		if err != nil {
			return physical.ViewColumn{}, err
		}
		for _, c := range cols[1:] {
			rc, err := b.resolveCol(c)
			if err != nil {
				return physical.ViewColumn{}, err
			}
			b.noteNeeded(rc)
		}
		return physical.AggViewColumn(it.Agg, first, 8), nil
	}
	cols := it.Expr.Columns(nil)
	if len(cols) == 1 {
		if c, ok := it.Expr.(sqlx.ColRef); ok {
			rc, err := b.resolveCol(c)
			if err != nil {
				return physical.ViewColumn{}, err
			}
			return physical.BaseViewColumn(rc, b.colWidth(rc)), nil
		}
	}
	// Scalar expression output: record all its columns as needed and
	// expose the first as the representative.
	var rep sqlx.ColRef
	for i, c := range cols {
		rc, err := b.resolveCol(c)
		if err != nil {
			return physical.ViewColumn{}, err
		}
		b.noteNeeded(rc)
		if i == 0 {
			rep = rc
		}
	}
	if rep == (sqlx.ColRef{}) {
		return physical.ViewColumn{}, fmt.Errorf("optimizer: constant select item %q is not supported", it)
	}
	return physical.BaseViewColumn(rep, b.colWidth(rep)), nil
}

var extraNeededKey = "\x00extra"

func (b *binder) noteNeeded(c sqlx.ColRef) {
	b.q.Needed[extraNeededKey] = append(b.q.Needed[extraNeededKey], c.Table+"."+c.Column)
}

func (b *binder) colWidth(c sqlx.ColRef) int {
	t := b.db.Table(c.Table)
	if t == nil {
		return 8
	}
	col := t.Column(c.Column)
	if col == nil {
		return 8
	}
	return col.AvgWidth
}

// classifyWhere splits the WHERE conjunction into equi-joins, per-table
// sargable ranges, and "other" predicates, estimating selectivities.
func (b *binder) classifyWhere(where sqlx.Expr) error {
	for _, conj := range sqlx.Conjuncts(where) {
		resolved, err := b.resolveExpr(conj)
		if err != nil {
			return err
		}
		if err := b.classifyConjunct(resolved); err != nil {
			return err
		}
	}
	// Merge multiple sargable conditions on the same column into one
	// interval.
	for table, tp := range b.q.Preds {
		tp.Sargs = mergeSargs(tp.Sargs, b, table)
	}
	return nil
}

func (b *binder) classifyConjunct(e sqlx.Expr) error {
	if cmp, ok := e.(*sqlx.CmpExpr); ok {
		l, lIsCol := cmp.L.(sqlx.ColRef)
		r, rIsCol := cmp.R.(sqlx.ColRef)
		lc, lIsConst := cmp.L.(sqlx.Const)
		rc, rIsConst := cmp.R.(sqlx.Const)
		switch {
		case lIsCol && rIsConst:
			return b.addSargOrOther(l, cmp.Op, rc, e)
		case rIsCol && lIsConst:
			return b.addSargOrOther(r, cmp.Op.Flip(), lc, e)
		case lIsCol && rIsCol && l.Table != r.Table && cmp.Op == sqlx.CmpEQ:
			b.q.Joins = append(b.q.Joins, physical.NewJoinPred(l, r))
			return nil
		}
	}
	// Everything else is an "other" predicate.
	cols := e.Columns(nil)
	tables := map[string]bool{}
	for _, c := range cols {
		tables[c.Table] = true
	}
	oc := OtherCond{Expr: e, Sel: b.estimateOtherSel(e), Cols: cols}
	if len(tables) == 1 && len(cols) > 0 {
		b.q.Preds[cols[0].Table].Others = append(b.q.Preds[cols[0].Table].Others, oc)
	} else {
		b.q.CrossOthers = append(b.q.CrossOthers, oc)
	}
	return nil
}

func (b *binder) addSargOrOther(col sqlx.ColRef, op sqlx.CmpOp, c sqlx.Const, orig sqlx.Expr) error {
	stats := b.stats(col)
	tp := b.q.Preds[col.Table]
	if tp == nil {
		return fmt.Errorf("optimizer: predicate references unknown table %q", col.Table)
	}
	if c.Kind == sqlx.ConstString {
		if op == sqlx.CmpEQ {
			sel := catalog.DefaultEqSelectivity
			if stats != nil {
				sel = stats.EqSelectivity(0, false)
			}
			tp.Sargs = append(tp.Sargs, SargCond{Col: col.Column, Iv: physical.StringPoint(c.Str), Sel: sel})
			return nil
		}
		// String inequalities are non-sargable in this model.
		tp.Others = append(tp.Others, OtherCond{Expr: orig, Sel: catalog.DefaultRangeSelectivity, Cols: []sqlx.ColRef{col}})
		return nil
	}
	v := c.Num
	var iv physical.Interval
	var sel float64
	switch op {
	case sqlx.CmpEQ:
		iv = physical.PointInterval(v)
		if stats != nil {
			sel = stats.EqSelectivity(v, true)
		} else {
			sel = catalog.DefaultEqSelectivity
		}
	case sqlx.CmpLT, sqlx.CmpLE:
		iv = physical.FullInterval()
		iv.Hi, iv.HiIncl = v, op == sqlx.CmpLE
		if stats != nil {
			sel = stats.LtSelectivity(v, op == sqlx.CmpLE)
		} else {
			sel = catalog.DefaultRangeSelectivity
		}
	case sqlx.CmpGT, sqlx.CmpGE:
		iv = physical.FullInterval()
		iv.Lo, iv.LoIncl = v, op == sqlx.CmpGE
		if stats != nil {
			sel = stats.GtSelectivity(v, op == sqlx.CmpGE)
		} else {
			sel = catalog.DefaultRangeSelectivity
		}
	case sqlx.CmpNE:
		// <> is non-sargable.
		tp.Others = append(tp.Others, OtherCond{Expr: orig, Sel: 1 - catalog.DefaultEqSelectivity, Cols: []sqlx.ColRef{col}})
		return nil
	}
	tp.Sargs = append(tp.Sargs, SargCond{Col: col.Column, Iv: iv, Sel: sel})
	return nil
}

func (b *binder) stats(c sqlx.ColRef) *catalog.ColumnStats {
	t := b.db.Table(c.Table)
	if t == nil {
		return nil
	}
	col := t.Column(c.Column)
	if col == nil {
		return nil
	}
	return col.Stats
}

// estimateOtherSel estimates the selectivity of a non-sargable predicate.
func (b *binder) estimateOtherSel(e sqlx.Expr) float64 {
	switch x := e.(type) {
	case *sqlx.BoolExpr:
		switch x.Op {
		case "AND":
			return b.estimateOtherSel(x.L) * b.estimateOtherSel(x.R)
		case "OR":
			l, r := b.estimateOtherSel(x.L), b.estimateOtherSel(x.R)
			return l + r - l*r
		case "NOT":
			return 1 - b.estimateOtherSel(x.L)
		}
	case *sqlx.CmpExpr:
		if col, ok := x.L.(sqlx.ColRef); ok {
			if c, ok := x.R.(sqlx.Const); ok && c.Kind == sqlx.ConstNumber {
				if s := b.stats(col); s != nil {
					switch x.Op {
					case sqlx.CmpEQ:
						return s.EqSelectivity(c.Num, true)
					case sqlx.CmpLT:
						return s.LtSelectivity(c.Num, false)
					case sqlx.CmpLE:
						return s.LtSelectivity(c.Num, true)
					case sqlx.CmpGT:
						return s.GtSelectivity(c.Num, false)
					case sqlx.CmpGE:
						return s.GtSelectivity(c.Num, true)
					}
				}
			}
		}
		if x.Op == sqlx.CmpEQ {
			return catalog.DefaultEqSelectivity * 10
		}
		return catalog.DefaultOtherSelectivity
	case *sqlx.LikeExpr:
		if x.Negated {
			return 1 - catalog.DefaultLikeSelectivity
		}
		return catalog.DefaultLikeSelectivity
	case *sqlx.InExpr:
		if s := b.stats(x.Col); s != nil {
			return s.InSelectivity(len(x.Values))
		}
		return float64(len(x.Values)) * catalog.DefaultEqSelectivity
	}
	return catalog.DefaultOtherSelectivity
}

// mergeSargs collapses multiple sargable conditions on the same column
// into a single interval, re-estimating the merged interval's
// selectivity from the column's histogram (two one-sided bounds combined
// independently would badly overestimate — e.g. BETWEEN).
func mergeSargs(sargs []SargCond, b *binder, table string) []SargCond {
	byCol := map[string][]SargCond{}
	var order []string
	for _, s := range sargs {
		if _, ok := byCol[s.Col]; !ok {
			order = append(order, s.Col)
		}
		byCol[s.Col] = append(byCol[s.Col], s)
	}
	var out []SargCond
	for _, key := range order {
		group := byCol[key]
		merged := group[0]
		changed := false
		for _, s := range group[1:] {
			merged.Iv = intersectIntervals(merged.Iv, s.Iv)
			changed = true
			if s.Sel < merged.Sel {
				merged.Sel = s.Sel
			}
		}
		if changed && !merged.Iv.IsString {
			merged.Sel = b.numericIntervalSel(sqlx.ColRef{Table: table, Column: merged.Col}, merged.Iv, merged.Sel)
		}
		out = append(out, merged)
	}
	return out
}

// numericIntervalSel estimates a (possibly two-sided) numeric interval's
// selectivity from column statistics, falling back to the provided value.
func (b *binder) numericIntervalSel(col sqlx.ColRef, iv physical.Interval, fallback float64) float64 {
	s := b.stats(col)
	if s == nil || !s.Numeric {
		return fallback
	}
	if iv.IsPoint() {
		return s.EqSelectivity(iv.Lo, true)
	}
	sel := 1.0
	if !math.IsInf(iv.Hi, 1) {
		sel = s.LtSelectivity(iv.Hi, iv.HiIncl)
	}
	if !math.IsInf(iv.Lo, -1) {
		sel -= s.LtSelectivity(iv.Lo, !iv.LoIncl)
	}
	if sel < 0 {
		sel = 0
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

func intersectIntervals(a, b physical.Interval) physical.Interval {
	if a.IsString || b.IsString {
		return a
	}
	out := a
	if b.Lo > out.Lo || (b.Lo == out.Lo && !b.LoIncl) {
		out.Lo, out.LoIncl = b.Lo, b.LoIncl
	}
	if b.Hi < out.Hi || (b.Hi == out.Hi && !b.HiIncl) {
		out.Hi, out.HiIncl = b.Hi, b.HiIncl
	}
	return out
}

// computeNeeded fills the per-table needed-column sets.
func (b *binder) computeNeeded() {
	add := func(c sqlx.ColRef) {
		if c == (sqlx.ColRef{}) {
			return
		}
		if slices.Contains(b.q.Needed[c.Table], c.Column) {
			return
		}
		b.q.Needed[c.Table] = append(b.q.Needed[c.Table], c.Column)
	}
	for _, vc := range b.q.SelectCols {
		add(vc.Source)
	}
	for _, g := range b.q.GroupBy {
		add(g)
	}
	for _, o := range b.q.OrderBy {
		add(o)
	}
	for _, j := range b.q.Joins {
		add(j.L)
		add(j.R)
	}
	for tn, tp := range b.q.Preds {
		for _, s := range tp.Sargs {
			add(sqlx.ColRef{Table: tn, Column: s.Col})
		}
		for _, o := range tp.Others {
			for _, c := range o.Cols {
				add(c)
			}
		}
	}
	for _, oc := range b.q.CrossOthers {
		for _, c := range oc.Cols {
			add(c)
		}
	}
	// Extra needed columns noted during select-item binding.
	for _, enc := range b.q.Needed[extraNeededKey] {
		parts := strings.SplitN(enc, ".", 2)
		if len(parts) == 2 {
			add(sqlx.ColRef{Table: parts[0], Column: parts[1]})
		}
	}
	delete(b.q.Needed, extraNeededKey)
	for t := range b.q.Needed {
		sort.Strings(b.q.Needed[t])
	}
}

// TablePred returns the predicate group for a table (never nil).
func (q *BoundQuery) TablePred(table string) *TablePreds {
	if tp, ok := q.Preds[table]; ok {
		return tp
	}
	return &TablePreds{}
}

// NeededCols returns the needed columns for a table (possibly empty).
func (q *BoundQuery) NeededCols(table string) []string { return q.Needed[table] }

// IsUpdate reports whether the statement modifies data.
func (q *BoundQuery) IsUpdate() bool { return q.Kind != sqlx.StmtSelect }

// HasAggregates reports whether the select list aggregates.
func (q *BoundQuery) HasAggregates() bool {
	for _, c := range q.SelectCols {
		if c.Agg != sqlx.AggNone {
			return true
		}
	}
	return false
}
