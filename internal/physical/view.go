package physical

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/sqlx"
)

// JoinPred is an equi-join predicate between two base-table columns,
// stored in canonical order (L < R).
type JoinPred struct {
	L, R sqlx.ColRef
}

// NewJoinPred canonicalizes the operand order.
func NewJoinPred(a, b sqlx.ColRef) JoinPred {
	if b.Less(a) {
		a, b = b, a
	}
	return JoinPred{L: a, R: b}
}

func (j JoinPred) String() string { return j.L.String() + " = " + j.R.String() }

// Interval is a (possibly unbounded) range of values for a single column.
// Numeric intervals use Lo/Hi with ±Inf for missing bounds; string-equality
// predicates are represented as string points.
type Interval struct {
	Lo, Hi         float64
	LoIncl, HiIncl bool
	IsString       bool
	StrVal         string
}

// FullInterval is the unbounded interval.
func FullInterval() Interval {
	return Interval{Lo: math.Inf(-1), Hi: math.Inf(1)}
}

// PointInterval returns the degenerate interval [v, v].
func PointInterval(v float64) Interval {
	return Interval{Lo: v, Hi: v, LoIncl: true, HiIncl: true}
}

// StringPoint returns a string-equality interval.
func StringPoint(s string) Interval {
	return Interval{IsString: true, StrVal: s, LoIncl: true, HiIncl: true}
}

// Unbounded reports whether the interval imposes no restriction.
func (iv Interval) Unbounded() bool {
	return !iv.IsString && math.IsInf(iv.Lo, -1) && math.IsInf(iv.Hi, 1)
}

// IsPoint reports whether the interval is a single value.
func (iv Interval) IsPoint() bool {
	return iv.IsString || (iv.Lo == iv.Hi && iv.LoIncl && iv.HiIncl)
}

// Contains reports whether iv contains every value of other.
func (iv Interval) Contains(other Interval) bool {
	if iv.IsString || other.IsString {
		if iv.IsString && other.IsString {
			return iv.StrVal == other.StrVal
		}
		// A numeric unbounded interval contains any string point (it
		// arises when a range predicate was dropped entirely).
		return iv.Unbounded()
	}
	loOK := math.IsInf(iv.Lo, -1) || iv.Lo < other.Lo ||
		(iv.Lo == other.Lo && (iv.LoIncl || !other.LoIncl))
	hiOK := math.IsInf(iv.Hi, 1) || iv.Hi > other.Hi ||
		(iv.Hi == other.Hi && (iv.HiIncl || !other.HiIncl))
	return loOK && hiOK
}

// Hull returns the smallest interval containing both inputs. Hulls
// involving distinct string points are unbounded (the predicate must be
// dropped from a merged view).
func (iv Interval) Hull(other Interval) Interval {
	if iv.IsString || other.IsString {
		if iv.IsString && other.IsString && iv.StrVal == other.StrVal {
			return iv
		}
		return FullInterval()
	}
	out := Interval{}
	if iv.Lo < other.Lo {
		out.Lo, out.LoIncl = iv.Lo, iv.LoIncl
	} else if other.Lo < iv.Lo {
		out.Lo, out.LoIncl = other.Lo, other.LoIncl
	} else {
		out.Lo, out.LoIncl = iv.Lo, iv.LoIncl || other.LoIncl
	}
	if iv.Hi > other.Hi {
		out.Hi, out.HiIncl = iv.Hi, iv.HiIncl
	} else if other.Hi > iv.Hi {
		out.Hi, out.HiIncl = other.Hi, other.HiIncl
	} else {
		out.Hi, out.HiIncl = iv.Hi, iv.HiIncl || other.HiIncl
	}
	return out
}

func (iv Interval) String() string {
	if iv.IsString {
		return fmt.Sprintf("= '%s'", iv.StrVal)
	}
	lo, hi := "(", ")"
	if iv.LoIncl {
		lo = "["
	}
	if iv.HiIncl {
		hi = "]"
	}
	return fmt.Sprintf("%s%g,%g%s", lo, iv.Lo, iv.Hi, hi)
}

// RangeCond restricts one column to an interval.
type RangeCond struct {
	Col sqlx.ColRef
	Iv  Interval
}

func (r RangeCond) String() string { return r.Col.String() + " " + r.Iv.String() }

// ViewColumn is one output column of a view: either a base-table column or
// an aggregate over one. Name is the view-local column name, derived
// deterministically from the source so equal sources map to equal names
// across views (which makes index promotion during view merging a rename).
type ViewColumn struct {
	Name   string
	Agg    sqlx.AggFunc // AggNone for plain columns
	Source sqlx.ColRef  // zero for COUNT(*)
	Width  int          // average stored width in bytes
}

// BaseViewColumn builds a plain column entry.
func BaseViewColumn(src sqlx.ColRef, width int) ViewColumn {
	return ViewColumn{Name: viewColName(sqlx.AggNone, src), Source: src, Width: width}
}

// AggViewColumn builds an aggregate column entry.
func AggViewColumn(agg sqlx.AggFunc, src sqlx.ColRef, width int) ViewColumn {
	return ViewColumn{Name: viewColName(agg, src), Agg: agg, Source: src, Width: width}
}

func viewColName(agg sqlx.AggFunc, src sqlx.ColRef) string {
	base := src.Table + "_" + src.Column
	if src == (sqlx.ColRef{}) {
		base = "star"
	}
	if agg == sqlx.AggNone {
		return base
	}
	return strings.ToLower(agg.String()) + "_" + base
}

// View is the 6-tuple V = (S, F, J, R, O, G) of §3.1.2. A view becomes a
// materialized view when a clustered index over it appears in a
// configuration. EstRows is the optimizer-estimated cardinality
// (§3.3.1: view sizes use the optimizer's cardinality module).
type View struct {
	Name    string
	Cols    []ViewColumn // S
	Tables  []string     // F, sorted
	Joins   []JoinPred   // J
	Ranges  []RangeCond  // R
	Others  []sqlx.Expr  // O, conjuncts
	GroupBy []sqlx.ColRef
	EstRows int64
	// sig caches Signature(). ViewNameFor seals it, where the definition is
	// complete and its name is derived from the same string, before the
	// view is shared; Configuration.AddView seals a copy of any view that
	// arrives without one. Clone drops it, so editing a clone cannot leave
	// a stale identity behind. Like Index.id it is never stored lazily.
	sig string
}

// Signature returns the canonical identity of the view definition. Two
// views with equal signatures are the same physical structure.
func (v *View) Signature() string {
	if v.sig != "" {
		return v.sig
	}
	return v.buildSignature()
}

func (v *View) buildSignature() string {
	var sb strings.Builder
	sb.WriteString("view{S:")
	cols := make([]string, len(v.Cols))
	for i, c := range v.Cols {
		cols[i] = c.Name
	}
	sort.Strings(cols)
	sb.WriteString(strings.Join(cols, ","))
	sb.WriteString(" F:")
	sb.WriteString(strings.Join(v.Tables, ","))
	sb.WriteString(" J:")
	js := make([]string, len(v.Joins))
	for i, j := range v.Joins {
		js[i] = j.String()
	}
	sort.Strings(js)
	sb.WriteString(strings.Join(js, " AND "))
	sb.WriteString(" R:")
	rs := make([]string, len(v.Ranges))
	for i, r := range v.Ranges {
		rs[i] = r.String()
	}
	sort.Strings(rs)
	sb.WriteString(strings.Join(rs, " AND "))
	sb.WriteString(" O:")
	os := make([]string, len(v.Others))
	for i, o := range v.Others {
		os[i] = o.String()
	}
	sort.Strings(os)
	sb.WriteString(strings.Join(os, " AND "))
	sb.WriteString(" G:")
	gs := make([]string, len(v.GroupBy))
	for i, g := range v.GroupBy {
		gs[i] = g.String()
	}
	sort.Strings(gs)
	sb.WriteString(strings.Join(gs, ","))
	sb.WriteString("}")
	return sb.String()
}

// Select returns the view definition as a SELECT statement: one item per
// column, aliased by its name; the tables; a WHERE of the joins, each
// range's comparisons and the other conjuncts, in that order; and the
// grouping columns. The statement is what CBV binds and what SQL renders;
// it shares the view's slices, so it is read, not edited.
func (v *View) Select() *sqlx.SelectStmt {
	s := &sqlx.SelectStmt{
		Items:   make([]sqlx.SelectItem, len(v.Cols)),
		From:    make([]sqlx.TableRef, len(v.Tables)),
		GroupBy: v.GroupBy,
	}
	for i, c := range v.Cols {
		s.Items[i] = sqlx.SelectItem{Agg: c.Agg, Alias: c.Name}
		if c.Source != (sqlx.ColRef{}) {
			s.Items[i].Expr = c.Source
		}
	}
	for i, t := range v.Tables {
		s.From[i] = sqlx.TableRef{Name: t}
	}
	var conj []sqlx.Expr
	for _, j := range v.Joins {
		conj = append(conj, &sqlx.CmpExpr{Op: sqlx.CmpEQ, L: j.L, R: j.R})
	}
	for _, r := range v.Ranges {
		conj = r.appendConjuncts(conj)
	}
	s.Where = sqlx.And(append(conj, v.Others...)...)
	return s
}

// appendConjuncts appends the comparisons that restrict r.Col to r.Iv: one
// equality for a point, otherwise one per finite bound, none for the full
// interval.
func (r RangeCond) appendConjuncts(dst []sqlx.Expr) []sqlx.Expr {
	cmp := func(op sqlx.CmpOp, c sqlx.Const) sqlx.Expr { return &sqlx.CmpExpr{Op: op, L: r.Col, R: c} }
	iv := r.Iv
	switch {
	case iv.IsString:
		return append(dst, cmp(sqlx.CmpEQ, sqlx.Str(iv.StrVal)))
	case iv.IsPoint():
		return append(dst, cmp(sqlx.CmpEQ, sqlx.Number(iv.Lo)))
	}
	if !math.IsInf(iv.Lo, -1) {
		op := sqlx.CmpGT
		if iv.LoIncl {
			op = sqlx.CmpGE
		}
		dst = append(dst, cmp(op, sqlx.Number(iv.Lo)))
	}
	if !math.IsInf(iv.Hi, 1) {
		op := sqlx.CmpLT
		if iv.HiIncl {
			op = sqlx.CmpLE
		}
		dst = append(dst, cmp(op, sqlx.Number(iv.Hi)))
	}
	return dst
}

// SQL renders the view definition as its SELECT statement.
func (v *View) SQL() string { return v.Select().SQL() }

// RowWidth returns the average width in bytes of one view row.
func (v *View) RowWidth() int {
	w := 0
	for _, c := range v.Cols {
		w += c.Width
	}
	if w == 0 {
		w = 8
	}
	return w
}

// Column returns the named view column, or nil.
func (v *View) Column(name string) *ViewColumn {
	for i := range v.Cols {
		if v.Cols[i].Name == name {
			return &v.Cols[i]
		}
	}
	return nil
}

// ColumnForSource returns the view column carrying the given base column
// (AggNone entry), or nil.
func (v *View) ColumnForSource(src sqlx.ColRef) *ViewColumn {
	for i := range v.Cols {
		if v.Cols[i].Agg == sqlx.AggNone && v.Cols[i].Source == src {
			return &v.Cols[i]
		}
	}
	return nil
}

// AggColumnFor returns the view column carrying agg(src), or nil.
func (v *View) AggColumnFor(agg sqlx.AggFunc, src sqlx.ColRef) *ViewColumn {
	for i := range v.Cols {
		if v.Cols[i].Agg == agg && v.Cols[i].Source == src {
			return &v.Cols[i]
		}
	}
	return nil
}

// maxTableSet is the longest table set HasTableSet sorts on the stack:
// optimizer.MaxJoinTables, the most tables a statement the optimizer
// accepts may join. A longer set is sorted in a copy on the heap.
const maxTableSet = 16

// HasTableSet reports whether the view's FROM set equals tables. It is on
// the optimizer's view-matching path, so it sorts a copy of tables on the
// stack rather than allocate one.
func (v *View) HasTableSet(tables []string) bool {
	if len(tables) != len(v.Tables) {
		return false
	}
	var buf [maxTableSet]string
	sorted := buf[:0]
	if len(tables) > len(buf) {
		sorted = make([]string, 0, len(tables))
	}
	sorted = append(sorted, tables...)
	slices.Sort(sorted)
	return slices.Equal(sorted, v.Tables)
}

// AllColumnNames returns the view-local names of all output columns.
func (v *View) AllColumnNames() []string {
	out := make([]string, len(v.Cols))
	for i, c := range v.Cols {
		out[i] = c.Name
	}
	return out
}

// Clone returns a deep copy of the view definition, without the sealed
// signature: callers clone to edit.
func (v *View) Clone() *View {
	nv := &View{
		Name:    v.Name,
		Cols:    append([]ViewColumn(nil), v.Cols...),
		Tables:  append([]string(nil), v.Tables...),
		Joins:   append([]JoinPred(nil), v.Joins...),
		Ranges:  append([]RangeCond(nil), v.Ranges...),
		Others:  append([]sqlx.Expr(nil), v.Others...),
		GroupBy: append([]sqlx.ColRef(nil), v.GroupBy...),
		EstRows: v.EstRows,
	}
	return nv
}
