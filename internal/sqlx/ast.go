package sqlx

import (
	"fmt"
	"sort"
	"strconv"
)

// AggFunc identifies an aggregate function in a select list.
type AggFunc int

// Aggregate functions.
const (
	AggNone AggFunc = iota
	AggSum
	AggCount
	AggAvg
	AggMin
	AggMax
)

func (a AggFunc) String() string {
	switch a {
	case AggSum:
		return "SUM"
	case AggCount:
		return "COUNT"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return ""
	}
}

// CmpOp is a comparison operator in a predicate.
type CmpOp int

// Comparison operators.
const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (op CmpOp) String() string {
	switch op {
	case CmpEQ:
		return "="
	case CmpNE:
		return "<>"
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	default:
		return "?"
	}
}

// Flip returns the operator with its operands exchanged (a op b == b op' a).
func (op CmpOp) Flip() CmpOp {
	switch op {
	case CmpLT:
		return CmpGT
	case CmpLE:
		return CmpGE
	case CmpGT:
		return CmpLT
	case CmpGE:
		return CmpLE
	default:
		return op
	}
}

// Expr is a scalar expression node.
type Expr interface {
	fmt.Stringer
	// Columns appends all column references in the expression to dst.
	Columns(dst []ColRef) []ColRef
	// EqualExpr reports structural equality modulo nothing (exact shape).
	EqualExpr(other Expr) bool
}

// ColRef is a (possibly qualified) column reference.
type ColRef struct {
	Table  string // alias or table name; empty if unqualified
	Column string
}

func (c ColRef) String() string {
	if c.Table == "" {
		return c.Column // what appendTo writes, without the copy
	}
	return exprString(c)
}

func (c ColRef) appendTo(dst []byte) []byte {
	if c.Table != "" {
		dst = append(append(dst, c.Table...), '.')
	}
	return append(dst, c.Column...)
}

// Columns implements Expr.
func (c ColRef) Columns(dst []ColRef) []ColRef { return append(dst, c) }

// EqualExpr implements Expr.
func (c ColRef) EqualExpr(other Expr) bool {
	o, ok := other.(ColRef)
	return ok && o == c
}

// Less imposes a total order on column references (for canonicalization).
func (c ColRef) Less(o ColRef) bool {
	if c.Table != o.Table {
		return c.Table < o.Table
	}
	return c.Column < o.Column
}

// ConstKind distinguishes literal types.
type ConstKind int

// Constant kinds.
const (
	ConstNumber ConstKind = iota
	ConstString
)

// Const is a literal constant.
type Const struct {
	Kind ConstKind
	Num  float64
	Str  string
}

// Number returns a numeric constant expression.
func Number(v float64) Const { return Const{Kind: ConstNumber, Num: v} }

// Str returns a string constant expression.
func Str(s string) Const { return Const{Kind: ConstString, Str: s} }

func (c Const) String() string { return exprString(c) }

// appendTo writes a number in the shortest form that reads back exactly,
// and a string quoted, with each quote doubled.
func (c Const) appendTo(dst []byte) []byte {
	if c.Kind != ConstString {
		return strconv.AppendFloat(dst, c.Num, 'g', -1, 64)
	}
	dst = append(dst, '\'')
	for i := 0; i < len(c.Str); i++ {
		if c.Str[i] == '\'' {
			dst = append(dst, '\'')
		}
		dst = append(dst, c.Str[i])
	}
	return append(dst, '\'')
}

// Columns implements Expr.
func (c Const) Columns(dst []ColRef) []ColRef { return dst }

// EqualExpr implements Expr.
func (c Const) EqualExpr(other Expr) bool {
	o, ok := other.(Const)
	return ok && o == c
}

// BinExpr is an arithmetic binary expression (+ - * / %).
type BinExpr struct {
	Op   string
	L, R Expr
}

func (b *BinExpr) String() string { return exprString(b) }

// Columns implements Expr.
func (b *BinExpr) Columns(dst []ColRef) []ColRef {
	return b.R.Columns(b.L.Columns(dst))
}

// EqualExpr implements Expr.
func (b *BinExpr) EqualExpr(other Expr) bool {
	o, ok := other.(*BinExpr)
	return ok && o.Op == b.Op && b.L.EqualExpr(o.L) && b.R.EqualExpr(o.R)
}

// CmpExpr is a comparison between two scalar expressions.
type CmpExpr struct {
	Op   CmpOp
	L, R Expr
}

func (c *CmpExpr) String() string { return exprString(c) }

// Columns implements Expr.
func (c *CmpExpr) Columns(dst []ColRef) []ColRef {
	return c.R.Columns(c.L.Columns(dst))
}

// EqualExpr implements Expr.
func (c *CmpExpr) EqualExpr(other Expr) bool {
	o, ok := other.(*CmpExpr)
	return ok && o.Op == c.Op && c.L.EqualExpr(o.L) && c.R.EqualExpr(o.R)
}

// LikeExpr is a LIKE pattern predicate.
type LikeExpr struct {
	Col     ColRef
	Pattern string
	Negated bool
}

func (l *LikeExpr) String() string { return exprString(l) }

func (l *LikeExpr) appendTo(dst []byte) []byte {
	dst = append(l.Col.appendTo(dst), ' ')
	if l.Negated {
		dst = append(dst, "NOT "...)
	}
	return Str(l.Pattern).appendTo(append(dst, "LIKE "...))
}

// Columns implements Expr.
func (l *LikeExpr) Columns(dst []ColRef) []ColRef { return append(dst, l.Col) }

// EqualExpr implements Expr.
func (l *LikeExpr) EqualExpr(other Expr) bool {
	o, ok := other.(*LikeExpr)
	return ok && *o == *l
}

// InExpr is a col IN (const, ...) predicate.
type InExpr struct {
	Col    ColRef
	Values []Const
}

func (in *InExpr) String() string { return exprString(in) }

func (in *InExpr) appendTo(dst []byte) []byte {
	dst = append(in.Col.appendTo(dst), " IN ("...)
	for i, v := range in.Values {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = v.appendTo(dst)
	}
	return append(dst, ')')
}

// Columns implements Expr.
func (in *InExpr) Columns(dst []ColRef) []ColRef { return append(dst, in.Col) }

// EqualExpr implements Expr.
func (in *InExpr) EqualExpr(other Expr) bool {
	o, ok := other.(*InExpr)
	if !ok || o.Col != in.Col || len(o.Values) != len(in.Values) {
		return false
	}
	for i := range in.Values {
		if o.Values[i] != in.Values[i] {
			return false
		}
	}
	return true
}

// BoolExpr is a boolean combination of predicates.
type BoolExpr struct {
	Op   string // "AND", "OR", "NOT" (NOT uses only L)
	L, R Expr
}

func (b *BoolExpr) String() string { return exprString(b) }

// Columns implements Expr.
func (b *BoolExpr) Columns(dst []ColRef) []ColRef {
	dst = b.L.Columns(dst)
	if b.R != nil {
		dst = b.R.Columns(dst)
	}
	return dst
}

// EqualExpr implements Expr.
func (b *BoolExpr) EqualExpr(other Expr) bool {
	o, ok := other.(*BoolExpr)
	if !ok || o.Op != b.Op {
		return false
	}
	if !b.L.EqualExpr(o.L) {
		return false
	}
	if b.R == nil {
		return o.R == nil
	}
	return o.R != nil && b.R.EqualExpr(o.R)
}

// exprString renders e through appendExpr; an expression of up to 128
// bytes costs one allocation, the string.
func exprString(e Expr) string {
	var buf [128]byte
	return string(appendExpr(buf[:0], e, false))
}

// compound reports whether e is a binary, comparison or boolean node, the
// nodes written in parentheses as an operand.
func compound(e Expr) bool {
	switch e.(type) {
	case *BoolExpr, *CmpExpr, *BinExpr:
		return true
	}
	return false
}

// appendExpr appends e as String writes it, in parentheses when paren is
// set and e is compound: a compound node is its operands around its
// operator, each compound operand in parentheses. The renderers recurse
// only into themselves, so a caller's stack buffer stays on its stack.
func appendExpr(dst []byte, e Expr, paren bool) []byte {
	if paren && compound(e) {
		return append(appendExpr(append(dst, '('), e, false), ')')
	}
	switch x := e.(type) {
	case ColRef:
		return x.appendTo(dst)
	case Const:
		return x.appendTo(dst)
	case *LikeExpr:
		return x.appendTo(dst)
	case *InExpr:
		return x.appendTo(dst)
	case *BinExpr:
		return appendExpr(appendOp(appendExpr(dst, x.L, true), x.Op), x.R, true)
	case *CmpExpr:
		return appendExpr(appendOp(appendExpr(dst, x.L, true), x.Op.String()), x.R, true)
	case *BoolExpr:
		if x.Op == "NOT" {
			return appendExpr(append(dst, "NOT "...), x.L, true)
		}
		return appendExpr(appendOp(appendExpr(dst, x.L, true), x.Op), x.R, true)
	default:
		return append(dst, e.String()...)
	}
}

// appendOp appends op with a space on each side.
func appendOp(dst []byte, op string) []byte {
	return append(append(append(dst, ' '), op...), ' ')
}

// appendPredicate appends a statement's WHERE condition as appendExpr
// does, but with every comparison's left operand written so that it does
// not open with "(": the parser reads a condition that opens with "(" as
// a parenthesized condition, so (a + b) > 3, as String writes it, does
// not parse back. Every statement's text, a view definition's included,
// goes through here; expression signatures keep String.
func appendPredicate(dst []byte, e Expr, paren bool) []byte {
	if paren && compound(e) {
		return append(appendPredicate(append(dst, '('), e, false), ')')
	}
	switch x := e.(type) {
	case *CmpExpr:
		return appendExpr(appendOp(appendLeadingOperand(dst, x.L), x.Op.String()), x.R, true)
	case *BoolExpr:
		if x.Op == "NOT" {
			return appendPredicate(append(dst, "NOT "...), x.L, true)
		}
		return appendPredicate(appendOp(appendPredicate(dst, x.L, true), x.Op), x.R, true)
	default:
		return appendExpr(dst, e, false)
	}
}

// appendLeadingOperand appends a comparison's left operand for
// appendPredicate: along the left spine a child of the same or higher
// precedence goes without parentheses, which the left-associative grammar
// reads back as the same tree, and 0 − x, which is what the parser makes
// of −x, renders as −x.
func appendLeadingOperand(dst []byte, e Expr) []byte {
	b, ok := e.(*BinExpr)
	switch {
	case !ok:
		return appendExpr(dst, e, false)
	case isNegation(b):
		return appendExpr(append(dst, '-'), b.R, true)
	}
	if l, ok := b.L.(*BinExpr); ok && isAdditive(l) && !isAdditive(b) {
		dst = appendExpr(dst, l, true)
	} else {
		dst = appendLeadingOperand(dst, b.L)
	}
	return appendExpr(appendOp(dst, b.Op), b.R, true)
}

// isNegation reports whether b is 0 − x for an x the parser does not fold
// into a constant, which is what it makes of −x.
func isNegation(b *BinExpr) bool {
	_, constant := b.R.(Const)
	return b.Op == "-" && b.L == Expr(Number(0)) && !constant
}

// isAdditive reports whether b is a binary + or −, the operators that bind
// looser than *, / and %.
func isAdditive(b *BinExpr) bool {
	return (b.Op == "+" || b.Op == "-") && !isNegation(b)
}

// SelectItem is one entry in a select list: an optional aggregate applied to
// an expression, with an optional alias. COUNT(*) is Agg=AggCount, Expr=nil.
type SelectItem struct {
	Agg   AggFunc
	Expr  Expr // nil only for COUNT(*)
	Alias string
}

func (s SelectItem) String() string { return string(s.appendTo(nil)) }

func (s SelectItem) appendTo(dst []byte) []byte {
	if s.Agg != AggNone {
		dst = append(append(dst, s.Agg.String()...), '(')
		if s.Expr != nil {
			dst = appendExpr(dst, s.Expr, false)
		} else {
			dst = append(dst, '*')
		}
		dst = append(dst, ')')
	} else {
		dst = appendExpr(dst, s.Expr, false)
	}
	if s.Alias != "" {
		dst = append(append(dst, " AS "...), s.Alias...)
	}
	return dst
}

// TableRef is a table in a FROM clause with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name queries use to reference this table's columns.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

func (t TableRef) String() string {
	if t.Alias == "" || t.Alias == t.Name {
		return t.Name // what appendTo writes, without the copy
	}
	return string(t.appendTo(nil))
}

// appendTo writes the name, then the alias when it differs from the name.
func (t TableRef) appendTo(dst []byte) []byte {
	dst = append(dst, t.Name...)
	if t.Alias != "" && t.Alias != t.Name {
		dst = append(append(dst, ' '), t.Alias...)
	}
	return dst
}

// OrderItem is one entry of an ORDER BY clause.
type OrderItem struct {
	Col  ColRef
	Desc bool
}

func (o OrderItem) String() string { return string(o.appendTo(nil)) }

func (o OrderItem) appendTo(dst []byte) []byte {
	dst = o.Col.appendTo(dst)
	if o.Desc {
		dst = append(dst, " DESC"...)
	}
	return dst
}

// StmtKind distinguishes statement types.
type StmtKind int

// Statement kinds.
const (
	StmtSelect StmtKind = iota
	StmtUpdate
	StmtInsert
	StmtDelete
)

// Statement is any parsed SQL statement.
type Statement interface {
	Kind() StmtKind
	SQL() string
}

// SelectStmt is a single-block SPJG query with optional ORDER BY and TOP.
type SelectStmt struct {
	Items   []SelectItem
	From    []TableRef
	Where   Expr // nil if absent; conjunction tree
	GroupBy []ColRef
	OrderBy []OrderItem
	Top     int // 0 means no TOP clause
}

// Kind implements Statement.
func (s *SelectStmt) Kind() StmtKind { return StmtSelect }

// SQL implements Statement.
func (s *SelectStmt) SQL() string {
	var buf [stmtBuf]byte
	dst := appendTop(append(buf[:0], "SELECT "...), s.Top)
	for i, it := range s.Items {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = it.appendTo(dst)
	}
	dst = append(dst, " FROM "...)
	for i, t := range s.From {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = t.appendTo(dst)
	}
	dst = appendWhere(dst, s.Where)
	if len(s.GroupBy) > 0 {
		dst = append(dst, " GROUP BY "...)
		for i, c := range s.GroupBy {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = c.appendTo(dst)
		}
	}
	if len(s.OrderBy) > 0 {
		dst = append(dst, " ORDER BY "...)
		for i, o := range s.OrderBy {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = o.appendTo(dst)
		}
	}
	return string(dst)
}

// stmtBuf is the size of the stack buffer a statement renders into: one
// of up to this many bytes costs one allocation, its string.
const stmtBuf = 512

// appendTop appends "TOP(n) " when n is positive.
func appendTop(dst []byte, n int) []byte {
	if n <= 0 {
		return dst
	}
	return append(strconv.AppendInt(append(dst, "TOP("...), int64(n), 10), ") "...)
}

// appendWhere appends " WHERE " and the condition when there is one.
func appendWhere(dst []byte, where Expr) []byte {
	if where == nil {
		return dst
	}
	return appendPredicate(append(dst, " WHERE "...), where, false)
}

// SetClause is one assignment in an UPDATE statement.
type SetClause struct {
	Column string
	Value  Expr
}

// UpdateStmt is UPDATE table SET col=expr, ... WHERE pred.
type UpdateStmt struct {
	Table TableRef
	Sets  []SetClause
	Where Expr // nil if absent
	Top   int  // 0 means no TOP clause (used by update shells)
}

// Kind implements Statement.
func (u *UpdateStmt) Kind() StmtKind { return StmtUpdate }

// SQL implements Statement.
func (u *UpdateStmt) SQL() string {
	var buf [stmtBuf]byte
	dst := u.Table.appendTo(appendTop(append(buf[:0], "UPDATE "...), u.Top))
	dst = append(dst, " SET "...)
	for i, set := range u.Sets {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(append(dst, set.Column...), " = "...)
		dst = appendExpr(dst, set.Value, false)
	}
	return string(appendWhere(dst, u.Where))
}

// InsertStmt is INSERT INTO table VALUES (...), possibly multi-row.
type InsertStmt struct {
	Table TableRef
	Rows  int // number of VALUES tuples
}

// Kind implements Statement.
func (i *InsertStmt) Kind() StmtKind { return StmtInsert }

// SQL implements Statement.
func (i *InsertStmt) SQL() string {
	var buf [stmtBuf]byte
	dst := i.Table.appendTo(append(buf[:0], "INSERT INTO "...))
	dst = strconv.AppendInt(append(dst, " VALUES <"...), int64(i.Rows), 10)
	return string(append(dst, " rows>"...))
}

// DeleteStmt is DELETE FROM table WHERE pred.
type DeleteStmt struct {
	Table TableRef
	Where Expr // nil if absent
}

// Kind implements Statement.
func (d *DeleteStmt) Kind() StmtKind { return StmtDelete }

// SQL implements Statement.
func (d *DeleteStmt) SQL() string {
	var buf [stmtBuf]byte
	dst := d.Table.appendTo(append(buf[:0], "DELETE FROM "...))
	return string(appendWhere(dst, d.Where))
}

// Conjuncts splits a predicate tree into its top-level AND conjuncts.
// A nil expression yields nil.
func Conjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BoolExpr); ok && b.Op == "AND" {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// And combines predicates into a left-deep conjunction tree. Nil entries are
// skipped; And() of nothing returns nil.
func And(es ...Expr) Expr {
	var out Expr
	for _, e := range es {
		if e == nil {
			continue
		}
		if out == nil {
			out = e
		} else {
			out = &BoolExpr{Op: "AND", L: out, R: e}
		}
	}
	return out
}

// DedupColRefs sorts and deduplicates a slice of column references.
func DedupColRefs(cols []ColRef) []ColRef {
	sort.Slice(cols, func(i, j int) bool { return cols[i].Less(cols[j]) })
	out := cols[:0]
	for i, c := range cols {
		if i == 0 || cols[i-1] != c {
			out = append(out, c)
		}
	}
	return out
}
