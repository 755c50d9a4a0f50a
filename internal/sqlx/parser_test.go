package sqlx

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func mustSelect(t *testing.T, src string) *SelectStmt {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("Parse(%q) is a %T, not a SELECT", src, stmt)
	}
	return sel
}

func TestParseSimpleSelect(t *testing.T) {
	sel := mustSelect(t, "SELECT a, b FROM t WHERE a > 5")
	if len(sel.Items) != 2 || len(sel.From) != 1 {
		t.Fatalf("unexpected shape: %+v", sel)
	}
	cmp, ok := sel.Where.(*CmpExpr)
	if !ok || cmp.Op != CmpGT {
		t.Fatalf("where: %v", sel.Where)
	}
}

func TestParseQualifiedColumnsAndAliases(t *testing.T) {
	sel := mustSelect(t, "SELECT t1.a AS x, SUM(t2.b) total FROM t1, t2 AS u WHERE t1.id = u.fk")
	if sel.Items[0].Alias != "x" {
		t.Errorf("alias: %q", sel.Items[0].Alias)
	}
	if sel.Items[1].Agg != AggSum || sel.Items[1].Alias != "total" {
		t.Errorf("aggregate item: %+v", sel.Items[1])
	}
	if sel.From[1].Alias != "u" {
		t.Errorf("table alias: %+v", sel.From[1])
	}
}

func TestParseGroupOrderTop(t *testing.T) {
	sel := mustSelect(t, "SELECT TOP(5) a, COUNT(*) FROM t GROUP BY a ORDER BY a DESC")
	if sel.Top != 5 {
		t.Errorf("top: %d", sel.Top)
	}
	if len(sel.GroupBy) != 1 || sel.GroupBy[0].Column != "a" {
		t.Errorf("group by: %v", sel.GroupBy)
	}
	if len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Errorf("order by: %v", sel.OrderBy)
	}
}

func TestParseBetweenDesugars(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE a BETWEEN 1 AND 10")
	conj := Conjuncts(sel.Where)
	if len(conj) != 2 {
		t.Fatalf("BETWEEN should desugar into two conjuncts, got %d", len(conj))
	}
	lo := conj[0].(*CmpExpr)
	hi := conj[1].(*CmpExpr)
	if lo.Op != CmpGE || hi.Op != CmpLE {
		t.Errorf("ops: %v %v", lo.Op, hi.Op)
	}
}

func TestParseInLikeNot(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE b IN ('x','y') AND c LIKE 'p%' AND d NOT LIKE '%q' AND e NOT IN (1,2)")
	conj := Conjuncts(sel.Where)
	if len(conj) != 4 {
		t.Fatalf("conjuncts: %d", len(conj))
	}
	if in, ok := conj[0].(*InExpr); !ok || len(in.Values) != 2 {
		t.Errorf("IN: %v", conj[0])
	}
	if lk, ok := conj[1].(*LikeExpr); !ok || lk.Negated {
		t.Errorf("LIKE: %v", conj[1])
	}
	if lk, ok := conj[2].(*LikeExpr); !ok || !lk.Negated {
		t.Errorf("NOT LIKE: %v", conj[2])
	}
	if not, ok := conj[3].(*BoolExpr); !ok || not.Op != "NOT" {
		t.Errorf("NOT IN: %v", conj[3])
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE a + b * 2 > 10")
	cmp := sel.Where.(*CmpExpr)
	add, ok := cmp.L.(*BinExpr)
	if !ok || add.Op != "+" {
		t.Fatalf("expected + at top of lhs, got %v", cmp.L)
	}
	mul, ok := add.R.(*BinExpr)
	if !ok || mul.Op != "*" {
		t.Fatalf("expected * to bind tighter, got %v", add.R)
	}
}

func TestParseBooleanPrecedence(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or, ok := sel.Where.(*BoolExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("OR should be at the top, got %v", sel.Where)
	}
	and, ok := or.R.(*BoolExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("AND should bind tighter, got %v", or.R)
	}
}

func TestParseParenthesizedDisjunction(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t WHERE (a = 1 OR b = 2) AND c = 3")
	conj := Conjuncts(sel.Where)
	if len(conj) != 2 {
		t.Fatalf("conjuncts: %d", len(conj))
	}
	if or, ok := conj[0].(*BoolExpr); !ok || or.Op != "OR" {
		t.Errorf("first conjunct should be the disjunction: %v", conj[0])
	}
}

func TestParseUpdate(t *testing.T) {
	stmt, err := Parse("UPDATE r SET a = b + 1, c = 0 WHERE a < 10 AND d < 20")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u := stmt.(*UpdateStmt)
	if u.Table.Name != "r" || len(u.Sets) != 2 {
		t.Fatalf("update shape: %+v", u)
	}
	if len(Conjuncts(u.Where)) != 2 {
		t.Errorf("where conjuncts: %v", u.Where)
	}
}

func TestParseUpdateShellWithTop(t *testing.T) {
	stmt, err := Parse("UPDATE TOP(100) r SET a = 0")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	u := stmt.(*UpdateStmt)
	if u.Top != 100 {
		t.Errorf("top: %d", u.Top)
	}
}

func TestParseInsertCountsRows(t *testing.T) {
	stmt, err := Parse("INSERT INTO t VALUES (1, 'a', 2.5), (2, 'b', 3.5)")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	ins := stmt.(*InsertStmt)
	if ins.Rows != 2 {
		t.Errorf("rows: %d", ins.Rows)
	}
}

func TestParseDelete(t *testing.T) {
	stmt, err := Parse("DELETE FROM t WHERE a = 1")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	d := stmt.(*DeleteStmt)
	if d.Table.Name != "t" || d.Where == nil {
		t.Fatalf("delete shape: %+v", d)
	}
}

func TestParseScript(t *testing.T) {
	stmts, err := ParseScript("SELECT a FROM t; UPDATE t SET a = 1; DELETE FROM t;")
	if err != nil {
		t.Fatalf("parse script: %v", err)
	}
	if len(stmts) != 3 {
		t.Fatalf("statements: %d", len(stmts))
	}
	kinds := []StmtKind{StmtSelect, StmtUpdate, StmtDelete}
	for i, k := range kinds {
		if stmts[i].Kind() != k {
			t.Errorf("statement %d kind: %v", i, stmts[i].Kind())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t trailing garbage (",
		"UPDATE SET a = 1",
		"INSERT t VALUES (1)",
		"DELETE t",
		"SELECT a FROM t WHERE a >",
		"SELECT a FROM t WHERE a BETWEEN 1",
		"SELECT a FROM t WHERE a IN ()",
		"SELECT SUM(*) FROM t",
		"SELECT a AS FROM t",
		"SELECT COUNT(*) AS FROM t",
		"SELECT a FROM t AS WHERE a = 1",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestParseRoundTrip checks that rendering a parsed statement and parsing
// it again yields an identical rendering (SQL() is a fixpoint).
func TestParseRoundTrip(t *testing.T) {
	srcs := []string{
		"SELECT a, SUM(b) AS s FROM t WHERE a > 5 AND b IN (1, 2) GROUP BY a ORDER BY a DESC",
		"SELECT t1.a FROM t1, t2 WHERE t1.x = t2.y AND (t1.a < t1.b OR t1.c < 8)",
		"UPDATE r SET a = b + 1 WHERE a < 10",
		"DELETE FROM r WHERE a >= 3 AND b LIKE 'x%'",
		// A comparison renders its left operand without the parentheses
		// a leading "(" would need; numbers may render with an exponent;
		// a pattern keeps its quotes escaped.
		"SELECT a FROM t WHERE a + b * c - d > 3 AND (a * b % 7 = 0 OR -a * b <= 0 - 5)",
		"SELECT a FROM t WHERE -(a + b) >= c AND a < 1200000 AND b > 0.00001 AND c LIKE 'it''s%'",
	}
	for _, src := range srcs {
		s1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		rendered := s1.SQL()
		s2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("reparse %q: %v", rendered, err)
		}
		if s2.SQL() != rendered {
			t.Errorf("SQL() not a fixpoint:\n  first:  %s\n  second: %s", rendered, s2.SQL())
		}
	}
}

// randomExpr builds a random predicate tree for property testing.
func randomExpr(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			return ColRef{Table: "t", Column: string(rune('a' + r.Intn(6)))}
		case 1:
			return Number(math.Trunc(r.Float64()*100) / 2)
		default:
			return Str(strings.Repeat("x", r.Intn(4)+1))
		}
	}
	switch r.Intn(4) {
	case 0:
		return &CmpExpr{Op: CmpOp(r.Intn(6)), L: randomExpr(r, 0), R: randomExpr(r, 0)}
	case 1:
		return &BinExpr{Op: []string{"+", "-", "*"}[r.Intn(3)], L: randomExpr(r, depth-1), R: randomExpr(r, depth-1)}
	case 2:
		return &BoolExpr{Op: "AND", L: randomCmp(r, depth-1), R: randomCmp(r, depth-1)}
	default:
		return &BoolExpr{Op: "OR", L: randomCmp(r, depth-1), R: randomCmp(r, depth-1)}
	}
}

func randomCmp(r *rand.Rand, depth int) Expr {
	if depth > 0 && r.Intn(2) == 0 {
		return &BoolExpr{Op: "AND", L: randomCmp(r, depth-1), R: randomCmp(r, depth-1)}
	}
	return &CmpExpr{Op: CmpOp(r.Intn(6)), L: ColRef{Table: "t", Column: "a"}, R: Number(float64(r.Intn(50)))}
}

// TestExprEqualityReflexive: every expression equals itself structurally.
func TestExprEqualityReflexive(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Values: func(vals []reflect.Value, r *rand.Rand) {
		vals[0] = reflect.ValueOf(randomExpr(r, 3))
	}}
	if err := quick.Check(func(e Expr) bool { return e.EqualExpr(e) }, cfg); err != nil {
		t.Error(err)
	}
}

// TestConjunctsAndRoundTrip: splitting a conjunction built with And
// returns the same conjuncts.
func TestConjunctsAndRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Values: func(vals []reflect.Value, r *rand.Rand) {
		n := r.Intn(5) + 1
		es := make([]Expr, n)
		for i := range es {
			es[i] = randomCmp(r, 0)
		}
		vals[0] = reflect.ValueOf(es)
	}}
	if err := quick.Check(func(es []Expr) bool {
		got := Conjuncts(And(es...))
		if len(got) != len(es) {
			return false
		}
		for i := range es {
			if !got[i].EqualExpr(es[i]) {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}

// TestColumnsCollectsEverything: the column set of a conjunction is the
// union of its conjuncts' columns.
func TestColumnsCollectsEverything(t *testing.T) {
	e := And(
		&CmpExpr{Op: CmpLT, L: ColRef{Table: "t", Column: "a"}, R: Number(1)},
		&CmpExpr{Op: CmpEQ, L: ColRef{Table: "u", Column: "b"}, R: ColRef{Table: "t", Column: "c"}},
	)
	cols := DedupColRefs(e.Columns(nil))
	if len(cols) != 3 {
		t.Fatalf("columns: %v", cols)
	}
}

func TestDedupColRefs(t *testing.T) {
	cols := []ColRef{{Table: "t", Column: "b"}, {Table: "t", Column: "a"}, {Table: "t", Column: "b"}}
	got := DedupColRefs(cols)
	if len(got) != 2 || got[0].Column != "a" || got[1].Column != "b" {
		t.Errorf("dedup: %v", got)
	}
}

func TestCmpOpFlip(t *testing.T) {
	cases := map[CmpOp]CmpOp{
		CmpLT: CmpGT, CmpLE: CmpGE, CmpGT: CmpLT, CmpGE: CmpLE, CmpEQ: CmpEQ, CmpNE: CmpNE,
	}
	for op, want := range cases {
		if op.Flip() != want {
			t.Errorf("%v.Flip() = %v, want %v", op, op.Flip(), want)
		}
	}
}
