package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/physical"
	"repro/internal/sqlx"
)

// refViewSQL is the string builder View.SQL was before a view's text came
// from View.Select through sqlx's renderer, kept as the reference that
// every view whose text parsed is bound as before.
func refViewSQL(v *physical.View) string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	for i, c := range v.Cols {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(refColumnSQL(c))
		sb.WriteString(" AS ")
		sb.WriteString(c.Name)
	}
	sb.WriteString(" FROM ")
	sb.WriteString(strings.Join(v.Tables, ", "))
	var preds []string
	for _, j := range v.Joins {
		preds = append(preds, j.String())
	}
	for _, r := range v.Ranges {
		preds = append(preds, rangeSQL(r))
	}
	for _, o := range v.Others {
		preds = append(preds, o.String())
	}
	if len(preds) > 0 {
		sb.WriteString(" WHERE ")
		sb.WriteString(strings.Join(preds, " AND "))
	}
	if len(v.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		gs := make([]string, len(v.GroupBy))
		for i, g := range v.GroupBy {
			gs[i] = g.String()
		}
		sb.WriteString(strings.Join(gs, ", "))
	}
	return sb.String()
}

// refColumnSQL is what ViewColumn.String wrote for refViewSQL.
func refColumnSQL(vc physical.ViewColumn) string {
	if vc.Agg == sqlx.AggNone {
		return vc.Source.String()
	}
	if vc.Source == (sqlx.ColRef{}) {
		return vc.Agg.String() + "(*)"
	}
	return fmt.Sprintf("%s(%s)", vc.Agg, vc.Source)
}

func rangeSQL(r physical.RangeCond) string {
	iv := r.Iv
	if iv.IsString {
		return fmt.Sprintf("%s = '%s'", r.Col, iv.StrVal)
	}
	if iv.IsPoint() {
		return fmt.Sprintf("%s = %g", r.Col, iv.Lo)
	}
	var parts []string
	if !math.IsInf(iv.Lo, -1) {
		op := ">"
		if iv.LoIncl {
			op = ">="
		}
		parts = append(parts, fmt.Sprintf("%s %s %g", r.Col, op, iv.Lo))
	}
	if !math.IsInf(iv.Hi, 1) {
		op := "<"
		if iv.HiIncl {
			op = "<="
		}
		parts = append(parts, fmt.Sprintf("%s %s %g", r.Col, op, iv.Hi))
	}
	if len(parts) == 0 {
		return "1 = 1"
	}
	return strings.Join(parts, " AND ")
}

// checkReferenceText: wherever the reference text of a view parses, it
// parses to View.Select — the items, FROM and GROUP BY equal and the
// WHERE structurally equal — so every CBV that existed binds the same
// statement as before. Two differences are deliberate. A full-interval
// range, which the reference wrote as 1 = 1, Select leaves out. A
// disjunction among the other conjuncts the reference wrote without
// parentheses, so AND bound tighter and its text meant another statement
// (TPC-H Q19's view lost its join that way); Select keeps the disjunction
// one conjunct.
func checkReferenceText(t *testing.T, views []*physical.View) {
	t.Helper()
	isTautology := func(e sqlx.Expr) bool {
		return e.EqualExpr(&sqlx.CmpExpr{Op: sqlx.CmpEQ, L: sqlx.Number(1), R: sqlx.Number(1)})
	}
	isOr := func(e sqlx.Expr) bool {
		b, ok := e.(*sqlx.BoolExpr)
		return ok && b.Op == "OR"
	}
	var parsed, fullRange, disjunctive int
	for _, v := range views {
		if slices.ContainsFunc(v.Ranges, func(r physical.RangeCond) bool { return r.Iv.Unbounded() }) {
			fullRange++
		}
		stmt, err := sqlx.Parse(refViewSQL(v))
		ref, ok := stmt.(*sqlx.SelectStmt)
		if err != nil || !ok {
			continue
		}
		parsed++
		sel := v.Select()
		where := sqlx.And(slices.DeleteFunc(sqlx.Conjuncts(ref.Where), isTautology)...)
		if !slices.Equal(ref.Items, sel.Items) || !slices.Equal(ref.From, sel.From) || !slices.Equal(ref.GroupBy, sel.GroupBy) {
			t.Errorf("%s: %s, reference %s", v.Name, sel.SQL(), ref.SQL())
			continue
		}
		if slices.ContainsFunc(v.Others, isOr) {
			disjunctive++
			continue
		}
		if (where == nil) != (sel.Where == nil) || where != nil && !where.EqualExpr(sel.Where) {
			t.Errorf("%s: WHERE %v, reference %v", v.Name, sel.Where, where)
		}
	}
	t.Logf("%d views, %d reference texts parse, %d of them with a disjunction; %d views with a full-interval range",
		len(views), parsed, disjunctive, fullRange)
}
