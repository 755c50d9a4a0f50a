package sqlx_test

import (
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/sqlx"
	"repro/internal/workloads"
)

// lexRenderSeeds are statements of every shape the tuner sees: the TPC-H
// 22 and refresh statements, generated workloads with updates, and
// hand-written edge cases of the lexer and renderer.
func lexRenderSeeds(tb testing.TB) []string {
	seeds := append(workloads.TPCH22SQL(), workloads.TPCHRefresh()...)
	for _, db := range []*catalog.Database{datagen.Bench(0.001), datagen.DS1(0.001)} {
		for seed := int64(1); seed <= 2; seed++ {
			opt := workloads.DefaultGenOptions("seed", seed, 16)
			opt.UpdateFraction = 0.3
			w, err := workloads.Generate(db, opt)
			if err != nil {
				tb.Fatal(err)
			}
			for _, q := range w.Queries {
				seeds = append(seeds, q.SQL)
			}
		}
	}
	return append(append(seeds,
		"SELECT a, b FROM t WHERE a >= 10.5 AND b <> 'x''y' -- tail\n",
		"select TOP(3) x.a AS y, COUNT(*) n FROM t x WHERE NOT (a = 1 OR b != 2) ORDER BY a DESC, b",
		"SELECT a FROM t WHERE a * (b + c) > -d AND -(a - 1) < 2e6 AND b NOT LIKE '%''%' AND c NOT IN (1, 'q')",
		"SELECT a FROM t WHERE (a + b) * c > 3",
		"UPDATE TOP(5) t SET a = a * 2 + b, c = 'z' WHERE d BETWEEN 1 AND 1e-3",
		"INSERT INTO t VALUES (1, (2)), (3); DELETE FROM t",
		"CREATE VIEW v AS SELECT a, SUM(b) FROM t GROUP BY a",
		"CREATE CLUSTERED INDEX i ON t (a, b) INCLUDE (c)",
		"SELECT a FROM t WHERE a @ b", "'open", "SELECT 1.2.3 FROM t",
		"SELECT é FROM t", "SELECT a FROM t", "ſelect a FROM t",
	), errorPrecedenceInputs...)
}

// FuzzLexRenderMatchesReference checks the lexer and renderer against the
// implementations they replaced (reference_test.go): on ASCII input the
// tokens and lexical errors are the reference's, and Parse and ParseScript
// fail with the reference's lexical error wherever it falls, whatever the
// parser makes of the tokens before it; for every statement that parses,
// SQL() and the String() of every part are the reference's.
func FuzzLexRenderMatchesReference(f *testing.F) {
	for _, s := range lexRenderSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := sqlx.Parse(src)
		if ascii(src) {
			toks, terr := sqlx.Tokenize(src)
			ref, rerr := sqlx.RefTokenize(src)
			if errString(terr) != errString(rerr) || !slices.Equal(toks, ref) {
				t.Fatalf("tokens of %q\n got  %v %v\n want %v %v", src, toks, terr, ref, rerr)
			}
			if rerr != nil {
				_, serr := sqlx.ParseScript(src)
				if errString(err) != rerr.Error() || errString(serr) != rerr.Error() {
					t.Fatalf("parse of %q\n got  %v\n and  %v (script)\n want %v", src, err, serr, rerr)
				}
			}
		}
		if err != nil {
			return
		}
		if got, want := stmt.SQL(), sqlx.RefSQL(stmt); got != want {
			t.Fatalf("SQL of %q\n got  %s\n want %s", src, got, want)
		}
		checkParts(t, stmt)
	})
}

// checkParts compares the String of every expression, select item, table
// and order item of stmt with the reference's.
func checkParts(t *testing.T, stmt sqlx.Statement) {
	t.Helper()
	expr := func(e sqlx.Expr) {
		walkExpr(e, func(e sqlx.Expr) {
			if got, want := e.String(), sqlx.RefString(e); got != want {
				t.Fatalf("String of %#v\n got  %s\n want %s", e, got, want)
			}
		})
	}
	part := func(got, want string) {
		if got != want {
			t.Fatalf("part\n got  %s\n want %s", got, want)
		}
	}
	switch s := stmt.(type) {
	case *sqlx.CreateViewStmt:
		checkParts(t, s.Select)
	case *sqlx.SelectStmt:
		for _, it := range s.Items {
			part(it.String(), sqlx.RefSelectItem(it))
			if it.Expr != nil {
				expr(it.Expr)
			}
		}
		for _, tr := range s.From {
			part(tr.String(), sqlx.RefTableRef(tr))
		}
		for _, c := range s.GroupBy {
			expr(c)
		}
		for _, o := range s.OrderBy {
			part(o.String(), sqlx.RefOrderItem(o))
		}
		if s.Where != nil {
			expr(s.Where)
		}
	case *sqlx.UpdateStmt:
		part(s.Table.String(), sqlx.RefTableRef(s.Table))
		for _, set := range s.Sets {
			expr(set.Value)
		}
		if s.Where != nil {
			expr(s.Where)
		}
	case *sqlx.DeleteStmt:
		part(s.Table.String(), sqlx.RefTableRef(s.Table))
		if s.Where != nil {
			expr(s.Where)
		}
	}
}

// walkExpr calls fn on e and on every expression below it.
func walkExpr(e sqlx.Expr, fn func(sqlx.Expr)) {
	fn(e)
	switch x := e.(type) {
	case *sqlx.BinExpr:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *sqlx.CmpExpr:
		walkExpr(x.L, fn)
		walkExpr(x.R, fn)
	case *sqlx.BoolExpr:
		walkExpr(x.L, fn)
		if x.R != nil {
			walkExpr(x.R, fn)
		}
	case *sqlx.LikeExpr:
		fn(x.Col)
	case *sqlx.InExpr:
		fn(x.Col)
		for _, v := range x.Values {
			fn(v)
		}
	}
}

func ascii(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// tpchShaped is a TPC-H Q5-shaped statement, a six-table join with range
// and equality conjuncts, an aggregate, GROUP BY and ORDER BY.
const tpchShaped = `SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
	FROM customer, orders, lineitem, supplier, nation, region
	WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey
	  AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
	  AND r_name = 'ASIA' AND o_orderdate >= 8766 AND o_orderdate < 9131
	GROUP BY n_name ORDER BY n_name DESC`

// Benchmark results go to these sinks, so the compiler keeps the calls.
var (
	sinkStmt sqlx.Statement
	sinkSQL  string
)

// BenchmarkParse times lexing and parsing one TPC-H-shaped statement.
func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		stmt, err := sqlx.Parse(tpchShaped)
		if err != nil {
			b.Fatal(err)
		}
		sinkStmt = stmt
	}
}

// BenchmarkRender times rendering one TPC-H-shaped statement's canonical
// text.
func BenchmarkRender(b *testing.B) {
	stmt, err := sqlx.Parse(tpchShaped)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkSQL = stmt.SQL()
	}
}
