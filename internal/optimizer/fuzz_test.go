package optimizer_test

import (
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/optimizer"
	"repro/internal/sqlx"
	"repro/internal/workloads"
)

// upperIdentifiers returns src with the ASCII letters of every identifier
// token upper-cased; keywords, numbers and string literals are left as
// they are.
func upperIdentifiers(src string) (string, error) {
	toks, err := sqlx.Tokenize(src)
	if err != nil {
		return "", err
	}
	b := []byte(src)
	for _, tok := range toks {
		if tok.Kind != sqlx.TokIdent {
			continue
		}
		for i := tok.Pos; i < tok.Pos+len(tok.Text); i++ {
			if 'a' <= b[i] && b[i] <= 'z' {
				b[i] -= 'a' - 'A'
			}
		}
	}
	return string(b), nil
}

// boundNames lists every table and column name q carries, in an order
// fixed by q.Tables, and fails t on any name the catalog spells otherwise.
func boundNames(t *testing.T, db *catalog.Database, q *optimizer.BoundQuery) []string {
	t.Helper()
	var out []string
	table := func(name string) *catalog.Table {
		tb := db.Table(name)
		if tb == nil || tb.Name != name {
			t.Fatalf("%s: table %q is not the catalog's spelling", q.SQL, name)
		}
		out = append(out, name)
		return tb
	}
	col := func(tb *catalog.Table, name string) {
		if c := tb.Column(name); c == nil || c.Name != name {
			t.Fatalf("%s: column %s.%q is not the catalog's spelling", q.SQL, tb.Name, name)
		}
		out = append(out, name)
	}
	ref := func(c sqlx.ColRef) {
		if c != (sqlx.ColRef{}) {
			col(table(c.Table), c.Column)
		}
	}
	refs := func(cs []sqlx.ColRef) {
		for _, c := range cs {
			ref(c)
		}
	}
	for _, name := range q.Tables {
		tb := table(name)
		tp := q.Preds[name]
		if tp == nil {
			t.Fatalf("%s: no predicate group for %s", q.SQL, name)
		}
		for _, s := range tp.Sargs {
			col(tb, s.Col)
		}
		for _, o := range tp.Others {
			refs(o.Cols)
		}
		for _, c := range q.Needed[name] {
			col(tb, c)
		}
	}
	if len(q.Preds) != len(q.Tables) {
		t.Fatalf("%s: predicate groups %d for %d tables", q.SQL, len(q.Preds), len(q.Tables))
	}
	for name := range q.Needed {
		if !slices.Contains(q.Tables, name) {
			t.Fatalf("%s: needed columns of %q, which is not in FROM", q.SQL, name)
		}
	}
	for _, j := range q.Joins {
		ref(j.L)
		ref(j.R)
	}
	for _, o := range q.CrossOthers {
		refs(o.Cols)
	}
	for _, c := range q.SelectCols {
		ref(c.Source)
	}
	refs(q.GroupBy)
	refs(q.OrderBy)
	if q.UpdateTable != "" {
		tb := table(q.UpdateTable)
		for _, c := range q.SetCols {
			col(tb, c)
		}
	}
	return out
}

// FuzzBindCanonical drives parse → render → parse → bind. Rendering is a
// fixed point; every name a bound statement carries is the catalog's
// spelling; and the text with its identifiers upper-cased binds, or fails
// to, as the text does, to the same names.
func FuzzBindCanonical(f *testing.F) {
	dbs := []*catalog.Database{datagen.TPCH(0.001), datagen.Bench(0.001), datagen.DS1(0.001)}
	for _, q := range append(workloads.TPCH22SQL(), workloads.TPCHRefresh()...) {
		f.Add(q)
	}
	for _, db := range dbs[1:] {
		opt := workloads.DefaultGenOptions("seed", 1, 16)
		opt.UpdateFraction = 0.3
		w, err := workloads.Generate(db, opt)
		if err != nil {
			f.Fatal(err)
		}
		for _, q := range w.Queries {
			f.Add(q.SQL)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := sqlx.Parse(src)
		if err != nil {
			return
		}
		// INSERT renders as a row-count summary, which is not SQL.
		if stmt.Kind() != sqlx.StmtInsert {
			rendered := stmt.SQL()
			again, err := sqlx.Parse(rendered)
			if err != nil {
				t.Fatalf("rendered text does not parse: %v\n%s", err, rendered)
			}
			if r := again.SQL(); r != rendered {
				t.Fatalf("render is not a fixed point:\n%s\n%s", rendered, r)
			}
			stmt = again
		}
		upperSrc, err := upperIdentifiers(src)
		if err != nil {
			t.Fatalf("parsed text does not tokenize: %v", err)
		}
		upper, err := sqlx.Parse(upperSrc)
		if err != nil {
			t.Fatalf("upper-cased text does not parse: %v\n%s", err, upperSrc)
		}
		for _, db := range dbs {
			q, err := optimizer.Bind(db, stmt)
			qu, errU := optimizer.Bind(db, upper)
			if (err == nil) != (errU == nil) {
				t.Fatalf("%s: bind error %v, upper-cased %v", db.Name, err, errU)
			}
			if err != nil {
				continue
			}
			if a, b := boundNames(t, db, q), boundNames(t, db, qu); !slices.Equal(a, b) {
				t.Fatalf("%s: upper-cased text binds other names\n%v\n%v", db.Name, a, b)
			}
		}
	})
}
