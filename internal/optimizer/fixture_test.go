package optimizer

import (
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/physical"
	"repro/internal/plan"
	"repro/internal/sqlx"
)

// testDB builds a small three-table database with precisely known
// statistics:
//
//	r: 100_000 rows — id (unique), a (100 dv), b (1000 dv), c (10 dv),
//	   s (varchar, 50 dv), pad (wide varchar)
//	u: 2_000 rows — id (unique), fk (joins r.a domain), x (20 dv)
//	w: 500 rows — id (unique), uid (joins u.id domain), y (50 dv)
func testDB(t testing.TB) *catalog.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	uniform := func(n int, lo, hi float64, dv int64) *catalog.ColumnStats {
		sample := make([]float64, 4000)
		for i := range sample {
			v := lo + rng.Float64()*(hi-lo)
			if dv > 1 {
				step := (hi - lo) / float64(dv-1)
				v = lo + float64(int((v-lo)/step+0.5))*step
			}
			sample[i] = v
		}
		return &catalog.ColumnStats{
			Distinct: dv, Min: lo, Max: hi, Numeric: true,
			Histogram: catalog.BuildHistogram(sample, 32),
		}
	}
	db := catalog.NewDatabase("testdb")
	r, err := catalog.NewTable("r", 100_000, []catalog.Column{
		{Name: "id", Type: catalog.TypeInt, AvgWidth: 4, Stats: uniform(0, 1, 100_000, 100_000)},
		{Name: "a", Type: catalog.TypeInt, AvgWidth: 4, Stats: uniform(0, 0, 99, 100)},
		{Name: "b", Type: catalog.TypeInt, AvgWidth: 4, Stats: uniform(0, 0, 999, 1000)},
		{Name: "c", Type: catalog.TypeInt, AvgWidth: 4, Stats: uniform(0, 0, 9, 10)},
		{Name: "s", Type: catalog.TypeVarchar, AvgWidth: 12, Stats: &catalog.ColumnStats{Distinct: 50}},
		{Name: "pad", Type: catalog.TypeVarchar, AvgWidth: 80, Stats: &catalog.ColumnStats{Distinct: 90_000}},
	}, []string{"id"})
	if err != nil {
		t.Fatalf("table r: %v", err)
	}
	u, err := catalog.NewTable("u", 2_000, []catalog.Column{
		{Name: "id", Type: catalog.TypeInt, AvgWidth: 4, Stats: uniform(0, 1, 2000, 2000)},
		{Name: "fk", Type: catalog.TypeInt, AvgWidth: 4, Stats: uniform(0, 0, 99, 100)},
		{Name: "x", Type: catalog.TypeInt, AvgWidth: 4, Stats: uniform(0, 0, 19, 20)},
	}, []string{"id"})
	if err != nil {
		t.Fatalf("table u: %v", err)
	}
	w, err := catalog.NewTable("w", 500, []catalog.Column{
		{Name: "id", Type: catalog.TypeInt, AvgWidth: 4, Stats: uniform(0, 1, 500, 500)},
		{Name: "uid", Type: catalog.TypeInt, AvgWidth: 4, Stats: uniform(0, 1, 2000, 400)},
		{Name: "y", Type: catalog.TypeInt, AvgWidth: 4, Stats: uniform(0, 0, 49, 50)},
	}, []string{"id"})
	if err != nil {
		t.Fatalf("table w: %v", err)
	}
	db.MustAddTable(r)
	db.MustAddTable(u)
	db.MustAddTable(w)
	return db
}

// baseCfg returns the clustered-PK base configuration for testDB.
func baseCfg(db *catalog.Database) *physical.Configuration {
	cfg := physical.NewConfiguration()
	for _, tb := range db.Tables() {
		ix := physical.NewIndex(tb.Name, tb.PrimaryKey, tb.ColumnNames(), true)
		ix.Required = true
		cfg.AddIndex(ix)
	}
	return cfg
}

func mustBind(t testing.TB, db *catalog.Database, src string) *BoundQuery {
	t.Helper()
	stmt, err := sqlx.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	q, err := Bind(db, stmt)
	if err != nil {
		t.Fatalf("bind %q: %v", src, err)
	}
	return q
}

func mustPlan(t testing.TB, o *Optimizer, q *BoundQuery, cfg *physical.Configuration) *plan.QueryPlan {
	t.Helper()
	p, err := o.Optimize(q, cfg)
	if err != nil {
		t.Fatalf("optimize %q: %v", q.SQL, err)
	}
	return p
}
