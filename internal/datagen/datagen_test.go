package datagen

import (
	"testing"

	"repro/internal/catalog"
)

func TestTPCHSchemaShape(t *testing.T) {
	db := TPCH(0.001)
	if len(db.Tables()) != 8 {
		t.Fatalf("tables: %d", len(db.Tables()))
	}
	li := db.Table("lineitem")
	if li == nil {
		t.Fatal("lineitem missing")
	}
	if li.Rows < 5000 {
		t.Errorf("lineitem rows: %d", li.Rows)
	}
	if len(li.PrimaryKey) != 2 {
		t.Errorf("lineitem pk: %v", li.PrimaryKey)
	}
	if db.Table("region").Rows != 5 || db.Table("nation").Rows != 25 {
		t.Error("fixed-size tables wrong")
	}
	if err := db.Validate(); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestTPCHScaling(t *testing.T) {
	small := TPCH(0.001)
	big := TPCH(0.01)
	if big.Table("lineitem").Rows <= small.Table("lineitem").Rows {
		t.Error("scale factor must grow row counts")
	}
	// Fixed tables do not scale.
	if big.Table("nation").Rows != small.Table("nation").Rows {
		t.Error("nation should not scale")
	}
}

func TestDeterminism(t *testing.T) {
	a := TPCH(0.001)
	b := TPCH(0.001)
	for _, ta := range a.Tables() {
		tb := b.Table(ta.Name)
		for i, ca := range ta.Columns {
			cb := tb.Columns[i]
			if ca.AvgWidth != cb.AvgWidth || ca.Stats.Distinct != cb.Stats.Distinct {
				t.Fatalf("%s.%s differs across builds", ta.Name, ca.Name)
			}
			if ca.Stats.Histogram != nil {
				ha, hb := ca.Stats.Histogram, cb.Stats.Histogram
				for j := range ha.Bounds {
					if ha.Bounds[j] != hb.Bounds[j] {
						t.Fatalf("%s.%s histogram differs", ta.Name, ca.Name)
					}
				}
			}
		}
	}
}

func TestDS1StarSchema(t *testing.T) {
	db := DS1(0.001)
	fact := db.Table("sales_fact")
	if fact == nil {
		t.Fatal("fact table missing")
	}
	for _, dim := range []string{"dim_date", "dim_store", "dim_product", "dim_customer", "dim_promotion"} {
		d := db.Table(dim)
		if d == nil {
			t.Fatalf("dimension %s missing", dim)
		}
		if d.Rows >= fact.Rows {
			t.Errorf("dimension %s (%d rows) should be smaller than the fact (%d)", dim, d.Rows, fact.Rows)
		}
	}
	if !db.Table("returns_fact").Heap {
		t.Error("returns_fact should be a heap")
	}
	if err := db.Validate(); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestBenchAlternatesHeaps(t *testing.T) {
	db := Bench(0.001)
	heaps := 0
	for _, tb := range db.Tables() {
		if tb.Heap {
			heaps++
		}
	}
	if heaps != 4 {
		t.Errorf("heap tables: %d, want 4", heaps)
	}
	if err := db.Validate(); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestBaseConfiguration(t *testing.T) {
	db := DS1(0.001)
	cfg := BaseConfiguration(db)
	for _, tb := range db.Tables() {
		ixs := cfg.IndexesOn(tb.Name)
		if len(ixs) != 1 {
			t.Fatalf("%s: %d base indexes", tb.Name, len(ixs))
		}
		ix := ixs[0]
		if !ix.Required {
			t.Errorf("%s: base index not required", tb.Name)
		}
		if ix.Clustered == tb.Heap {
			t.Errorf("%s: clustered=%v but heap=%v", tb.Name, ix.Clustered, tb.Heap)
		}
		if !tb.Heap && !ix.Covers(tb.ColumnNames()) {
			t.Errorf("%s: clustered PK must cover all columns", tb.Name)
		}
	}
}

func TestHeapTablesMap(t *testing.T) {
	db := Bench(0.001)
	heaps := HeapTables(db)
	if !heaps["t2"] || heaps["t1"] {
		t.Errorf("heap map wrong: %v", heaps)
	}
}

func TestHistogramsBuiltForNumericColumns(t *testing.T) {
	db := TPCH(0.001)
	for _, tb := range db.Tables() {
		for _, c := range tb.Columns {
			if c.Type == catalog.TypeVarchar {
				if c.Stats.Histogram != nil {
					t.Errorf("%s.%s: varchar should not carry a histogram", tb.Name, c.Name)
				}
				continue
			}
			if c.Stats.Histogram == nil {
				t.Errorf("%s.%s: numeric column lacks a histogram", tb.Name, c.Name)
			}
		}
	}
}

func TestSkewConcentratesMass(t *testing.T) {
	db := DS1(0.01)
	c := db.Table("sales_fact").Column("sf_amount")
	s := c.Stats
	// Skewed toward the low end: the median should sit well below the
	// domain midpoint.
	mid := (s.Min + s.Max) / 2
	if s.Histogram.LtFraction(mid) < 0.7 {
		t.Errorf("skewed column should have most mass below the midpoint: %g", s.Histogram.LtFraction(mid))
	}
}

// TestByName: the one table of database names resolves each family to
// what its constructor builds, ignores case, and rejects anything else
// with one error text from both entry points.
func TestByName(t *testing.T) {
	const sf = 0.001
	for _, tc := range []struct {
		name string
		want *catalog.Database // nil = unknown
	}{
		{"tpch", TPCH(sf)},
		{"ds1", DS1(sf)},
		{"bench", Bench(sf)},
		{"TpcH", TPCH(sf)},
		{"tpcds", nil},
	} {
		db, err := ByName(tc.name, sf)
		ddb, store, derr := DataByName(tc.name, sf)
		if tc.want == nil {
			if err == nil || derr == nil || err.Error() != derr.Error() {
				t.Errorf("%q: errors %v / %v, want the same non-nil text", tc.name, err, derr)
			}
			continue
		}
		if err != nil || derr != nil {
			t.Fatalf("%q: %v / %v", tc.name, err, derr)
		}
		if db.Fingerprint() != tc.want.Fingerprint() {
			t.Errorf("%q: ByName built %s, want %s", tc.name, db.Summary(), tc.want.Summary())
		}
		if ddb.Name != tc.want.Name || len(ddb.Tables()) != len(tc.want.Tables()) || store == nil {
			t.Errorf("%q: DataByName built %s (store %v), want the rows of %s", tc.name, ddb.Summary(), store != nil, tc.want.Summary())
		}
	}
	if got := Names(); len(got) != 3 || got[0] != "tpch" || got[1] != "ds1" || got[2] != "bench" {
		t.Errorf("Names() = %v", got)
	}
}
