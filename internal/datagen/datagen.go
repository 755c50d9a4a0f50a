// Package datagen builds the synthetic databases the experiments run
// against: a TPC-H-style schema, a "DS1" star schema standing in for the
// paper's real decision-support database, and a generic "BENCH" database.
// All statistics are generated deterministically from a fixed seed, so
// experiments are reproducible. No rows are materialized — the tuning
// algorithms consume only catalog statistics, like the paper's prototype
// consumes optimizer estimates.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/catalog"
	"repro/internal/physical"
)

// Seed fixes all generated statistics.
const Seed = 20050614 // SIGMOD 2005

// colSpec describes how to synthesize one column's statistics.
type colSpec struct {
	name     string
	typ      catalog.ColType
	distinct int64   // 0 = all distinct (key-like)
	min, max float64 // numeric/date domain
	width    int     // varchar average width
	skew     float64 // 0 = uniform; >0 = zipf-ish concentration
	// values fixes a categorical varchar domain (TPC-H region names,
	// ship modes, …) so string predicates in the benchmark workloads
	// actually match generated data.
	values []string
}

// buildColumn synthesizes a column with a histogram sampled from the spec.
func buildColumn(rng *rand.Rand, rows int64, sp colSpec) catalog.Column {
	col := catalog.Column{Name: sp.name, Type: sp.typ}
	if w := catalog.FixedWidth(sp.typ); w > 0 {
		col.AvgWidth = w
	} else if len(sp.values) > 0 {
		total := 0
		for _, v := range sp.values {
			total += len(v)
		}
		col.AvgWidth = total / len(sp.values)
		if col.AvgWidth < 1 {
			col.AvgWidth = 1
		}
	} else {
		col.AvgWidth = sp.width
		if col.AvgWidth <= 0 {
			col.AvgWidth = 16
		}
	}
	distinct := sp.distinct
	if len(sp.values) > 0 {
		distinct = int64(len(sp.values))
	}
	if distinct <= 0 || distinct > rows {
		distinct = rows
	}
	if distinct < 1 {
		distinct = 1
	}
	stats := &catalog.ColumnStats{Distinct: distinct}
	if sp.typ != catalog.TypeVarchar {
		stats.Numeric = true
		stats.Min, stats.Max = sp.min, sp.max
		if stats.Max < stats.Min {
			stats.Max = stats.Min
		}
		sample := sampleValues(rng, sp, distinct, 2048)
		stats.Histogram = catalog.BuildHistogram(sample, catalog.DefaultHistogramBuckets)
	}
	col.Stats = stats
	return col
}

// sampleValues draws n values from the column's distribution.
func sampleValues(rng *rand.Rand, sp colSpec, distinct int64, n int) []float64 {
	span := sp.max - sp.min
	if span <= 0 {
		return []float64{sp.min}
	}
	vals := make([]float64, n)
	for i := range vals {
		var u float64
		if sp.skew > 0 {
			// Concentrate mass toward the low end of the domain.
			u = math.Pow(rng.Float64(), 1+sp.skew*3)
		} else {
			u = rng.Float64()
		}
		v := sp.min + u*span
		// Snap to the discrete value grid implied by the distinct count.
		if distinct > 1 {
			step := span / float64(distinct-1)
			v = sp.min + math.Round((v-sp.min)/step)*step
		} else {
			v = sp.min
		}
		vals[i] = v
	}
	return vals
}

// tableSpec couples a table definition with its storage layout.
type tableSpec struct {
	name string
	rows int64
	pk   []string
	heap bool
	cols []colSpec
}

func buildTable(rng *rand.Rand, sp tableSpec) (*catalog.Table, error) {
	cols := make([]catalog.Column, len(sp.cols))
	for i, cs := range sp.cols {
		cols[i] = buildColumn(rng, sp.rows, cs)
	}
	t, err := catalog.NewTable(sp.name, sp.rows, cols, sp.pk)
	if err != nil {
		return nil, err
	}
	t.Heap = sp.heap
	return t, nil
}

func buildDatabase(name string, specs []tableSpec) *catalog.Database {
	rng := rand.New(rand.NewSource(Seed + int64(len(name))*7919))
	db := catalog.NewDatabase(name)
	for _, sp := range specs {
		t, err := buildTable(rng, sp)
		if err != nil {
			panic(fmt.Sprintf("datagen: %v", err))
		}
		db.MustAddTable(t)
	}
	if err := db.Validate(); err != nil {
		panic(fmt.Sprintf("datagen: generated invalid database: %v", err))
	}
	return db
}

func scaled(base float64, sf float64, min int64) int64 {
	n := int64(base * sf)
	if n < min {
		n = min
	}
	return n
}

// BaseConfiguration returns the constraint-enforcing indexes every
// configuration must contain: a clustered primary-key index per regular
// table (with all remaining columns as the stored row) or a non-clustered
// primary-key index per heap table. These indexes are Required and can
// never be removed by the tuner.
func BaseConfiguration(db *catalog.Database) *physical.Configuration {
	cfg := physical.NewConfiguration()
	for _, t := range db.Tables() {
		if len(t.PrimaryKey) == 0 {
			continue
		}
		var suffix []string
		if !t.Heap {
			for _, c := range t.ColumnNames() {
				suffix = append(suffix, c)
			}
		}
		ix := physical.NewIndex(t.Name, t.PrimaryKey, suffix, !t.Heap)
		ix.Required = true
		cfg.AddIndex(ix)
	}
	return cfg
}

// HeapTables returns the names of heap tables, as consumed by
// physical.EnumerateOptions.
func HeapTables(db *catalog.Database) map[string]bool {
	out := map[string]bool{}
	for _, t := range db.Tables() {
		if t.Heap {
			out[t.Name] = true
		}
	}
	return out
}

// Date helpers: dates are stored as days since 1970-01-01; the TPC-H
// domain spans 1992-01-01 .. 1998-12-31.
const (
	DateMin = 8035  // 1992-01-01
	DateMax = 10592 // 1998-12-31
)
