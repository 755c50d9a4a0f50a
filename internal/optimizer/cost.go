// Package optimizer implements a cost-based query optimizer over the
// simulated catalog: single-relation access path selection (index seeks,
// scans, rid intersections and lookups, filters, sorts — the template of
// Figure 1 in the paper), materialized view matching, and System-R style
// join enumeration.
//
// Crucially for the reproduction, the optimizer exposes the two
// instrumentation points §2 of the paper relies on: every single-table
// access path request and every SPJG view request is surfaced through
// Hooks before access paths are generated, and optimization runs against
// a hypothetical ("what-if") configuration overlay, so intercepted
// requests can inject simulated physical structures that the optimizer
// then considers.
package optimizer

import (
	"math"

	"repro/internal/catalog"
	"repro/internal/physical"
	"repro/internal/plan"
)

// CostModel holds the coefficients of the execution cost model. One cost
// unit equals one sequential page read.
type CostModel struct {
	SeqPage    float64 // sequential page read
	RandPage   float64 // random page read
	CPURow     float64 // per-row processing
	CPUCompare float64 // per-comparison (sorting)
	CPUHash    float64 // per-row hash build/probe
	SortMemory int64   // pages of sort memory before spilling
}

// DefaultCostModel returns the coefficients used throughout the
// experiments.
func DefaultCostModel() CostModel {
	return CostModel{
		SeqPage:    1.0,
		RandPage:   4.0,
		CPURow:     0.001,
		CPUCompare: 0.0005,
		CPUHash:    0.0015,
		SortMemory: 1024,
	}
}

// SortCost returns the cost of sorting rows rows spanning pages pages.
func (m CostModel) SortCost(rows, pages float64) plan.Cost {
	if rows < 2 {
		return plan.Cost{CPU: m.CPURow * rows}
	}
	cpu := m.CPUCompare * rows * math.Log2(rows)
	io := 0.0
	if pages > float64(m.SortMemory) {
		io = 2 * pages * m.SeqPage // one spill write + read pass
	}
	return plan.Cost{IO: io, CPU: cpu}
}

// HashAggCost returns the cost of hash-aggregating rows input rows.
func (m CostModel) HashAggCost(rows float64) plan.Cost {
	return plan.Cost{CPU: m.CPUHash * rows}
}

// StreamAggCost returns the cost of streaming aggregation over sorted
// input.
func (m CostModel) StreamAggCost(rows float64) plan.Cost {
	return plan.Cost{CPU: m.CPURow * rows}
}

// RidLookupCost returns the cost of k random row fetches into a primary
// structure with rows rows over pages pages.
func (m CostModel) RidLookupCost(rows, pages int64, k float64) plan.Cost {
	touched := randomPages(rows, pages, k)
	return plan.Cost{IO: touched * m.RandPage, CPU: m.CPURow * k}
}

func randomPages(rows, pages int64, k float64) float64 {
	if k <= 0 || pages <= 0 {
		return 0
	}
	p := float64(pages)
	if k >= float64(rows) {
		return p
	}
	touched := p * (1 - math.Pow(1-1/p, k))
	if touched > p {
		touched = p
	}
	if touched < 1 {
		touched = 1
	}
	return touched
}

// Resolver adapts a catalog database to physical.WidthResolver so the
// sizer can compute index sizes.
type Resolver struct {
	DB *catalog.Database

	// cols caches each base table's column-name slice (keyed by table
	// name): the sizer asks for it on every index resolve, and
	// rebuilding the slice per call dominated resolve-path allocations.
	cols map[string][]string
}

// NewResolver returns a width resolver over db with the per-table column
// lists precomputed.
func NewResolver(db *catalog.Database) Resolver {
	r := Resolver{DB: db, cols: make(map[string][]string)}
	for _, t := range db.Tables() {
		r.cols[t.Name] = t.ColumnNames()
	}
	return r
}

// TableRows implements physical.WidthResolver.
func (r Resolver) TableRows(table string) (int64, bool) {
	t := r.DB.Table(table)
	if t == nil {
		return 0, false
	}
	return t.Rows, true
}

// ColWidth implements physical.WidthResolver.
func (r Resolver) ColWidth(table, col string) (int, bool) {
	t := r.DB.Table(table)
	if t == nil {
		return 0, false
	}
	c := t.Column(col)
	if c == nil {
		return 0, false
	}
	return c.AvgWidth, true
}

// TableCols implements physical.WidthResolver.
func (r Resolver) TableCols(table string) []string { return r.cols[table] }

var _ physical.WidthResolver = Resolver{}
