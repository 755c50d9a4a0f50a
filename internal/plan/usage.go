package plan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/physical"
)

// IndexUsage records how one index access contributed to a query plan; it
// is the information §3.3.2 assumes "explain" interfaces expose:
// estimated I/O and CPU cost, estimated rows returned, usage type (seek or
// scan), the optional required order on the returned rows, the seek
// columns and their combined selectivity, and the additional columns
// required upwards in the tree.
type IndexUsage struct {
	Index *physical.Index
	// Seek is true when the index was sought; false for full scans.
	Seek bool
	// SeekCols are the key columns consumed by the seek.
	SeekCols []string
	// SeekColSels are the per-column selectivities of SeekCols (used by
	// the §3.3.2 bound to re-derive the selectivity of a shared prefix).
	SeekColSels []float64
	// Selectivity is the fraction of index entries touched by the seek
	// (1 for scans).
	Selectivity float64
	// Rows is the estimated number of rows the access returned.
	Rows float64
	// AccessCost is the cost of the index access itself, excluding any
	// lookups, filters, or sorts layered above it.
	AccessCost Cost
	// OrderCols is the order the plan required from this access (nil when
	// no order was exploited).
	OrderCols []string
	// NeededCols are all columns the plan required from this table,
	// whether the index provided them directly or via rid lookups.
	NeededCols []string
	// LookedUp is true when the plan performed rid lookups above this
	// access (the index did not cover NeededCols).
	LookedUp bool
	// InIntersection is true when this access fed a rid intersection.
	InIntersection bool
	// ViewName is the owning view when the index is a view index; empty
	// for base-table indexes.
	ViewName string
}

func (u *IndexUsage) String() string {
	kind := "scan"
	if u.Seek {
		kind = fmt.Sprintf("seek[%s sel=%.4g]", strings.Join(u.SeekCols, ","), u.Selectivity)
	}
	return fmt.Sprintf("%s %s rows=%.0f cost=%.1f", u.Index.ID(), kind, u.Rows, u.AccessCost.Total())
}

// QueryPlan is a fully optimized query: the root node, total cost, and the
// usage records for every index access in the plan.
type QueryPlan struct {
	Root Node
	// Cost is the plan's total estimated cost (equals Root.TotalCost()).
	Cost Cost
	// Usages lists every index access in the plan.
	Usages []*IndexUsage
	// UsedViews lists the names of materialized views the plan reads.
	UsedViews []string
}

// UsesIndex reports whether the plan reads the index with the given ID.
func (p *QueryPlan) UsesIndex(id string) bool {
	for _, u := range p.Usages {
		if u.Index.ID() == id {
			return true
		}
	}
	return false
}

// UsesView reports whether the plan reads the named view.
func (p *QueryPlan) UsesView(name string) bool {
	return slices.Contains(p.UsedViews, name)
}

// UsedIndexIDs returns the distinct IDs of all indexes the plan reads.
func (p *QueryPlan) UsedIndexIDs() []string {
	seen := map[string]bool{}
	var out []string
	for _, u := range p.Usages {
		id := u.Index.ID()
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}
