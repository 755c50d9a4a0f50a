package optimizer

import (
	"fmt"
	"strings"

	"repro/internal/physical"
)

// IndexRequest is the single-relation access path request of §2 of the
// paper: an index request (S, N, O, A) where S are the sargable
// conditions, N the column sets of non-sargable predicates, O the
// requested order, and A the additional columns referenced upwards in the
// query tree. Requests are issued for base tables and for matched
// materialized views (whose indexes are then requested the same way).
type IndexRequest struct {
	// Table is the base table or view the request targets.
	Table string
	// View is non-nil when the request targets a materialized view.
	View *physical.View
	// S lists the sargable conditions (column + interval + selectivity).
	S []SargCond
	// N lists, per non-sargable conjunct, the referenced local columns.
	N [][]string
	// NSel is the combined selectivity of the non-sargable conjuncts.
	NSel float64
	// O is the requested output order (local column names).
	O []string
	// A lists additional referenced columns (local names) not in S/N/O.
	A []string
	// Rows is the cardinality of the underlying table or view.
	Rows int64
}

// AllColumns returns every column the request touches: S, N, O, then A.
func (r *IndexRequest) AllColumns() []string {
	var out []string
	seen := map[string]bool{}
	add := func(c string) {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, s := range r.S {
		add(s.Col)
	}
	for _, n := range r.N {
		for _, c := range n {
			add(c)
		}
	}
	for _, o := range r.O {
		add(o)
	}
	for _, a := range r.A {
		add(a)
	}
	return out
}

func (r *IndexRequest) String() string {
	var s []string
	for _, c := range r.S {
		s = append(s, fmt.Sprintf("%s(%.3g)", c.Col, c.Sel))
	}
	return fmt.Sprintf("idxreq{%s S=[%s] N=%d O=%v A=%v}", r.Table, strings.Join(s, ","), len(r.N), r.O, r.A)
}

// ViewRequest is a view-matching request: an SPJG sub-query expressed in
// the 6-tuple form, issued once per joined table subset considered during
// optimization (§2: "the input sub-query itself is the most efficient
// view to satisfy the request").
type ViewRequest struct {
	// Block is the sub-query as a view definition. Cols lists every
	// column the rest of the query needs from this subset; EstRows is the
	// optimizer's cardinality estimate for the block's result.
	Block *physical.View
	// Grouped reports whether the block carries the query's GROUP BY
	// (only for requests spanning the full FROM set).
	Grouped bool
}

func (r *ViewRequest) String() string {
	return fmt.Sprintf("viewreq{%s, %d cols, rows=%d}", strings.Join(r.Block.Tables, ","), len(r.Block.Cols), r.Block.EstRows)
}

// Hooks are the optimizer's instrumentation points (§2, Figure 2): when
// set, each access-path or view-matching request suspends optimization,
// hands the request to the hook — which may simulate new hypothetical
// structures in the configuration being optimized — and then resumes with
// the enlarged configuration visible.
type Hooks struct {
	OnIndexRequest func(*IndexRequest)
	OnViewRequest  func(*ViewRequest)
}

// Stats counts optimizer activity; the experiments report request counts
// (Table 1) and optimization call counts (the dominant tuning cost).
type Stats struct {
	OptimizeCalls int64
	IndexRequests int64
	ViewRequests  int64
}
