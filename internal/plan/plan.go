// Package plan defines physical execution plan nodes, their cost vectors,
// and the per-index usage records ("explain" output) that the relaxation
// tuner consumes when bounding the cost of relaxed configurations
// (§3.3.2 of the paper: estimated I/O and CPU cost, rows returned, seek
// vs. scan usage, required order, seek columns with selectivity, and the
// additional columns required upwards in the tree).
package plan

import (
	"fmt"
	"strings"

	"repro/internal/physical"
	"repro/internal/sqlx"
)

// Cost is a two-component cost vector. Units are abstract "time units":
// one unit ≈ one sequential page read; random I/O and CPU work are scaled
// into the same unit by the cost model.
type Cost struct {
	IO  float64
	CPU float64
}

// Total returns the scalar cost.
func (c Cost) Total() float64 { return c.IO + c.CPU }

// Add returns the component-wise sum.
func (c Cost) Add(o Cost) Cost { return Cost{IO: c.IO + o.IO, CPU: c.CPU + o.CPU} }

// Scale returns the cost multiplied by f.
func (c Cost) Scale(f float64) Cost { return Cost{IO: c.IO * f, CPU: c.CPU * f} }

func (c Cost) String() string { return fmt.Sprintf("io=%.1f cpu=%.1f", c.IO, c.CPU) }

// Node is a physical plan operator. TotalCost is cumulative (includes
// children); OutRows is the estimated output cardinality; OutOrder is the
// column sequence the output is sorted by (nil when unordered).
type Node interface {
	TotalCost() Cost
	OutRows() float64
	OutOrder() []string
	Children() []Node
	Label() string
}

// base carries the fields shared by every node.
type base struct {
	cost  Cost
	rows  float64
	order []string
}

func (b *base) TotalCost() Cost    { return b.cost }
func (b *base) OutRows() float64   { return b.rows }
func (b *base) OutOrder() []string { return b.order }

// IndexSeek seeks a fraction of an index using sargable predicates over a
// prefix of its keys.
type IndexSeek struct {
	base
	Index       *physical.Index
	SeekCols    []string
	Selectivity float64 // fraction of index entries touched
}

// NewIndexSeek constructs a seek node. order is the (qualified) output
// order the caller attributes to the index's key sequence.
func NewIndexSeek(ix *physical.Index, seekCols []string, sel float64, rows float64, cost Cost, order []string) *IndexSeek {
	return &IndexSeek{base: base{cost: cost, rows: rows, order: order}, Index: ix, SeekCols: seekCols, Selectivity: sel}
}

// Children implements Node.
func (n *IndexSeek) Children() []Node { return nil }

// Label implements Node.
func (n *IndexSeek) Label() string {
	return fmt.Sprintf("IndexSeek(%s on %s, sel=%.4g)", n.Index.ID(), strings.Join(n.SeekCols, ","), n.Selectivity)
}

// IndexScan reads an entire index.
type IndexScan struct {
	base
	Index *physical.Index
}

// NewIndexScan constructs a full-scan node with the given output order.
func NewIndexScan(ix *physical.Index, rows float64, cost Cost, order []string) *IndexScan {
	return &IndexScan{base: base{cost: cost, rows: rows, order: order}, Index: ix}
}

// Children implements Node.
func (n *IndexScan) Children() []Node { return nil }

// Label implements Node.
func (n *IndexScan) Label() string { return fmt.Sprintf("IndexScan(%s)", n.Index.ID()) }

// HeapScan reads an entire heap table (no clustered index).
type HeapScan struct {
	base
	Table string
}

// NewHeapScan constructs a heap scan node.
func NewHeapScan(table string, rows float64, cost Cost) *HeapScan {
	return &HeapScan{base: base{cost: cost, rows: rows}, Table: table}
}

// Children implements Node.
func (n *HeapScan) Children() []Node { return nil }

// Label implements Node.
func (n *HeapScan) Label() string { return fmt.Sprintf("HeapScan(%s)", n.Table) }

// RidLookup fetches missing columns from the table's primary structure for
// each input row.
type RidLookup struct {
	base
	Child Node
	Table string
}

// NewRidLookup constructs a rid-lookup node; cost must already include
// the child's cost. Lookups fetch row by row, so the driving input's
// order is preserved.
func NewRidLookup(child Node, table string, cost Cost) *RidLookup {
	return &RidLookup{base: base{cost: cost, rows: child.OutRows(), order: child.OutOrder()}, Child: child, Table: table}
}

// Children implements Node.
func (n *RidLookup) Children() []Node { return []Node{n.Child} }

// Label implements Node.
func (n *RidLookup) Label() string { return fmt.Sprintf("RidLookup(%s)", n.Table) }

// RidIntersect intersects the rids produced by two index seeks.
type RidIntersect struct {
	base
	L, R Node
}

// NewRidIntersect constructs an intersection node.
func NewRidIntersect(l, r Node, rows float64, cost Cost) *RidIntersect {
	return &RidIntersect{base: base{cost: cost, rows: rows}, L: l, R: r}
}

// Children implements Node.
func (n *RidIntersect) Children() []Node { return []Node{n.L, n.R} }

// Label implements Node.
func (n *RidIntersect) Label() string { return "RidIntersect" }

// Filter applies residual (non-sargable) predicates: Preds when the
// filter holds them, otherwise the residual of an access path that Desc
// names.
type Filter struct {
	base
	Child       Node
	Selectivity float64
	Desc        string
	Preds       []sqlx.Expr
}

// NewFilter constructs a filter node for an access path's residual;
// cost must include the child's cost.
func NewFilter(child Node, sel float64, desc string, cost Cost) *Filter {
	return &Filter{
		base:  base{cost: cost, rows: child.OutRows() * sel, order: child.OutOrder()},
		Child: child, Selectivity: sel, Desc: desc,
	}
}

// NewPredFilter constructs a filter node that evaluates preds; cost must
// include the child's cost.
func NewPredFilter(child Node, sel float64, preds []sqlx.Expr, cost Cost) *Filter {
	f := NewFilter(child, sel, "", cost)
	f.Preds = preds
	return f
}

// Children implements Node.
func (n *Filter) Children() []Node { return []Node{n.Child} }

// Label implements Node.
func (n *Filter) Label() string {
	desc := n.Desc
	if len(n.Preds) > 0 {
		desc = conjunction(n.Preds)
	}
	return fmt.Sprintf("Filter(%s, sel=%.4g)", desc, n.Selectivity)
}

// conjunction renders predicates joined with AND.
func conjunction[P fmt.Stringer](preds []P) string {
	var sb strings.Builder
	for i, p := range preds {
		if i > 0 {
			sb.WriteString(" AND ")
		}
		sb.WriteString(p.String())
	}
	return sb.String()
}

// Sort enforces an output order.
type Sort struct {
	base
	Child Node
	By    []string
}

// NewSort constructs a sort node; cost must include the child's cost.
func NewSort(child Node, by []string, cost Cost) *Sort {
	return &Sort{base: base{cost: cost, rows: child.OutRows(), order: by}, Child: child, By: by}
}

// Children implements Node.
func (n *Sort) Children() []Node { return []Node{n.Child} }

// Label implements Node.
func (n *Sort) Label() string { return fmt.Sprintf("Sort(%s)", strings.Join(n.By, ",")) }

// JoinMethod identifies the physical join algorithm.
type JoinMethod int

// Join methods.
const (
	JoinHash JoinMethod = iota
	JoinNestedLoop
	JoinIndexNL
	JoinMerge
)

func (m JoinMethod) String() string {
	switch m {
	case JoinHash:
		return "HashJoin"
	case JoinNestedLoop:
		return "NLJoin"
	case JoinIndexNL:
		return "IndexNLJoin"
	case JoinMerge:
		return "MergeJoin"
	default:
		return "Join"
	}
}

// Join combines two inputs on equi-join predicates; a join on none is a
// cross product.
type Join struct {
	base
	Method JoinMethod
	L, R   Node
	Edges  []physical.JoinPred
}

// NewJoin constructs a join node with the given output order.
func NewJoin(m JoinMethod, l, r Node, edges []physical.JoinPred, rows float64, order []string, cost Cost) *Join {
	return &Join{base: base{cost: cost, rows: rows, order: order}, Method: m, L: l, R: r, Edges: edges}
}

// Children implements Node.
func (n *Join) Children() []Node { return []Node{n.L, n.R} }

// Label implements Node.
func (n *Join) Label() string {
	if len(n.Edges) == 0 {
		return n.Method.String() + "(cross)"
	}
	return n.Method.String() + "(" + conjunction(n.Edges) + ")"
}

// AggMode distinguishes hash aggregation from order-exploiting streaming.
type AggMode int

// Aggregation modes.
const (
	AggHash AggMode = iota
	AggStream
)

// GroupBy aggregates its input.
type GroupBy struct {
	base
	Child Node
	Keys  []string
	Mode  AggMode
}

// NewGroupBy constructs an aggregation node.
func NewGroupBy(child Node, keys []string, mode AggMode, groups float64, cost Cost) *GroupBy {
	var order []string
	if mode == AggStream {
		order = child.OutOrder()
	}
	return &GroupBy{base: base{cost: cost, rows: groups, order: order}, Child: child, Keys: keys, Mode: mode}
}

// Children implements Node.
func (n *GroupBy) Children() []Node { return []Node{n.Child} }

// Label implements Node.
func (n *GroupBy) Label() string {
	mode := "Hash"
	if n.Mode == AggStream {
		mode = "Stream"
	}
	return fmt.Sprintf("%sGroupBy(%s)", mode, strings.Join(n.Keys, ","))
}

// Format renders a plan tree as an indented multi-line string.
func Format(n Node) string {
	var sb strings.Builder
	format(&sb, n, 0)
	return sb.String()
}

func format(sb *strings.Builder, n Node, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(sb, "%s  [rows=%.0f %s]\n", n.Label(), n.OutRows(), n.TotalCost())
	for _, c := range n.Children() {
		format(sb, c, depth+1)
	}
}

// OrderSatisfies reports whether the order "have" satisfies the
// requirement "want": want must be a prefix-wise match of have, skipping
// have-columns bound to equality constants listed in eqBound.
func OrderSatisfies(have, want []string, eqBound map[string]bool) bool {
	hi := 0
	for _, w := range want {
		for hi < len(have) && eqBound[have[hi]] && have[hi] != w {
			hi++
		}
		if hi >= len(have) || have[hi] != w {
			return false
		}
		hi++
	}
	return true
}
