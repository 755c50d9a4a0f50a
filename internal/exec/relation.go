// Package exec is a small in-memory query execution engine over
// materialized synthetic rows. The tuner itself never executes queries
// (like the paper, it works purely on optimizer estimates); this engine
// exists to *validate* the reproduction: cardinality estimates are
// checked against true result sizes, view definitions against their
// materialized contents, and view-matching compensations against ground
// truth.
package exec

import (
	"fmt"
	"sort"
	"strings"
)

// Value is a scalar: a float64 or a string.
type Value struct {
	F     float64
	S     string
	IsStr bool
}

// Num wraps a numeric value.
func Num(f float64) Value { return Value{F: f} }

// Str wraps a string value.
func Str(s string) Value { return Value{S: s, IsStr: true} }

// Equal compares two values.
func (v Value) Equal(o Value) bool {
	if v.IsStr != o.IsStr {
		return false
	}
	if v.IsStr {
		return v.S == o.S
	}
	return v.F == o.F
}

// Less orders values (strings after numbers, lexicographic within kind).
func (v Value) Less(o Value) bool {
	if v.IsStr != o.IsStr {
		return !v.IsStr
	}
	if v.IsStr {
		return v.S < o.S
	}
	return v.F < o.F
}

func (v Value) String() string {
	if v.IsStr {
		return "'" + v.S + "'"
	}
	return fmt.Sprintf("%g", v.F)
}

// Key renders a value for hashing.
func (v Value) Key() string {
	if v.IsStr {
		return "s:" + v.S
	}
	return fmt.Sprintf("n:%g", v.F)
}

// Row is one tuple.
type Row []Value

// Relation is a named bag of rows with qualified column names
// ("table.column" for base data, view-local names for view contents).
type Relation struct {
	Cols []string
	Rows []Row

	colIdx map[string]int
}

// NewRelation builds an empty relation with the given columns.
func NewRelation(cols []string) *Relation {
	r := &Relation{Cols: cols}
	r.buildIndex()
	return r
}

func (r *Relation) buildIndex() {
	r.colIdx = make(map[string]int, len(r.Cols))
	for i, c := range r.Cols {
		r.colIdx[c] = i
	}
}

// ColIndex returns the position of a column, or -1.
func (r *Relation) ColIndex(name string) int {
	if r.colIdx == nil {
		r.buildIndex()
	}
	if i, ok := r.colIdx[name]; ok {
		return i
	}
	return -1
}

// Append adds a row (must match the column count).
func (r *Relation) Append(row Row) {
	if len(row) != len(r.Cols) {
		panic(fmt.Sprintf("exec: row width %d != %d columns", len(row), len(r.Cols)))
	}
	r.Rows = append(r.Rows, row)
}

// Len returns the row count.
func (r *Relation) Len() int { return len(r.Rows) }

// Project returns a new relation with the selected columns.
func (r *Relation) Project(cols []string) (*Relation, error) {
	idxs := make([]int, len(cols))
	for i, c := range cols {
		j := r.ColIndex(c)
		if j < 0 {
			return nil, fmt.Errorf("exec: unknown column %q", c)
		}
		idxs[i] = j
	}
	out := NewRelation(append([]string(nil), cols...))
	for _, row := range r.Rows {
		nr := make(Row, len(idxs))
		for i, j := range idxs {
			nr[i] = row[j]
		}
		out.Append(nr)
	}
	return out, nil
}

// SortBy orders rows by the given columns ascending.
func (r *Relation) SortBy(cols []string) error {
	idxs := make([]int, len(cols))
	for i, c := range cols {
		j := r.ColIndex(c)
		if j < 0 {
			return fmt.Errorf("exec: unknown sort column %q", c)
		}
		idxs[i] = j
	}
	sort.SliceStable(r.Rows, func(a, b int) bool {
		for _, j := range idxs {
			if r.Rows[a][j].Less(r.Rows[b][j]) {
				return true
			}
			if r.Rows[b][j].Less(r.Rows[a][j]) {
				return false
			}
		}
		return false
	})
	return nil
}

// Fingerprint returns an order-insensitive digest of the relation's
// contents (for result-equivalence checks).
func (r *Relation) Fingerprint() string {
	lines := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		var sb strings.Builder
		for _, v := range row {
			sb.WriteString(v.Key())
			sb.WriteString("|")
		}
		lines[i] = sb.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Store holds the materialized contents of a database's tables (keyed by
// the catalog's table name, columns qualified as "table.column"), plus any
// in-memory secondary indexes registered with AddIndex.
type Store struct {
	relations map[string]*Relation
	indexes   map[string][]*tableIndex
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{relations: map[string]*Relation{}} }

// Put registers a relation under a name. Replacing a table's data drops
// any indexes registered over the previous contents.
func (s *Store) Put(name string, r *Relation) {
	s.relations[name] = r
	delete(s.indexes, name)
}

// Get returns a relation, or nil.
func (s *Store) Get(name string) *Relation {
	return s.relations[name]
}

// Tables lists stored relation names, sorted.
func (s *Store) Tables() []string {
	var out []string
	for n := range s.relations {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
