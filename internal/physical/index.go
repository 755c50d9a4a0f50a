// Package physical models physical design structures — indexes,
// materialized views, and configurations — together with the relaxation
// transformations of §3.1 of the paper (index merging, splitting,
// prefixing, promotion to clustered, and removal; view merging and
// removal) and the storage size model used to cost configurations.
package physical

import (
	"slices"
	"strings"
)

// Index is a B-tree index I = (K; S) with ordered key columns K and a set
// of suffix columns S (paper §"Assumptions"). Suffix columns are stored
// only at the leaves and cannot be used for seeking. An index is defined
// either over a base table or over a materialized view (Table then names
// the view).
type Index struct {
	Table     string   // base table or view name
	Keys      []string // ordered key columns
	Suffix    []string // suffix (included) columns, kept in canonical order
	Clustered bool
	// Required marks constraint-enforcing indexes that belong to the base
	// configuration and can never be removed or transformed away.
	Required bool
	// id caches the canonical identity. It is filled once, before the
	// index is shared (NewIndex, or the in-package mutate-after-Clone
	// sites), so concurrent readers never observe a write. Hand-built or
	// cloned values with an empty id recompute on every ID() call rather
	// than cache lazily — a lazy store would race under parallel workers.
	id string
}

// NewIndex builds an index, deduplicating key columns (first occurrence
// wins) and normalizing the suffix to exclude key columns.
func NewIndex(table string, keys, suffix []string, clustered bool) *Index {
	idx := &Index{Table: table, Keys: dedupKeepOrder(keys), Clustered: clustered}
	idx.Suffix = subtractCols(dedupKeepOrder(suffix), idx.Keys)
	idx.id = idx.buildID()
	return idx
}

// ID returns the canonical identity string of the index. Two indexes with
// the same ID are interchangeable.
func (ix *Index) ID() string {
	if ix.id != "" {
		return ix.id
	}
	return ix.buildID()
}

func (ix *Index) buildID() string {
	var sb strings.Builder
	if ix.Clustered {
		sb.WriteString("cix:")
	} else {
		sb.WriteString("ix:")
	}
	sb.WriteString(ix.Table)
	sb.WriteString("(")
	sb.WriteString(strings.Join(ix.Keys, ","))
	if len(ix.Suffix) > 0 {
		sb.WriteString(";")
		sb.WriteString(strings.Join(ix.Suffix, ","))
	}
	sb.WriteString(")")
	return sb.String()
}

func (ix *Index) String() string { return ix.ID() }

// Columns returns keys followed by suffix columns.
func (ix *Index) Columns() []string {
	out := make([]string, 0, len(ix.Keys)+len(ix.Suffix))
	out = append(out, ix.Keys...)
	return append(out, ix.Suffix...)
}

// HasColumn reports whether the index stores the named column.
func (ix *Index) HasColumn(col string) bool {
	return slices.Contains(ix.Keys, col) || slices.Contains(ix.Suffix, col)
}

// Covers reports whether the index stores every column in cols. A
// clustered index covers everything on its table by construction (callers
// should have included all table columns in its definition).
func (ix *Index) Covers(cols []string) bool {
	for _, c := range cols {
		if !ix.HasColumn(c) {
			return false
		}
	}
	return true
}

// KeyPrefixLen returns the length of the longest prefix of the index keys
// such that every prefix column appears in cols (order-insensitive match,
// as used when seeking with a set of sargable columns).
func (ix *Index) KeyPrefixLen(cols []string) int {
	n := 0
	for _, k := range ix.Keys {
		if !slices.Contains(cols, k) {
			break
		}
		n++
	}
	return n
}

// SharedKeyPrefixLen returns the length of the longest common prefix of
// this index's keys and other's keys (exact order match).
func (ix *Index) SharedKeyPrefixLen(other *Index) int {
	n := 0
	for n < len(ix.Keys) && n < len(other.Keys) && ix.Keys[n] == other.Keys[n] {
		n++
	}
	return n
}

// Clone returns a deep copy with Required cleared (derived indexes are
// never constraint-enforcing). The id cache is deliberately not copied:
// callers clone precisely to mutate, and a stale cached identity would be
// silently wrong. Mutating call sites within this package re-seal the id
// before sharing the result.
func (ix *Index) Clone() *Index {
	return &Index{
		Table:     ix.Table,
		Keys:      append([]string(nil), ix.Keys...),
		Suffix:    append([]string(nil), ix.Suffix...),
		Clustered: ix.Clustered,
	}
}

// MergeIndexes returns the ordered merge I1,2 of §3.1.1:
//
//	I1,2 = (K1; (S1 ∪ K2 ∪ S2) − K1), or
//	I1,2 = (K2; (S1 ∪ S2) − K2)  when K1 is a prefix of K2.
//
// The merged index answers every request that I1 or I2 answers and can be
// sought wherever I1 can. Merging is defined only for indexes over the
// same table or view; nil is returned otherwise.
func MergeIndexes(i1, i2 *Index) *Index {
	if i1.Table != i2.Table {
		return nil
	}
	if isKeyPrefix(i1.Keys, i2.Keys) {
		cols := unionCols(i1.Suffix, i2.Suffix)
		m := NewIndex(i1.Table, i2.Keys, cols, i1.Clustered || i2.Clustered)
		return m
	}
	cols := unionCols(i1.Suffix, unionCols(i2.Keys, i2.Suffix))
	return NewIndex(i1.Table, i1.Keys, cols, i1.Clustered || i2.Clustered)
}

// SplitIndexes returns the common index IC and residual indexes IR1, IR2
// of the split transformation in §3.1.1:
//
//	IC  = (K1 ∩ K2 ; S1 ∩ S2)  — key intersection in K1 order
//	IR1 = (K1 − KC ; columns of I1 not in IC)   when K1 ≠ KC
//	IR2 = (K2 − KC ; columns of I2 not in IC)   when K2 ≠ KC
//
// Split is undefined (returns nil common index) when the key intersection
// is empty or the indexes live on different tables. Residuals may be nil.
func SplitIndexes(i1, i2 *Index) (common, r1, r2 *Index) {
	if i1.Table != i2.Table {
		return nil, nil, nil
	}
	kc := intersectOrdered(i1.Keys, i2.Keys)
	if len(kc) == 0 {
		return nil, nil, nil
	}
	sc := intersectOrdered(i1.Suffix, i2.Suffix)
	common = NewIndex(i1.Table, kc, sc, false)
	if len(kc) != len(i1.Keys) {
		rest := subtractCols(i1.Columns(), common.Columns())
		keys := subtractCols(i1.Keys, kc)
		r1 = NewIndex(i1.Table, keys, subtractCols(rest, keys), false)
	}
	if len(kc) != len(i2.Keys) {
		rest := subtractCols(i2.Columns(), common.Columns())
		keys := subtractCols(i2.Keys, kc)
		r2 = NewIndex(i2.Table, keys, subtractCols(rest, keys), false)
	}
	return common, r1, r2
}

// PrefixIndex returns IP = (K'; ∅) where K' is the first n key columns.
// Per §3.1.1, n may equal len(K) when the index has suffix columns (the
// prefix then drops only the suffix). Returns nil for invalid n or when
// the prefix would equal the original index.
func PrefixIndex(ix *Index, n int) *Index {
	if n <= 0 || n > len(ix.Keys) {
		return nil
	}
	if n == len(ix.Keys) && len(ix.Suffix) == 0 {
		return nil
	}
	return NewIndex(ix.Table, ix.Keys[:n], nil, false)
}

// PromoteToClustered returns a clustered version of the index. The caller
// must ensure the configuration has no other clustered index on the table.
func PromoteToClustered(ix *Index) *Index {
	if ix.Clustered {
		return nil
	}
	p := ix.Clone()
	p.Clustered = true
	p.id = p.buildID()
	return p
}

// --- column-sequence helpers (order-preserving) ---

// unionCols returns a ∪ b keeping a's order then b's unseen elements.
func unionCols(a, b []string) []string {
	out := append([]string(nil), a...)
	for _, c := range b {
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// subtractCols returns elements of a not present in b, in a's order.
func subtractCols(a, b []string) []string {
	var out []string
	for _, c := range a {
		if !slices.Contains(b, c) {
			out = append(out, c)
		}
	}
	return out
}

// intersectOrdered returns elements of a also present in b, in a's order.
func intersectOrdered(a, b []string) []string {
	var out []string
	for _, c := range a {
		if slices.Contains(b, c) {
			out = append(out, c)
		}
	}
	return out
}

func dedupKeepOrder(a []string) []string {
	var out []string
	for _, c := range a {
		if !slices.Contains(out, c) {
			out = append(out, c)
		}
	}
	return out
}

// isKeyPrefix reports whether a is a (possibly equal) ordered prefix of b.
func isKeyPrefix(a, b []string) bool {
	return len(a) <= len(b) && slices.Equal(a, b[:len(a)])
}
