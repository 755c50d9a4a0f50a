package physical

import (
	"sync"

	"repro/internal/storage"
)

// WidthResolver supplies row counts and column widths for base tables. The
// sizer layers the configuration's views on top of it, so indexes over
// views are sized from the views' estimated cardinalities (§3.3.1).
type WidthResolver interface {
	// TableRows returns the row count of a base table.
	TableRows(table string) (int64, bool)
	// ColWidth returns the average width in bytes of a base-table column.
	ColWidth(table, col string) (int, bool)
	// TableCols returns all column names of a base table.
	TableCols(table string) []string
}

// Sizer estimates the storage consumed by indexes, views, and whole
// configurations following the B-tree model of §3.3.1. It caches each
// index's shape — rows, leaf pages, height — beside its bytes, so no
// accessor resolves column widths twice for one index; the cache key
// includes the owning view's estimated cardinality so
// re-estimated views are re-sized. One sizer is shared by every forked
// optimizer in a parallel evaluation pool, and every what-if costing call
// reads the cache, so hits take only the read lock.
type Sizer struct {
	base WidthResolver

	mu    sync.RWMutex
	cache map[shapeKey]IndexShape
}

// shapeKey identifies an index within the configurations that size it
// alike: its ID and, over a view, that view's estimated cardinality.
type shapeKey struct {
	id       string
	onView   bool
	viewRows int64
}

// IndexShape is what the B-tree model says of one index: its entries, the
// leaf-level pages (what scans touch), the total bytes, and the number of
// levels above the leaves.
type IndexShape struct {
	Rows, LeafPages, Bytes int64
	Height                 int
}

// unresolved is the shape of an index whose table or columns are unknown.
var unresolved = IndexShape{LeafPages: 1}

// NewSizer returns a sizer over the given base resolver.
func NewSizer(base WidthResolver) *Sizer {
	return &Sizer{base: base, cache: make(map[shapeKey]IndexShape)}
}

// IndexShape returns the shape of one index within cfg (cfg supplies view
// cardinalities; it may be nil for base-table indexes), resolving it on
// first sight. A costing call that needs several of the fields asks once.
func (s *Sizer) IndexShape(ix *Index, cfg *Configuration) IndexShape {
	key := shapeKey{id: ix.ID()}
	var v *View
	if cfg != nil {
		if v = cfg.View(ix.Table); v != nil {
			key.onView, key.viewRows = true, v.EstRows
		}
	}
	s.mu.RLock()
	sh, hit := s.cache[key]
	s.mu.RUnlock()
	if hit {
		return sh
	}
	sh = s.resolve(ix, v)
	s.mu.Lock()
	s.cache[key] = sh
	s.mu.Unlock()
	return sh
}

// resolve computes the shape of an index over view v, or over its base
// table when v is nil.
func (s *Sizer) resolve(ix *Index, v *View) IndexShape {
	var rows int64
	colWidth := func(col string) (int, bool) { return s.base.ColWidth(ix.Table, col) }
	allCols := func() []string { return s.base.TableCols(ix.Table) }
	if v != nil {
		rows = v.EstRows
		colWidth = func(col string) (int, bool) {
			c := v.Column(col)
			if c == nil {
				return 0, false
			}
			return c.Width, true
		}
		allCols = v.AllColumnNames
	} else if r, found := s.base.TableRows(ix.Table); found {
		rows = r
	} else {
		return unresolved
	}
	keyW := 0
	for _, k := range ix.Keys {
		w, ok := colWidth(k)
		if !ok {
			return unresolved
		}
		keyW += w
	}
	leafW := keyW
	if ix.Clustered {
		// Clustered leaves store full rows.
		leafW = 0
		for _, c := range allCols() {
			w, ok := colWidth(c)
			if !ok {
				return unresolved
			}
			leafW += w
		}
	} else {
		for _, sc := range ix.Suffix {
			w, ok := colWidth(sc)
			if !ok {
				return unresolved
			}
			leafW += w
		}
		leafW += storage.RidWidth // secondary leaves carry row locators
	}
	return IndexShape{
		Rows:      rows,
		LeafPages: storage.BTreeLeafPages(rows, leafW),
		Height:    storage.BTreeHeight(rows, leafW, keyW),
		Bytes:     storage.BTreeBytes(rows, leafW, keyW),
	}
}

// IndexBytes returns the estimated size in bytes of one index within cfg.
func (s *Sizer) IndexBytes(ix *Index, cfg *Configuration) int64 {
	return s.IndexShape(ix, cfg).Bytes
}

// HeapPages returns the page count of the table stored as a heap (used
// when a table or view has no clustered index).
func (s *Sizer) HeapPages(table string, cfg *Configuration) int64 {
	if cfg != nil {
		if v := cfg.View(table); v != nil {
			return storage.HeapPages(v.EstRows, v.RowWidth())
		}
	}
	rows, ok := s.base.TableRows(table)
	if !ok {
		return 1
	}
	w := 0
	for _, c := range s.base.TableCols(table) {
		cw, _ := s.base.ColWidth(table, c)
		w += cw
	}
	return storage.HeapPages(rows, w)
}

// ConfigBytes returns the total size of every index in the configuration.
// Materialized views are counted through their indexes (a view's clustered
// index stores the view rows), matching §3.3.1.
func (s *Sizer) ConfigBytes(cfg *Configuration) int64 {
	var total int64
	for i := range cfg.rels {
		total += s.listBytes(cfg.rels[i].indexes, cfg)
	}
	return total
}

func (s *Sizer) listBytes(list []*Index, cfg *Configuration) int64 {
	var total int64
	for _, ix := range list {
		total += s.IndexBytes(ix, cfg)
	}
	return total
}

// SavedBytes returns ConfigBytes(before) − ConfigBytes(after), the ΔS of a
// step from one to the other, at the cost of what the step touched: a
// relation whose index list is one list (sameList) on both sides, over the
// same view or over a base table, adds the same bytes to both totals and
// is left out of both (RelationsApart). The arithmetic is on integers, so
// the result is that difference exactly.
func (s *Sizer) SavedBytes(before, after *Configuration) int64 {
	var saved int64
	RelationsApart(before, after, func(_ string, list []*Index, in *Configuration) {
		if in == before {
			saved += s.listBytes(list, in)
		} else {
			saved -= s.listBytes(list, in)
		}
	})
	return saved
}

// BaseResolverFunc adapts plain functions to the WidthResolver interface.
type BaseResolverFunc struct {
	RowsFn  func(table string) (int64, bool)
	WidthFn func(table, col string) (int, bool)
	ColsFn  func(table string) []string
}

// TableRows implements WidthResolver.
func (f BaseResolverFunc) TableRows(table string) (int64, bool) { return f.RowsFn(table) }

// ColWidth implements WidthResolver.
func (f BaseResolverFunc) ColWidth(table, col string) (int, bool) { return f.WidthFn(table, col) }

// TableCols implements WidthResolver.
func (f BaseResolverFunc) TableCols(table string) []string { return f.ColsFn(table) }
