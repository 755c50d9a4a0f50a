package physical

import (
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
// configurations following the B-tree model of §3.3.1. Each index keeps
// the shape — rows, leaf pages, height — it was last given beside its
// bytes, with the sizer and the owning view's estimated cardinality it was
// computed for, so no accessor resolves column widths twice for one index
// while those stay the same and re-estimated views are re-sized. One
// sizer is shared by every forked optimizer in a parallel evaluation
// pool; it holds nothing but its resolver, so it needs no lock.
type Sizer struct {
	base WidthResolver
}

// IndexShape is what the B-tree model says of one index: its entries, the
// leaf-level pages (what scans touch), the total bytes, and the number of
// levels above the leaves.
type IndexShape struct {
	Rows, LeafPages, Bytes int64
	Height                 int
}

// shapeMemo is an index's shape as a sizer computed it over a base table
// (onView false) or over a view of viewRows estimated rows.
type shapeMemo struct {
	sizer    *Sizer
	onView   bool
	viewRows int64
	shape    IndexShape
}

// unresolved is the shape of an index whose table or columns are unknown.
var unresolved = IndexShape{LeafPages: 1}

// NewSizer returns a sizer over the given base resolver.
func NewSizer(base WidthResolver) *Sizer { return &Sizer{base: base} }

// IndexShape returns the shape of one index within cfg (cfg supplies view
// cardinalities; it may be nil for base-table indexes). A costing call
// that needs several of the fields asks once.
func (s *Sizer) IndexShape(ix *Index, cfg *Configuration) IndexShape {
	var v *View
	if cfg != nil {
		v = cfg.View(ix.Table)
	}
	return s.ShapeOn(ix, v)
}

// ShapeOn is IndexShape with the index's view already resolved: v is the
// view ix is over, nil over a base table. A caller walking one relation's
// list resolves its view once for the list.
func (s *Sizer) ShapeOn(ix *Index, v *View) IndexShape {
	var rows int64
	if v != nil {
		rows = v.EstRows
	}
	if m := ix.shape.Load(); m != nil && m.sizer == s && m.onView == (v != nil) && m.viewRows == rows {
		return m.shape
	}
	sh := s.resolve(ix, v)
	ix.shape.Store(&shapeMemo{sizer: s, onView: v != nil, viewRows: rows, shape: sh})
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
		total += s.listBytes(cfg.rels[i].indexes, cfg.View(cfg.rels[i].name))
	}
	return total
}

// listBytes is the size of one relation's index list over view v (nil
// over a base table).
func (s *Sizer) listBytes(list []*Index, v *View) int64 {
	var total int64
	for _, ix := range list {
		total += s.ShapeOn(ix, v).Bytes
	}
	return total
}

// SavedBytes returns ConfigBytes(before) − ConfigBytes(after), the ΔS of a
// step from one to the other, from the lists RelationsApart collected for
// the step: a relation whose index list is one list on both sides, over
// the same view or over a base table, adds the same bytes to both totals
// and is in neither. The arithmetic is on integers, so the result is that
// difference exactly.
func (s *Sizer) SavedBytes(apart []ListApart) int64 {
	var saved int64
	for i := range apart {
		a := &apart[i]
		if b := s.listBytes(a.List, a.View); a.Before {
			saved += b
		} else {
			saved -= b
		}
	}
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
