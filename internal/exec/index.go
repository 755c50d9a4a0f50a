package exec

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/physical"
	"repro/internal/storage"
)

// ExecStats are the execution counters returned alongside every result:
// how many base-table rows the access paths read, an estimate of the
// pages those reads touched (using the §3.3.1 size-model constants), and
// how each table was reached. They are the measured half of the
// ground-truth calibration: the optimizer predicts page I/O, the
// executor counts what actually happened.
type ExecStats struct {
	// RowsScanned counts base-table rows read by access paths, before
	// filtering. An index-served table contributes only its binary-
	// searched key span; a full scan contributes the whole table.
	RowsScanned int64 `json:"rows_scanned"`
	// PagesTouched estimates the pages those reads covered: heap pages
	// for table scans, B-tree descent plus spanned leaf pages for index
	// seeks (same constants as the size model in internal/storage).
	PagesTouched int64 `json:"pages_touched"`
	// IndexSeeks and TableScans count access-path decisions per table
	// reference.
	IndexSeeks int64 `json:"index_seeks"`
	TableScans int64 `json:"table_scans"`
}

// Add accumulates another statement's counters into s.
func (s *ExecStats) Add(o ExecStats) {
	s.RowsScanned += o.RowsScanned
	s.PagesTouched += o.PagesTouched
	s.IndexSeeks += o.IndexSeeks
	s.TableScans += o.TableScans
}

// tableIndex is an in-memory secondary index: the table's rows re-sorted
// by the key columns, so a range on the leading key column becomes a
// binary-searched contiguous span instead of a full scan.
type tableIndex struct {
	id   string
	keys []int // key column positions in the base relation
	rows []Row // base rows sorted by the key columns
}

// AddIndex registers an index over the table's key columns, mirroring a
// physical.Index at execution level. Rows are copied (by reference) and
// sorted once at registration.
func (s *Store) AddIndex(id, table string, keyCols []string) error {
	rel := s.Get(table)
	if rel == nil {
		return fmt.Errorf("exec: AddIndex: no data for table %q", table)
	}
	keys := make([]int, len(keyCols))
	for i, c := range keyCols {
		j := rel.ColIndex(table + "." + c)
		if j < 0 {
			j = rel.ColIndex(c)
		}
		if j < 0 {
			return fmt.Errorf("exec: AddIndex: table %q has no column %q", table, c)
		}
		keys[i] = j
	}
	sorted := append([]Row(nil), rel.Rows...)
	sort.SliceStable(sorted, func(a, b int) bool {
		for _, k := range keys {
			if sorted[a][k].Less(sorted[b][k]) {
				return true
			}
			if sorted[b][k].Less(sorted[a][k]) {
				return false
			}
		}
		return false
	})
	if s.indexes == nil {
		s.indexes = map[string][]*tableIndex{}
	}
	s.indexes[table] = append(s.indexes[table], &tableIndex{id: id, keys: keys, rows: sorted})
	return nil
}

// AddConfigIndexes registers every index of a configuration whose table
// has data in the store, returning how many were registered. Indexes
// over unknown tables (e.g. view-backing indexes) are skipped.
func (s *Store) AddConfigIndexes(cfg *physical.Configuration) int {
	n := 0
	for _, ix := range cfg.Indexes() {
		if s.Get(ix.Table) == nil {
			continue
		}
		if err := s.AddIndex(ix.ID(), ix.Table, ix.Columns()); err == nil {
			n++
		}
	}
	return n
}

// ResetIndexes drops every registered index, returning the store to
// full-scan-only execution.
func (s *Store) ResetIndexes() { s.indexes = nil }

// NumIndexes reports the registered index count across all tables.
func (s *Store) NumIndexes() int {
	n := 0
	for _, list := range s.indexes {
		n += len(list)
	}
	return n
}

// accessPath is the chosen way to read one table: either a span of an
// index's sorted rows or a full scan of the base relation.
type accessPath struct {
	rows    []Row
	scanned int64
	pages   int64
	indexed bool
}

// chooseAccessPath picks the cheapest way to read table t under the
// block's range conditions: the registered index whose leading key
// column is bound by a range, with the smallest binary-searched span —
// or a full scan when no index applies.
func (s *Store) chooseAccessPath(t string, base *Relation, ranges []physical.RangeCond) accessPath {
	rowWidth := avgRowWidth(base)
	best := accessPath{
		rows:    base.Rows,
		scanned: int64(len(base.Rows)),
		pages:   storage.HeapPages(int64(len(base.Rows)), rowWidth),
	}
	for _, ix := range s.indexes[t] {
		lead := ix.keys[0]
		for _, rc := range ranges {
			if rc.Col.Table != t {
				continue
			}
			ci := base.ColIndex(rc.Col.Table + "." + rc.Col.Column)
			if ci < 0 || ci != lead || !bounded(rc.Iv) {
				continue
			}
			lo, hi := indexSpan(ix, rc.Iv)
			if span := int64(hi - lo); span < best.scanned {
				// Seek cost: one page per descent level plus the leaf
				// pages the span covers (key + rid per leaf entry).
				entryWidth := avgColWidth(base, lead) + storage.RidWidth
				height := storage.BTreeHeight(int64(len(ix.rows)), entryWidth, entryWidth)
				best = accessPath{
					rows:    ix.rows[lo:hi],
					scanned: span,
					pages:   int64(height) + storage.BTreeLeafPages(max64(span, 1), entryWidth),
					indexed: true,
				}
			}
		}
	}
	return best
}

// bounded reports whether the interval actually restricts the leading
// key column (an unbounded range would just re-scan everything).
func bounded(iv physical.Interval) bool {
	return iv.IsString || !iv.Unbounded()
}

// indexSpan binary-searches the sorted index rows for the half-open
// span [lo, hi) satisfying the interval on the leading key column.
func indexSpan(ix *tableIndex, iv physical.Interval) (lo, hi int) {
	lead := ix.keys[0]
	n := len(ix.rows)
	loB, hiB, loIncl, hiIncl, haveLo, haveHi := intervalBounds(iv)
	lo = 0
	if haveLo {
		lo = sort.Search(n, func(i int) bool {
			v := ix.rows[i][lead]
			if loIncl {
				return !v.Less(loB)
			}
			return loB.Less(v)
		})
	}
	hi = n
	if haveHi {
		hi = sort.Search(n, func(i int) bool {
			v := ix.rows[i][lead]
			if hiIncl {
				return hiB.Less(v)
			}
			return !v.Less(hiB)
		})
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// intervalBounds lowers a physical.Interval to comparable Values.
func intervalBounds(iv physical.Interval) (lo, hi Value, loIncl, hiIncl, haveLo, haveHi bool) {
	if iv.IsString {
		p := Str(iv.StrVal)
		return p, p, true, true, true, true
	}
	haveLo = !math.IsInf(iv.Lo, -1)
	haveHi = !math.IsInf(iv.Hi, 1)
	return Num(iv.Lo), Num(iv.Hi), iv.LoIncl, iv.HiIncl, haveLo, haveHi
}

// avgRowWidth estimates a relation's byte width per row from a bounded
// sample (8 bytes per numeric, string length per string).
func avgRowWidth(r *Relation) int {
	if len(r.Rows) == 0 {
		return 8 * len(r.Cols)
	}
	total := 0
	sample := len(r.Rows)
	if sample > 64 {
		sample = 64
	}
	for _, row := range r.Rows[:sample] {
		for _, v := range row {
			total += valueWidth(v)
		}
	}
	w := total / sample
	if w < 1 {
		w = 1
	}
	return w
}

// avgColWidth estimates one column's byte width from a bounded sample.
func avgColWidth(r *Relation, col int) int {
	if len(r.Rows) == 0 {
		return 8
	}
	total := 0
	sample := len(r.Rows)
	if sample > 64 {
		sample = 64
	}
	for _, row := range r.Rows[:sample] {
		total += valueWidth(row[col])
	}
	w := total / sample
	if w < 1 {
		w = 1
	}
	return w
}

func valueWidth(v Value) int {
	if v.IsStr {
		if len(v.S) == 0 {
			return 1
		}
		return len(v.S)
	}
	return 8
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
