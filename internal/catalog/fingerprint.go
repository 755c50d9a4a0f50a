package catalog

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math"
	"sync"
)

// fingerprintState caches the computed catalog fingerprint. Databases
// are built once (by a generator or DDL loader) and then only read, so
// the hash is computed lazily on first use and reused afterwards.
type fingerprintState struct {
	once sync.Once
	fp   string
}

// Fingerprint returns a stable digest of the database's schema and
// statistics: table names, row counts, column types/widths, primary
// keys, heap markers, and the full per-column statistics (distinct
// counts, min/max, histogram buckets). Two databases with the same
// fingerprint are indistinguishable to the optimizer, so any quantity
// derived purely from (catalog, statement) — per-statement optimal
// fragments, what-if costs — may be shared between them. This is the
// key that makes cross-tenant cache sharing correctness-preserving: a
// fleet tenant only ever reuses results computed over an identical
// catalog.
//
// The fingerprint is computed on first call and cached; the catalog
// must be fully built (tables and statistics attached) before the
// first call.
func (db *Database) Fingerprint() string {
	db.fpState.once.Do(func() {
		h := sha256.New()
		writeString(h, db.Name)
		for _, t := range db.Tables() {
			writeString(h, t.Name)
			writeInt64(h, t.Rows)
			writeBool(h, t.Heap)
			for _, k := range t.PrimaryKey {
				writeString(h, k)
			}
			for _, c := range t.Columns {
				writeString(h, c.Name)
				writeInt64(h, int64(c.Type))
				writeInt64(h, int64(c.AvgWidth))
				writeStats(h, c.Stats)
			}
		}
		db.fpState.fp = hex.EncodeToString(h.Sum(nil)[:16])
	})
	return db.fpState.fp
}

func writeStats(w io.Writer, s *ColumnStats) {
	if s == nil {
		writeString(w, "-")
		return
	}
	writeInt64(w, s.Distinct)
	writeFloat(w, s.Min)
	writeFloat(w, s.Max)
	writeBool(w, s.Numeric)
	if h := s.Histogram; h != nil {
		for _, b := range h.Bounds {
			writeFloat(w, b)
		}
		for _, f := range h.Fracs {
			writeFloat(w, f)
		}
		for _, d := range h.DistinctIn {
			writeFloat(w, d)
		}
	}
}

func writeString(w io.Writer, s string) {
	writeInt64(w, int64(len(s)))
	io.WriteString(w, s)
}

func writeInt64(w io.Writer, v int64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	w.Write(buf[:])
}

func writeFloat(w io.Writer, v float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	w.Write(buf[:])
}

func writeBool(w io.Writer, b bool) {
	if b {
		io.WriteString(w, "1")
	} else {
		io.WriteString(w, "0")
	}
}
