package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// maxLineBytes bounds one JSONL line on load: a session record with a
// long frontier runs to kilobytes, never to megabytes.
const maxLineBytes = 16 << 20

// jsonlStore is the bounded JSONL log behind the session history
// (Recorder) and the alert transition log (AlertEngine): the newest
// limit records in memory, oldest first, and one JSON line per record
// on disk. Loading skips lines that do not parse, so a torn or corrupt
// line costs that line, not the whole log. The file is rewritten to
// exactly the retained records once it grows past 2×limit lines, which
// keeps it O(limit) without a rewrite per record. With an empty path
// the records live in memory only and nothing is encoded.
//
// A store does no locking: its owner serializes every call.
type jsonlStore[V any] struct {
	path  string
	limit int
	recs  []*V
	f     *os.File // nil when memory-only, closed, or a reopen failed
	lines int      // lines in the file, skipped ones included
	// buf and enc are the reused append encoder, so a record encodes
	// without allocating a fresh line each time.
	buf bytes.Buffer
	enc *json.Encoder
}

// openStore loads the retained tail of the file at path, creating the
// file and its directory when missing, and opens it for appends.
// onLoad, when set, sees every record that parses, in file order.
func openStore[V any](path string, limit int, onLoad func(*V)) (*jsonlStore[V], error) {
	s := &jsonlStore[V]{path: path, limit: limit}
	if path == "" {
		return s, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	if err := s.load(onLoad); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	s.f = f
	return s, nil
}

func (s *jsonlStore[V]) load(onLoad func(*V)) error {
	f, err := os.Open(s.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		s.lines++
		rec := new(V)
		if json.Unmarshal(sc.Bytes(), rec) != nil {
			continue // blank, torn or corrupt: keep what parses
		}
		if onLoad != nil {
			onLoad(rec)
		}
		s.recs = append(s.recs, rec)
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("obs: reading %s: %w", s.path, err)
	}
	s.trim()
	return nil
}

// trim drops the oldest records past the limit.
func (s *jsonlStore[V]) trim() {
	if over := len(s.recs) - s.limit; over > 0 {
		s.recs = s.recs[:copy(s.recs, s.recs[over:])]
	}
}

// append retains rec and writes it as one line, compacting once the
// file passes 2×limit lines. rec stays retained when the write fails.
func (s *jsonlStore[V]) append(rec *V) error {
	s.recs = append(s.recs, rec)
	s.trim()
	if s.f == nil {
		return nil
	}
	if s.enc == nil {
		s.enc = json.NewEncoder(&s.buf)
	}
	s.buf.Reset()
	if err := s.enc.Encode(rec); err != nil {
		return fmt.Errorf("obs: encoding a record for %s: %w", s.path, err)
	}
	if _, err := s.f.Write(s.buf.Bytes()); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	s.lines++
	if s.lines > 2*s.limit {
		return s.rewrite()
	}
	return nil
}

// rewrite replaces the file with exactly the retained records, through
// a temporary file and a rename: compaction, and how an amended record
// reaches disk.
func (s *jsonlStore[V]) rewrite() error {
	if s.f == nil {
		return nil
	}
	tmp := s.path + ".tmp"
	if err := writeRecords(tmp, s.recs); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, s.path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("obs: %w", err)
	}
	_ = s.f.Close() // the rename replaced everything it wrote
	f, err := os.OpenFile(s.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.f = nil
		return fmt.Errorf("obs: %w", err)
	}
	s.f = f
	s.lines = len(s.recs)
	return nil
}

func writeRecords[V any](path string, recs []*V) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, rec := range recs {
		// A record that does not encode was never written by append
		// either, so it is left out; Encode marshals the whole record
		// before writing, so a failure leaves no partial line behind.
		_ = enc.Encode(rec)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("obs: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	return nil
}

// newest returns a copy of the newest n records, oldest first (n <= 0 =
// all of them).
func (s *jsonlStore[V]) newest(n int) []*V {
	tail := s.recs
	if n > 0 && len(tail) > n {
		tail = tail[len(tail)-n:]
	}
	return append([]*V{}, tail...)
}

// close releases the file; later appends keep records in memory only.
func (s *jsonlStore[V]) close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
