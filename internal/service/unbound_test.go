package service

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestRetuneSkipsStatementsThatDoNotBind: a statement that parses but
// does not bind (its table is not in the catalog) is left out of the
// retune, which tunes the rest, counts only them, and names the skipped
// one in one warning. A window in which nothing binds has nothing to
// tune, like an empty one.
func TestRetuneSkipsStatementsThatDoNotBind(t *testing.T) {
	var mu sync.Mutex
	var warnings []string
	s := newTestService(t, Options{Warnf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}})
	bad := "SELECT x FROM nosuchtable"
	if got := s.Ingest([]string{phase1[0], bad, phase1[1], phase1[1]}); got.Accepted != 4 {
		t.Fatalf("ingest: %+v", got)
	}
	rec, err := s.Retune()
	if err != nil {
		t.Fatalf("a window with one unbindable statement fails its retune: %v", err)
	}
	if rec.Statements != 2 || rec.TotalWeight != 3 {
		t.Errorf("recommendation counts %d statements of weight %g, want the 2 tuned of weight 3", rec.Statements, rec.TotalWeight)
	}
	mu.Lock()
	var skipped []string
	for _, w := range warnings {
		if strings.Contains(w, "do not bind") {
			skipped = append(skipped, w)
		}
	}
	mu.Unlock()
	if len(skipped) != 1 || !strings.Contains(skipped[0], "nosuchtable") {
		t.Errorf("want one warning naming the skipped statement, got %q", skipped)
	}

	empty := newTestService(t, Options{Warnf: func(string, ...any) {}})
	empty.Ingest([]string{bad, "SELECT y FROM nowhere"})
	if _, err := empty.Retune(); !errors.Is(err, ErrEmptyWindow) {
		t.Errorf("a window in which nothing binds: got %v, want ErrEmptyWindow", err)
	}
}
