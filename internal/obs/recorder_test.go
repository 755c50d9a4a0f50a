package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func testSession(id string, budget int64) *SessionRecord {
	return &SessionRecord{
		ID:               id,
		StartedAt:        time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC),
		FinishedAt:       time.Date(2026, 8, 6, 12, 0, 1, 0, time.UTC),
		Trigger:          "manual",
		Statements:       3,
		SpaceBudgetBytes: budget,
		InitialCost:      100,
		Cost:             40,
		ImprovementPct:   60,
		SizeBytes:        budget - 1,
		Iterations:       5,
		Structures: []StructureRecord{
			{ID: "ix_a", Kind: "index", SizeBytes: 1000, CostShare: 30},
		},
		Frontier: []FrontierSample{
			{Iteration: 1, SizeBytes: budget + 50, Cost: 35, Transformation: "merge(ix_a,ix_b)", Penalty: 0.2},
			{Iteration: 2, SizeBytes: budget - 1, Cost: 40, Fits: true, Transformation: "remove(ix_c)", Penalty: 0.5},
		},
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *Recorder
	if r.NewSessionID() != "" {
		t.Fatal("nil recorder issued an ID")
	}
	if err := r.Record(testSession("s-000001", 100)); err != nil {
		t.Fatal(err)
	}
	if r.Get("s-000001") != nil || r.Sessions() != nil || r.Summaries() != nil || r.Len() != 0 {
		t.Fatal("nil recorder has state")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderMemoryOnly(t *testing.T) {
	r, err := NewRecorder("", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if id := r.NewSessionID(); id != "s-000001" {
		t.Fatalf("first ID = %q", id)
	}
	if id := r.NewSessionID(); id != "s-000002" {
		t.Fatalf("second ID = %q", id)
	}
	if err := r.Record(testSession("s-000001", 100)); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 || r.Get("s-000001") == nil || r.Get("s-000099") != nil {
		t.Fatalf("lookup broken: len=%d", r.Len())
	}
	sum := r.Summaries()
	if len(sum) != 1 || sum[0].FrontierPoints != 2 || sum[0].Structures != 1 {
		t.Fatalf("summary projection: %+v", sum)
	}
}

// TestRecorderRecordCopies pins that Record stores a copy: mutating the
// caller's record afterwards must not alter history.
func TestRecorderRecordCopies(t *testing.T) {
	r, _ := NewRecorder("", 0)
	rec := testSession("s-000001", 100)
	r.Record(rec)
	rec.Cost = 999
	if got := r.Get("s-000001").Cost; got != 40 {
		t.Fatalf("history mutated through caller's pointer: cost=%g", got)
	}
}

// TestRecorderPersistenceAcrossRestart is the flight-recorder acceptance
// path: record sessions, drop the recorder (simulated daemon restart),
// reopen the same file, and find the history — and the ID sequence —
// intact.
func TestRecorderPersistenceAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history", "sessions.jsonl")

	r1, err := NewRecorder(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		id := r1.NewSessionID()
		if err := r1.Record(testSession(id, int64(100*i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := NewRecorder(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 3 {
		t.Fatalf("reloaded %d sessions, want 3", r2.Len())
	}
	rec := r2.Get("s-000002")
	if rec == nil || rec.SpaceBudgetBytes != 200 || len(rec.Frontier) != 2 {
		t.Fatalf("reloaded record mangled: %+v", rec)
	}
	if rec.Frontier[0].Transformation != "merge(ix_a,ix_b)" {
		t.Fatalf("frontier lost detail: %+v", rec.Frontier[0])
	}
	// IDs continue past the persisted maximum.
	if id := r2.NewSessionID(); id != "s-000004" {
		t.Fatalf("post-restart ID = %q, want s-000004", id)
	}
}

// TestRecorderSkipsCorruptLines checks a truncated write doesn't brick
// the daemon: bad lines are skipped, good ones load.
func TestRecorderSkipsCorruptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.jsonl")
	r1, _ := NewRecorder(path, 16)
	r1.Record(testSession(r1.NewSessionID(), 100))
	r1.Close()

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id": "s-000002", "space_budget`) // torn write
	f.Close()

	r2, err := NewRecorder(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 1 || r2.Get("s-000001") == nil {
		t.Fatalf("corrupt line poisoned the history: len=%d", r2.Len())
	}
}

// TestRecorderLoadsOldHistory: a -history file written by an older
// build must survive an upgrade that removes fields. The first two
// fixtures are sessions recorded by the daemon at the commit before a
// change deleted counters from the what-if economy — speculative
// evaluation, then the evaluation cache — with that session's economy,
// as GET /calibration served it, added where a record could have carried
// it; unknown fields are ignored, known ones keep their values. The
// third was written before the history and the alert log shared one
// store.
func TestRecorderLoadsOldHistory(t *testing.T) {
	for _, fx := range []struct {
		file, id, nextID                                   string
		workers, structures, frontier, samples, violations int
		calls                                              int64
	}{
		{"history_pre_v8.jsonl", "s-000001", "s-000002", 4, 1, 1, 3, 1, 12},
		{"history_eval_cache.jsonl", "s-000002", "s-000003", 2, 8, 18, 17, 0, 21},
		{"history_pre_store.jsonl", "s-000001", "s-000002", 2, 9, 1, 0, 0, 3},
	} {
		t.Run(fx.file, func(t *testing.T) {
			line, err := os.ReadFile("testdata/" + fx.file)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "sessions.jsonl")
			if err := os.WriteFile(path, line, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := NewRecorder(path, 16)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got := r.Get(fx.id)
			if got == nil {
				t.Fatalf("old session did not reload (len=%d)", r.Len())
			}
			if got.ParallelWorkers != fx.workers || got.OptimizerCalls != fx.calls ||
				len(got.Structures) != fx.structures || len(got.Frontier) != fx.frontier {
				t.Errorf("reloaded session lost fields: %+v", got)
			}
			if got.Calibration == nil || got.Calibration.Samples != fx.samples || got.Calibration.BoundViolations != fx.violations {
				t.Errorf("reloaded calibration = %+v", got.Calibration)
			}
			if id := r.NewSessionID(); id != fx.nextID {
				t.Errorf("next session ID = %q, want %s", id, fx.nextID)
			}
		})
	}
}

// TestRecorderRetentionAndCompaction records far past the limit and
// checks both the in-memory tail and the on-disk file stay bounded.
func TestRecorderRetentionAndCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.jsonl")
	const limit = 4
	r, err := NewRecorder(path, limit)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := r.Record(testSession(r.NewSessionID(), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != limit {
		t.Fatalf("retained %d, want %d", r.Len(), limit)
	}
	sessions := r.Sessions()
	if sessions[0].ID != "s-000017" || sessions[limit-1].ID != "s-000020" {
		t.Fatalf("retained the wrong tail: %s..%s", sessions[0].ID, sessions[limit-1].ID)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Compaction keeps the file O(limit): at most 2×limit lines.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines > 2*limit {
		t.Fatalf("history file has %d lines after compaction, want <= %d", lines, 2*limit)
	}

	// And the reloaded view matches the pre-restart one.
	r2, err := NewRecorder(path, limit)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != limit || r2.Get("s-000020") == nil {
		t.Fatalf("post-compaction reload: len=%d", r2.Len())
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	r, _ := NewRecorder(filepath.Join(t.TempDir(), "s.jsonl"), 32)
	defer r.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Record(testSession(r.NewSessionID(), int64(i)))
		}
	}()
	for i := 0; i < 50; i++ {
		r.Len()
		r.Summaries()
		r.Get(fmt.Sprintf("s-%06d", i))
	}
	<-done
}
