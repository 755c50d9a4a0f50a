package service

import (
	"bufio"
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/obs"
)

// TestSessionEndpointsAndDiff drives the flight-recorder HTTP surface:
// two retunes under different budgets must yield two listed sessions,
// full records with non-empty frontiers, and a non-trivial /diff.
func TestSessionEndpointsAndDiff(t *testing.T) {
	svc := newTestService(t, Options{})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	if code := postJSON(t, srv.URL+"/ingest", IngestRequest{Statements: repeat(phase1, 3)}, nil); code != http.StatusOK {
		t.Fatalf("ingest: %d", code)
	}

	// Session 1 at the default budget; session 2 squeezed to 0.05 MB so
	// the recommendation must shed structures.
	squeezeMB := 0.05
	if code := postJSON(t, srv.URL+"/retune", struct{}{}, nil); code != http.StatusOK {
		t.Fatalf("retune 1: %d", code)
	}
	if code := postJSON(t, srv.URL+"/retune", RetuneRequest{BudgetMB: &squeezeMB}, nil); code != http.StatusOK {
		t.Fatalf("retune 2: %d", code)
	}

	var list sessionsResponse
	if code := getJSON(t, srv.URL+"/sessions", &list); code != http.StatusOK {
		t.Fatalf("sessions: %d", code)
	}
	if len(list.Sessions) != 2 {
		t.Fatalf("listed %d sessions, want 2", len(list.Sessions))
	}
	s1, s2 := list.Sessions[0], list.Sessions[1]
	if s1.ID != "s-000001" || s2.ID != "s-000002" {
		t.Fatalf("session IDs: %q, %q", s1.ID, s2.ID)
	}
	if s1.FrontierPoints == 0 || s2.FrontierPoints == 0 {
		t.Fatalf("sessions without frontier: %+v, %+v", s1, s2)
	}
	if s2.SpaceBudgetBytes != int64(squeezeMB*float64(1<<20)) {
		t.Fatalf("budget override not recorded: %d", s2.SpaceBudgetBytes)
	}

	var full obs.SessionRecord
	if code := getJSON(t, srv.URL+"/sessions/"+s1.ID, &full); code != http.StatusOK {
		t.Fatalf("session detail: %d", code)
	}
	if full.Trigger != "manual" || len(full.Frontier) == 0 || len(full.Structures) == 0 {
		t.Fatalf("full record: trigger=%q frontier=%d structures=%d",
			full.Trigger, len(full.Frontier), len(full.Structures))
	}
	if code := getJSON(t, srv.URL+"/sessions/s-999999", nil); code != http.StatusNotFound {
		t.Fatalf("unknown session: %d, want 404", code)
	}

	// Default diff compares the two most recent sessions.
	var diff obs.SessionDiff
	if code := getJSON(t, srv.URL+"/diff", &diff); code != http.StatusOK {
		t.Fatalf("diff: %d", code)
	}
	if diff.From != s1.ID || diff.To != s2.ID {
		t.Fatalf("default diff endpoints: %+v", diff)
	}
	if diff.BudgetDelta == 0 {
		t.Fatal("different budgets, zero budget delta")
	}
	if diff.Added+diff.Removed+diff.Changed == 0 {
		t.Fatalf("40x budget squeeze produced a trivial diff: %+v", diff)
	}

	// Explicit IDs work; unknown IDs are 404 (the data exists, the name
	// is wrong), unlike the pre-data 503.
	if code := getJSON(t, srv.URL+"/diff?from="+s2.ID+"&to="+s1.ID, &diff); code != http.StatusOK {
		t.Fatalf("explicit diff: %d", code)
	}
	if code := getJSON(t, srv.URL+"/diff?from=nope&to="+s1.ID, nil); code != http.StatusNotFound {
		t.Fatalf("unknown diff ID: %d, want 404", code)
	}
}

// TestSessionHistorySurvivesRestart is the acceptance path: retune,
// stop the service, start a fresh one over the same history file, and
// find the session — frontier included — still served.
func TestSessionHistorySurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sessions.jsonl")
	db := datagen.TPCH(0.001)

	rec1, err := obs.NewRecorder(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	svc1, err := New(Options{DB: db, Tuning: testTuning(), Recorder: rec1})
	if err != nil {
		t.Fatal(err)
	}
	svc1.Ingest(repeat(phase1, 2))
	if _, err := svc1.Retune(); err != nil {
		t.Fatal(err)
	}
	if err := svc1.Close(); err != nil { // closes the recorder too
		t.Fatal(err)
	}

	rec2, err := obs.NewRecorder(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := New(Options{DB: db, Tuning: testTuning(), Recorder: rec2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()

	sums := svc2.Sessions()
	if len(sums) != 1 || sums[0].ID != "s-000001" {
		t.Fatalf("restarted history: %+v", sums)
	}
	full := svc2.Session("s-000001")
	if full == nil || len(full.Frontier) == 0 || len(full.Structures) == 0 {
		t.Fatalf("restarted record lost detail: %+v", full)
	}
	// The ID sequence continues rather than colliding.
	svc2.Ingest(repeat(phase2, 2))
	if _, err := svc2.Retune(); err != nil {
		t.Fatal(err)
	}
	if got := svc2.Sessions(); len(got) != 2 || got[1].ID != "s-000002" {
		t.Fatalf("post-restart session ID: %+v", got)
	}
}

// TestProgressSSEUnderConcurrentRetune is the satellite stress test: a
// reading client and a never-reading (slow) client both hold /progress
// streams open while two retunes run concurrently. The publisher must
// never stall, the reading client must see well-formed SSE frames, and
// closing both clients must release every handler goroutine and
// subscriber slot.
func TestProgressSSEUnderConcurrentRetune(t *testing.T) {
	svc := newTestService(t, Options{})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	svc.Ingest(repeat(phase1, 3))

	goroutines0 := runtime.NumGoroutine()

	// Slow client: opens the stream and never reads a byte.
	slowCtx, cancelSlow := context.WithCancel(context.Background())
	defer cancelSlow()
	slowReq, err := http.NewRequestWithContext(slowCtx, http.MethodGet, srv.URL+"/progress", nil)
	if err != nil {
		t.Fatal(err)
	}
	slowResp, err := http.DefaultClient.Do(slowReq)
	if err != nil {
		t.Fatal(err)
	}
	defer slowResp.Body.Close()
	if ct := slowResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}

	// Reading client: bounded by ?max so the server ends the stream.
	liveResp, err := http.Get(srv.URL + "/progress?max=5&timeout=30s")
	if err != nil {
		t.Fatal(err)
	}
	defer liveResp.Body.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Retune(); err != nil {
				t.Errorf("concurrent retune: %v", err)
			}
		}()
	}

	// The live client must see exactly max well-formed frames.
	frames, data := 0, 0
	sc := bufio.NewScanner(liveResp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: progress":
			frames++
		case strings.HasPrefix(line, "data: {"):
			data++
		}
	}
	if frames != 5 || data != 5 {
		t.Fatalf("live client saw %d frames, %d data lines; want 5 each", frames, data)
	}
	wg.Wait()

	// Both retunes finished while the slow client never read: the
	// publisher was not stalled. Now release the clients and check
	// nothing leaked.
	cancelSlow()
	liveResp.Body.Close()
	slowResp.Body.Close()
	http.DefaultClient.CloseIdleConnections()

	deadline := time.Now().Add(5 * time.Second)
	for svc.Progress().Subscribers() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := svc.Progress().Subscribers(); n != 0 {
		t.Fatalf("%d progress subscribers leaked", n)
	}
	for runtime.NumGoroutine() > goroutines0+3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines0+3 {
		t.Fatalf("goroutines leaked: %d before, %d after", goroutines0, n)
	}

	// Two sessions recorded despite the concurrency.
	if got := len(svc.Sessions()); got != 2 {
		t.Fatalf("recorded %d sessions, want 2", got)
	}
}

// TestProgressSSEThroughAccessLog pins that the access-log wrapper
// forwards http.Flusher: tunerd always wraps the handler, and without
// the forward /progress answers 501 "streaming unsupported".
func TestProgressSSEThroughAccessLog(t *testing.T) {
	svc := newTestService(t, Options{})
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := httptest.NewServer(AccessLog(logger, NewHandler(svc)))
	defer srv.Close()

	svc.Ingest(repeat(phase1, 2))
	if _, err := svc.Retune(); err != nil {
		t.Fatal(err)
	}
	// The subscription seeds the last event, so max=1 returns at once.
	resp, err := http.Get(srv.URL + "/progress?max=1&timeout=10s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "event: progress") {
		t.Fatalf("SSE through AccessLog: status %d, body %q", resp.StatusCode, body)
	}
}

// TestProgressEventsCarrySessionIDs: the stream labels events with the
// flight-recorder session ID, so a watcher can correlate live progress
// with the history it lands in.
func TestProgressEventsCarrySessionIDs(t *testing.T) {
	svc := newTestService(t, Options{})
	svc.Ingest(repeat(phase1, 2))
	sub := svc.Progress().Subscribe(4096)
	if _, err := svc.Retune(); err != nil {
		t.Fatal(err)
	}
	sub.Close()
	n := 0
	for ev := range sub.C {
		n++
		if ev.Session != "s-000001" {
			t.Fatalf("event session %q, want s-000001", ev.Session)
		}
	}
	if n == 0 {
		t.Fatal("no progress events published by the service retune")
	}
}
