package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/workloads"
)

// postJSON round-trips a JSON request/response pair against the test
// server and decodes the response into out.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestTunerdEndToEnd is the acceptance scenario: start the server, ingest
// a workload over HTTP, trigger a retune, and fetch a recommendation
// identical in cost to the equivalent batch run; /metrics must report the
// ingestion, drift, and optimizer-call counters; shutdown must drain
// in-flight tuning cleanly.
func TestTunerdEndToEnd(t *testing.T) {
	db := datagen.TPCH(0.001)
	svc, err := New(Options{DB: db, Tuning: testTuning()})
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	// Health before anything happened.
	var health healthResponse
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health.Status != "ok" || health.Database != db.Name || health.HasRec {
		t.Fatalf("healthz: %+v", health)
	}

	// No recommendation yet: 503 "not ready" with a Retry-After hint,
	// never 404's "no such route".
	resp0, err := http.Get(srv.URL + "/recommendation")
	if err != nil {
		t.Fatal(err)
	}
	resp0.Body.Close()
	if resp0.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("recommendation before retune: status %d, want 503", resp0.StatusCode)
	}
	if resp0.Header.Get("Retry-After") == "" {
		t.Fatalf("503 answer missing Retry-After header")
	}
	for _, path := range []string{"/explain", "/profile", "/diff"} {
		if code := getJSON(t, srv.URL+path, nil); code != http.StatusServiceUnavailable {
			t.Fatalf("%s before retune: status %d, want 503", path, code)
		}
	}
	// An empty session history is data, not an error.
	var sess sessionsResponse
	if code := getJSON(t, srv.URL+"/sessions", &sess); code != http.StatusOK || len(sess.Sessions) != 0 {
		t.Fatalf("empty /sessions: status %d, %+v", code, sess)
	}
	// Retuning an empty window is a conflict, not a crash.
	if code := postJSON(t, srv.URL+"/retune", struct{}{}, nil); code != http.StatusConflict {
		t.Fatalf("retune on empty window: status %d, want 409", code)
	}

	// Ingest the workload over HTTP, duplicates and all.
	const copies = 4
	stream := repeat(phase1, copies)
	var ing IngestResult
	if code := postJSON(t, srv.URL+"/ingest", IngestRequest{Statements: stream}, &ing); code != http.StatusOK {
		t.Fatalf("ingest: status %d", code)
	}
	if ing.Accepted != len(stream) || ing.Rejected != 0 || ing.WindowUnique != len(phase1) {
		t.Fatalf("ingest result: %+v", ing)
	}
	// A bad statement is rejected without poisoning the batch.
	var ing2 IngestResult
	postJSON(t, srv.URL+"/ingest", IngestRequest{Statements: []string{"BOGUS SQL", phase1[0]}}, &ing2)
	if ing2.Accepted != 1 || ing2.Rejected != 1 {
		t.Fatalf("mixed batch: %+v", ing2)
	}

	// Drift: plenty of observations, never tuned.
	var drift DriftReport
	getJSON(t, srv.URL+"/drift", &drift)
	if !drift.Drifted {
		t.Fatalf("expected never-tuned drift: %+v", drift)
	}

	// Retune over HTTP.
	var ret RetuneResponse
	if code := postJSON(t, srv.URL+"/retune", struct{}{}, &ret); code != http.StatusOK {
		t.Fatalf("retune: status %d", code)
	}
	if ret.Recommendation == nil || ret.Recommendation.DDL == "" {
		t.Fatalf("retune returned no recommendation")
	}

	// The recommendation must match the equivalent batch tune exactly.
	batchRaw, err := workloads.FromStatements("batch", db.Name, append(stream, phase1[0]))
	if err != nil {
		t.Fatalf("batch workload: %v", err)
	}
	tn, err := core.NewTuner(db, workloads.Compress(batchRaw), testTuning())
	if err != nil {
		t.Fatalf("batch tuner: %v", err)
	}
	want, err := tn.Tune()
	if err != nil {
		t.Fatalf("batch tune: %v", err)
	}
	var rec Recommendation
	if code := getJSON(t, srv.URL+"/recommendation", &rec); code != http.StatusOK {
		t.Fatalf("recommendation: status %d", code)
	}
	if math.Abs(rec.Cost-want.Best.Cost) > 1e-9 {
		t.Errorf("served cost %.6f != batch cost %.6f", rec.Cost, want.Best.Cost)
	}
	if rec.ImprovementPct <= 0 {
		t.Errorf("no improvement reported: %+v", rec.ImprovementPct)
	}

	// Metrics counters.
	var m MetricsSnapshot
	getJSON(t, srv.URL+"/metrics", &m)
	if m.StatementsIngested != int64(len(stream)+2) {
		t.Errorf("statements_ingested %d, want %d", m.StatementsIngested, len(stream)+2)
	}
	if m.ParseErrors != 1 {
		t.Errorf("parse_errors %d, want 1", m.ParseErrors)
	}
	if m.DriftEvents < 1 {
		t.Errorf("drift_events %d, want >= 1", m.DriftEvents)
	}
	if m.Retunes != 1 || m.TuneOptimizerCalls <= 0 || m.LastRetuneCalls <= 0 {
		t.Errorf("tuning counters: %+v", m)
	}
	if m.OptimizerCallsSpent <= 0 {
		t.Errorf("optimizer_calls_spent %d, want > 0", m.OptimizerCallsSpent)
	}

	// Health now reports a recommendation.
	getJSON(t, srv.URL+"/healthz", &health)
	if !health.HasRec {
		t.Errorf("healthz does not report recommendation")
	}

	// Graceful shutdown with an in-flight async retune.
	svc.Ingest(repeat(phase2, 3))
	svc.TriggerRetune()
	if err := svc.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestHandlerMethodsAndErrors pins the HTTP error surface.
func TestHandlerMethodsAndErrors(t *testing.T) {
	svc, err := New(Options{DB: datagen.TPCH(0.001), Tuning: testTuning()})
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	// Wrong method.
	resp, err := http.Get(srv.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest: status %d, want 405", resp.StatusCode)
	}
	// Malformed JSON.
	resp, err = http.Post(srv.URL+"/ingest", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", resp.StatusCode)
	}
	// A body over the limit is refused before it is decoded, on both
	// POST routes.
	huge := `{"statements":["` + strings.Repeat("x", MaxBodyBytes) + `"]}`
	for _, path := range []string{"/ingest", "/retune"} {
		resp, err = http.Post(srv.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized POST %s: status %d, want 413", path, resp.StatusCode)
		}
	}
	// Empty statement list.
	if code := postJSON(t, srv.URL+"/ingest", IngestRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty ingest: status %d, want 400", code)
	}
	// A progress bound that is not a whole positive number; the timeout
	// ends the stream should one open anyway.
	for _, bound := range []string{"5x", "0"} {
		if code := getJSON(t, srv.URL+"/progress?timeout=1s&max="+bound, nil); code != http.StatusBadRequest {
			t.Errorf("GET /progress?max=%s: status %d, want 400", bound, code)
		}
	}
	// Unknown path.
	resp, err = http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", resp.StatusCode)
	}
}

// TestConcurrentIngestAndRetune exercises the concurrent path end to end
// under -race: parallel ingestion while retunes and drift checks run.
func TestConcurrentIngestAndRetune(t *testing.T) {
	svc, err := New(Options{DB: datagen.TPCH(0.001), Tuning: testTuning()})
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	done := make(chan error, 4)
	for g := 0; g < 3; g++ {
		go func(g int) {
			for i := 0; i < 20; i++ {
				stmts := phase1
				if (i+g)%2 == 0 {
					stmts = phase2
				}
				if code := postJSON(t, srv.URL+"/ingest", IngestRequest{Statements: stmts}, nil); code != http.StatusOK {
					done <- fmt.Errorf("ingest status %d", code)
					return
				}
			}
			done <- nil
		}(g)
	}
	go func() {
		for i := 0; i < 3; i++ {
			code := postJSON(t, srv.URL+"/retune", struct{}{}, nil)
			if code != http.StatusOK && code != http.StatusConflict {
				done <- fmt.Errorf("retune status %d", code)
				return
			}
			getJSON(t, srv.URL+"/drift", nil)
			getJSON(t, srv.URL+"/metrics", nil)
		}
		done <- nil
	}()
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	var m MetricsSnapshot
	getJSON(t, srv.URL+"/metrics", &m)
	if m.StatementsIngested != 180 {
		t.Errorf("statements_ingested %d, want 180", m.StatementsIngested)
	}
	if m.Retunes < 1 {
		t.Errorf("no retune completed")
	}
}
