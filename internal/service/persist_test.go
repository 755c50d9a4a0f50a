package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

// The golden payloads under testdata/ were served by the daemon before
// the session history and the alert log shared one store; the tests
// below pin that neither payload moved.

// checkGolden compares a response body with testdata/<name> byte for
// byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden payload:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}

// serveGET answers one GET through the handler, failing on non-200.
func serveGET(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

// ingestBurstRule is the endpoint smoke's synthetic rule: it breaches
// while statements keep arriving inside its 3s lookback.
var ingestBurstRule = obs.AlertRule{
	Name: "ingest-burst", Metric: "tuner_statements_ingested",
	Kind: obs.AlertKindRate, Op: ">", Value: 0,
	Over: obs.AlertDuration(3 * time.Second), For: obs.AlertDuration(time.Second),
	Severity: obs.SeverityInfo, Summary: "statements arriving",
}

// bootWithLogs starts a service persisting its alert transitions at
// alertPath (and its sessions at historyPath, when set). The worker
// never ticks: the test drives the sampler and the engine by hand, and
// the rings hold every sample it takes.
func bootWithLogs(t *testing.T, historyPath, alertPath string) *Service {
	t.Helper()
	opts := Options{Monitor: MonitorOptions{
		HistoryInterval: time.Hour,
		HistoryWindow:   100 * time.Hour,
		Rules:           []obs.AlertRule{ingestBurstRule},
		AlertLogPath:    alertPath,
	}}
	if historyPath != "" {
		rec, err := obs.NewRecorder(historyPath, 0)
		if err != nil {
			t.Fatal(err)
		}
		opts.Recorder = rec
	}
	return newTestService(t, opts)
}

// TestAlertsPayloadAcrossRestart pins GET /alerts byte for byte over a
// scripted fire → resolve → restart sequence, from the empty
// "recent_transitions": [] of a fresh daemon to the transitions a
// restarted one reloads from its alert log.
func TestAlertsPayloadAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alerts.jsonl")
	svc := bootWithLogs(t, "", path)
	h := NewHandler(svc)
	checkGolden(t, "alerts_boot.golden.json", serveGET(t, h, "/alerts"))

	tick := func(sec int) {
		now := monT0.Add(time.Duration(sec) * time.Second)
		svc.History().Sample(now)
		svc.Alerts().Evaluate(now)
	}
	tick(0)
	svc.Ingest(phase1[:1])
	tick(1) // pending
	svc.Ingest(phase1[:1])
	tick(2) // firing
	checkGolden(t, "alerts_firing.golden.json", serveGET(t, h, "/alerts"))
	for sec := 3; sec <= 7; sec++ {
		tick(sec) // the lookback drains at 5s, the rule resolves at 6s
	}
	checkGolden(t, "alerts_resolved.golden.json", serveGET(t, h, "/alerts"))
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc = bootWithLogs(t, "", path)
	checkGolden(t, "alerts_restart.golden.json", serveGET(t, NewHandler(svc), "/alerts"))
}

// TestLogsFromEarlierBuildLoad boots over a session history and an alert
// log that a daemon wrote before both shared one store, and pins what
// /sessions and /alerts serve from them.
func TestLogsFromEarlierBuildLoad(t *testing.T) {
	dir := t.TempDir()
	for src, dst := range map[string]string{
		"history_pre_store.jsonl": "sessions.jsonl",
		"alerts_pre_store.jsonl":  "alerts.jsonl",
	} {
		data, err := os.ReadFile(filepath.Join("..", "obs", "testdata", src))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, dst), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	svc := bootWithLogs(t, filepath.Join(dir, "sessions.jsonl"), filepath.Join(dir, "alerts.jsonl"))
	h := NewHandler(svc)
	checkGolden(t, "sessions_pre_store.golden.json", serveGET(t, h, "/sessions"))
	checkGolden(t, "alerts_pre_store.golden.json", serveGET(t, h, "/alerts"))
}
