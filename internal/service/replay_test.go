package service

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/replay"
)

// tpchSource builds the sampled-scale replay substrate the way cmd
// wiring does, counting builds to prove laziness and caching.
func tpchSource(builds *int) *replay.Source {
	return &replay.Source{Build: func() (*catalog.Database, *exec.Store, error) {
		*builds++
		db, store := datagen.TPCHData(0.001)
		return db, store, nil
	}}
}

func TestCalibrationEndpointAndGroundTruth(t *testing.T) {
	builds := 0
	svc := newTestService(t, Options{
		DB:     datagen.TPCH(0.001),
		Replay: tpchSource(&builds),
	})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	// Before the first retune: 503.
	if code := getJSON(t, srv.URL+"/calibration", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("/calibration before retune: %d", code)
	}

	svc.Ingest(repeat(phase1, 5))
	if _, err := svc.Retune(); err != nil {
		t.Fatal(err)
	}
	if builds != 0 {
		t.Fatalf("substrate built without a replay request (%d builds)", builds)
	}

	// Plain calibration: no ground block.
	var cal obs.CalibrationReport
	if code := getJSON(t, srv.URL+"/calibration", &cal); code != http.StatusOK {
		t.Fatalf("/calibration: %d", code)
	}
	if cal.Ground != nil {
		t.Fatal("ground block present before any replay")
	}

	// Ground-truth trigger: builds the substrate once, replays, attaches.
	if code := getJSON(t, srv.URL+"/calibration?ground_truth=1", &cal); code != http.StatusOK {
		t.Fatalf("/calibration?ground_truth=1: %d", code)
	}
	if cal.Ground == nil {
		t.Fatal("ground block missing after replay")
	}
	if cal.Ground.SpeedupMeasured <= 0 {
		t.Errorf("measured speedup %g", cal.Ground.SpeedupMeasured)
	}
	if builds != 1 {
		t.Fatalf("substrate builds: %d, want 1", builds)
	}

	// The replay also lands on the session record (summary + full view).
	var sessions sessionsResponse
	getJSON(t, srv.URL+"/sessions", &sessions)
	if n := len(sessions.Sessions); n != 1 {
		t.Fatalf("sessions: %d", n)
	}
	sum := sessions.Sessions[0]
	if sum.MeasuredSpeedup <= 0 {
		t.Errorf("summary measured speedup %g", sum.MeasuredSpeedup)
	}
	var rec obs.SessionRecord
	getJSON(t, srv.URL+"/sessions/"+sum.ID, &rec)
	if rec.GroundTruth == nil || rec.GroundTruth.Baseline() == nil {
		t.Fatal("session record missing ground truth")
	}

	// A second trigger reuses the cached substrate.
	getJSON(t, srv.URL+"/calibration?ground_truth=1", &cal)
	if builds != 1 {
		t.Fatalf("substrate rebuilt: %d builds", builds)
	}

	// Replay metrics reached both metric surfaces.
	var snap MetricsSnapshot
	getJSON(t, srv.URL+"/metrics", &snap)
	if snap.GroundTruthReplays != 2 {
		t.Errorf("ground_truth_replays = %d, want 2", snap.GroundTruthReplays)
	}
	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, series := range []string{
		"tuner_replay_duration_seconds", "tuner_replay_speedup_ratio",
		"tuner_costmodel_rank_correlation", "tuner_replay_rows_scanned_total",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("prometheus exposition missing %s", series)
		}
	}

	// Bad parameter.
	if code := getJSON(t, srv.URL+"/calibration?ground_truth=maybe", nil); code != http.StatusBadRequest {
		t.Errorf("invalid ground_truth: %d", code)
	}
}

func TestCalibrationGroundTruthUnconfigured(t *testing.T) {
	svc := newTestService(t, Options{})
	svc.Ingest(phase1)
	if _, err := svc.Retune(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Calibration(true); err != ErrReplayUnavailable {
		t.Fatalf("err = %v, want ErrReplayUnavailable", err)
	}
	// Plain calibration still works.
	cal, err := svc.Calibration(false)
	if err != nil || cal == nil {
		t.Fatalf("calibration: %v, %v", cal, err)
	}
}

func TestReplayEachRetune(t *testing.T) {
	builds := 0
	svc := newTestService(t, Options{
		DB:               datagen.TPCH(0.001),
		Replay:           tpchSource(&builds),
		ReplayEachRetune: true,
	})
	svc.Ingest(repeat(phase1, 5))
	if _, err := svc.Retune(); err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("substrate builds: %d", builds)
	}
	recs := svc.recorder.Sessions()
	if len(recs) != 1 || recs[0].GroundTruth == nil {
		t.Fatal("retune hook did not attach ground truth to the session record")
	}
	cal, err := svc.Calibration(false)
	if err != nil || cal == nil || cal.Ground == nil {
		t.Fatalf("calibration missing ground block: %+v, %v", cal, err)
	}
	// Diff between two replayed sessions carries measured deltas.
	svc.Ingest(repeat(phase2, 5))
	if _, err := svc.Retune(); err != nil {
		t.Fatal(err)
	}
	diff, err := svc.DiffSessions("", "")
	if err != nil {
		t.Fatal(err)
	}
	if diff.FromMeasuredSpeedup <= 0 || diff.ToMeasuredSpeedup <= 0 {
		t.Errorf("diff measured speedups: %g -> %g", diff.FromMeasuredSpeedup, diff.ToMeasuredSpeedup)
	}
}

// TestDisabledReplayHookAllocatesNothing pins the acceptance criterion
// that replay is pay-for-use: the per-retune hook must not allocate (or
// do anything) when replay is not configured.
func TestDisabledReplayHookAllocatesNothing(t *testing.T) {
	svc := newTestService(t, Options{})
	if allocs := testing.AllocsPerRun(100, func() {
		svc.groundTruthHook(nil, nil, nil)
	}); allocs != 0 {
		t.Errorf("disabled replay hook allocates %.1f per retune", allocs)
	}
}
