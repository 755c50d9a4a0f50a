package service

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workloads"
)

// TestWorkloadReportAttribution: after a retune, the workload report must
// group the window by signature with weight shares summing to one, cost
// shares summing to one, and at least one signature carrying demanded
// structures from the winning configuration.
func TestWorkloadReportAttribution(t *testing.T) {
	s := newTestService(t, Options{})
	s.Ingest(repeat(phase1, 4))
	if _, err := s.Retune(); err != nil {
		t.Fatalf("retune: %v", err)
	}

	rep := s.WorkloadReport()
	if rep.Statements != len(phase1) || rep.Observations != 4*len(phase1) {
		t.Fatalf("window summary: %d stmts / %d obs, want %d / %d",
			rep.Statements, rep.Observations, len(phase1), 4*len(phase1))
	}
	if rep.Selects != 4*len(phase1) || rep.Updates != 0 {
		t.Errorf("per-kind counts: %d select / %d update", rep.Selects, rep.Updates)
	}
	if len(rep.Signatures) == 0 {
		t.Fatal("no signature groups")
	}
	var weightSum, costSum float64
	withStructures := 0
	for _, g := range rep.Signatures {
		weightSum += g.WeightShare
		costSum += g.CostShare
		if len(g.Structures) > 0 {
			withStructures++
		}
		if g.Signature == "" || g.ExampleSQL == "" {
			t.Errorf("group missing signature/example: %+v", g)
		}
	}
	if math.Abs(weightSum-1) > 1e-9 {
		t.Errorf("weight shares sum to %.6f, want 1", weightSum)
	}
	if math.Abs(costSum-1) > 1e-9 {
		t.Errorf("cost shares sum to %.6f, want 1", costSum)
	}
	if withStructures == 0 {
		t.Error("no signature carries demanded structures")
	}
	if rep.TunedSession == "" {
		t.Error("report not joined against a tuned session")
	}
	if rep.SketchSignatures == 0 || rep.TopKWeightShare < 0.99 {
		t.Errorf("sketch state: %d signatures, %.3f coverage",
			rep.SketchSignatures, rep.TopKWeightShare)
	}

	var text strings.Builder
	rep.WriteText(&text)
	for _, want := range []string{"weight%", "cost%", "signature", "e.g.", "demands"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}
}

// TestWorkloadEndpoint: GET /workload serves the report as JSON and as
// text, tenant-agnostic via the plain handler.
func TestWorkloadEndpoint(t *testing.T) {
	s := newTestService(t, Options{})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	s.Ingest(repeat(phase1, 2))
	if _, err := s.Retune(); err != nil {
		t.Fatalf("retune: %v", err)
	}

	var rep WorkloadReport
	if code := getJSON(t, srv.URL+"/workload", &rep); code != http.StatusOK {
		t.Fatalf("GET /workload: status %d", code)
	}
	if len(rep.Signatures) == 0 || rep.Statements != len(phase1) {
		t.Fatalf("workload payload: %+v", rep)
	}

	resp, err := http.Get(srv.URL + "/workload?format=text")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text format content type %q", ct)
	}
}

// TestDriftMoversExplainDistance: when the workload shifts shape, the
// drift report's movers must name the signatures that moved and account
// for at least 80% of the shape distance, each mover's distance share
// consistent with its delta.
func TestDriftMoversExplainDistance(t *testing.T) {
	s := newTestService(t, Options{Drift: DriftOptions{MinStatements: 3, ShapeThreshold: 0.3}})
	s.Ingest(repeat(phase1, 3))
	if _, err := s.Retune(); err != nil {
		t.Fatalf("retune: %v", err)
	}
	s.Ingest(repeat(phase2, 12))

	rep := s.CheckDrift()
	if !rep.Drifted {
		t.Fatalf("expected drift: %+v", rep)
	}
	if len(rep.Movers) == 0 {
		t.Fatal("drift report has no movers")
	}
	if rep.MoverShare < 0.8 {
		t.Errorf("movers explain %.1f%% of shape distance, want >= 80%%", 100*rep.MoverShare)
	}
	var shareSum float64
	sawUp, sawDown := false, false
	for i, m := range rep.Movers {
		shareSum += m.DistanceShare
		switch m.Direction {
		case "up":
			sawUp = true
			if m.Delta <= 0 {
				t.Errorf("mover %d: direction up with delta %.3f", i, m.Delta)
			}
		case "down":
			sawDown = true
			if m.Delta >= 0 {
				t.Errorf("mover %d: direction down with delta %.3f", i, m.Delta)
			}
		case "churn":
		default:
			t.Errorf("mover %d: unknown direction %q", i, m.Direction)
		}
		if i > 0 && m.DistanceShare > rep.Movers[i-1].DistanceShare+1e-9 {
			t.Errorf("movers not sorted by distance share at %d", i)
		}
	}
	if !sawUp || !sawDown {
		t.Errorf("phase swap should produce both directions (up=%v down=%v)", sawUp, sawDown)
	}
	if math.Abs(shareSum-rep.MoverShare) > 1e-9 {
		t.Errorf("distance shares sum %.6f != mover share %.6f", shareSum, rep.MoverShare)
	}
	if m := s.MetricsSnapshot(); m.DriftMoverShare < 0.8 {
		t.Errorf("metrics mover share %.3f", m.DriftMoverShare)
	}
}

// TestDriftOriginLabels: HTTP drift checks and scheduler-driven checks
// must count under separate origins, so /drift polling cannot inflate
// the auto-retune counters; the JSON totals stay the sum of both.
func TestDriftOriginLabels(t *testing.T) {
	s := newTestService(t, Options{
		DriftCheckEvery: 4,
		Drift:           DriftOptions{MinStatements: 3},
	})
	s.Ingest(repeat(phase1, 2)) // 6 observations cross the 4-statement boundary once
	for i := 0; i < 3; i++ {
		s.CheckDrift() // what GET /drift does
	}
	m := s.MetricsSnapshot()
	if m.DriftChecksHTTP != 3 {
		t.Errorf("http drift checks %d, want 3", m.DriftChecksHTTP)
	}
	if m.DriftChecksScheduler != 1 {
		t.Errorf("scheduler drift checks %d, want 1", m.DriftChecksScheduler)
	}
	if m.DriftChecks != m.DriftChecksHTTP+m.DriftChecksScheduler {
		t.Errorf("total %d != http %d + scheduler %d", m.DriftChecks, m.DriftChecksHTTP, m.DriftChecksScheduler)
	}
	if m.DriftEvents != m.DriftEventsHTTP+m.DriftEventsScheduler {
		t.Errorf("event total %d != http %d + scheduler %d", m.DriftEvents, m.DriftEventsHTTP, m.DriftEventsScheduler)
	}
}

// TestAutoRetuneSessionRecordsDrift: a drift-triggered retune must record
// why it fired — the session record carries the drift digest, and once a
// baseline exists the digest names the moving signatures.
func TestAutoRetuneSessionRecordsDrift(t *testing.T) {
	s := newTestService(t, Options{
		AutoRetune:      true,
		DriftCheckEvery: 6,
		Drift:           DriftOptions{MinStatements: 6, ShapeThreshold: 0.3},
	})
	s.Ingest(repeat(phase1, 2)) // never-tuned drift → first auto retune
	waitSessions(t, s, 1)
	first := s.recorder.Sessions()[0]
	if first.Trigger != "auto" {
		t.Fatalf("first session trigger %q, want auto", first.Trigger)
	}
	if first.Drift == nil || first.Drift.Reason == "" {
		t.Fatalf("auto session missing drift digest: %+v", first.Drift)
	}

	s.Ingest(repeat(phase2, 12)) // shape drift against the baseline → second auto retune
	waitSessions(t, s, 2)
	recs := s.recorder.Sessions()
	second := recs[len(recs)-1]
	if second.Trigger != "auto" {
		t.Fatalf("second session trigger %q, want auto", second.Trigger)
	}
	if second.Drift == nil {
		t.Fatal("second auto session missing drift digest")
	}
	if len(second.Drift.Movers) == 0 {
		t.Fatal("drift digest has no movers despite a baseline")
	}
	if second.Drift.MoverShare < 0.8 {
		t.Errorf("recorded movers explain %.1f%%, want >= 80%%", 100*second.Drift.MoverShare)
	}

	// A manual retune must not inherit the stale drift report.
	s.Ingest(phase1)
	if _, err := s.Retune(); err != nil {
		t.Fatalf("manual retune: %v", err)
	}
	recs = s.recorder.Sessions()
	manual := recs[len(recs)-1]
	if manual.Trigger != "manual" || manual.Drift != nil {
		t.Errorf("manual session: trigger %q drift %+v", manual.Trigger, manual.Drift)
	}

	// The digest must survive into summaries and diffs.
	sums := s.Sessions()
	if sums[1].DriftReason == "" || sums[1].DriftMovers == 0 {
		t.Errorf("summary lost drift fields: %+v", sums[1])
	}
	diff, err := s.DiffSessions(recs[0].ID, recs[1].ID)
	if err != nil {
		t.Fatalf("diff: %v", err)
	}
	if diff.ToDrift == nil || len(diff.ToDrift.Movers) == 0 {
		t.Errorf("diff lost drift digest: %+v", diff.ToDrift)
	}
}

// TestServiceExpositionLints: the full /metrics Prometheus surface —
// after ingest, retune, and drift activity — must pass the exposition
// lint, single-tenant and merged alike.
func TestServiceExpositionLints(t *testing.T) {
	s := newTestService(t, Options{Drift: DriftOptions{MinStatements: 3}})
	srv := httptest.NewServer(NewHandler(s))
	defer srv.Close()

	s.Ingest(repeat(phase1, 3))
	if _, err := s.Retune(); err != nil {
		t.Fatalf("retune: %v", err)
	}
	s.Ingest(repeat(phase2, 6))
	s.CheckDrift()

	resp, err := http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if probs := obs.LintExposition(resp.Body); len(probs) != 0 {
		t.Fatalf("/metrics exposition: %v", probs)
	}

	// The same registry must lint clean under fleet-style merging.
	snap := s.MetricsSnapshot()
	s.promGauges.update(snap)
	var merged strings.Builder
	obs.RenderMerged(&merged, "tenant", []obs.LabeledRegistry{
		{Value: "t1", Registry: s.promReg},
	})
	if probs := obs.LintExposition(strings.NewReader(merged.String())); len(probs) != 0 {
		t.Fatalf("merged exposition: %v", probs)
	}
	for _, series := range []string{
		"tuner_workload_signatures",
		"tuner_workload_topk_weight_share",
		"tuner_workload_sketch_evictions",
		"tuner_drift_mover_share",
		`tuner_drift_checks_origin{tenant="t1",origin="http"}`,
		`tuner_window_statements{tenant="t1",kind="select"}`,
	} {
		if !strings.Contains(merged.String(), series) {
			t.Errorf("merged exposition missing %s", series)
		}
	}
}

func waitSessions(t *testing.T, s *Service, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for s.recorder.Len() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d sessions (have %d)", n, s.recorder.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReadersIgnoreCachedSignatures: /workload's attribution and /drift's
// fingerprint and movers are the same bytes whether each query carries
// the window's cached signature or leaves it to SignatureOf.
func TestReadersIgnoreCachedSignatures(t *testing.T) {
	s := newTestService(t, Options{Drift: DriftOptions{MinStatements: 3, ShapeThreshold: 0.3}})
	s.Ingest(repeat(phase1, 3))
	if _, err := s.Retune(); err != nil {
		t.Fatalf("retune: %v", err)
	}
	s.Ingest(repeat(phase2, 12))

	s.mu.Lock()
	tuned, res, explain := s.lastSnap, s.lastResult, s.explain
	s.mu.Unlock()
	live := s.window.Snapshot()
	for _, w := range []*workloads.Workload{tuned, live} {
		for _, q := range w.Queries {
			if q.Sig == "" {
				t.Fatalf("%s: window snapshot query %s carries no signature", w.Name, q.ID)
			}
		}
	}
	bare := func(w *workloads.Workload) *workloads.Workload {
		out := &workloads.Workload{Name: w.Name, Database: w.Database}
		for _, q := range w.Queries {
			c := *q
			c.Sig = ""
			out.Queries = append(out.Queries, &c)
		}
		return out
	}
	same := func(what string, cached, computed any) {
		t.Helper()
		a, err := json.Marshal(cached)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(computed)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%s differs with cached signatures:\n cached   %s\n computed %s", what, a, b)
		}
	}

	costs := make([]float64, len(tuned.Queries))
	for i := range costs {
		costs[i] = res.Best.Results[i].TotalCost()
	}
	demanded := demandedStructures(explain, res)
	same("live attribution", workloads.AttributeSignatures(live, nil, nil), workloads.AttributeSignatures(bare(live), nil, nil))
	same("tuned attribution", workloads.AttributeSignatures(tuned, costs, demanded), workloads.AttributeSignatures(bare(tuned), costs, demanded))

	base, cur := fingerprintOf(tuned), fingerprintOf(live)
	bareBase, bareCur := fingerprintOf(bare(tuned)), fingerprintOf(bare(live))
	same("baseline fingerprint", base.Sigs, bareBase.Sigs)
	same("current fingerprint", cur.Sigs, bareCur.Sigs)
	rep := assess(s.opts.Drift, &base, cur, int64(len(live.Queries)))
	if len(rep.Movers) == 0 {
		t.Fatal("no movers to compare")
	}
	same("drift report", rep, assess(s.opts.Drift, &bareBase, bareCur, int64(len(live.Queries))))
}
