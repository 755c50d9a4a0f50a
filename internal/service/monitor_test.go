package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// getBody fetches a URL and returns status, content type, and body.
func getBody(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

var monT0 = time.Date(2026, 3, 4, 5, 6, 7, 0, time.UTC)

// TestMonitorHTTPEndToEnd drives the whole self-monitoring surface over
// HTTP: /readyz flips 503→200 around the first retune, /alerts serves
// the default ruleset, /metrics/history serves sampled series, and the
// health payload carries the shared shape.
func TestMonitorHTTPEndToEnd(t *testing.T) {
	// A huge interval keeps the background worker quiet; the test drives
	// Sample/Evaluate itself so every assertion is deterministic.
	svc := newTestService(t, Options{Monitor: MonitorOptions{HistoryInterval: time.Hour}})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	// Not ready before the first retune: 503 with a Retry-After hint.
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatalf("decode readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("readyz before retune: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if ready.Ready || len(ready.Reasons) == 0 || !strings.Contains(ready.Reasons[0], "no completed retune") {
		t.Fatalf("readyz payload: %+v", ready)
	}
	if code, _, body := getBody(t, srv.URL+"/readyz?format=text"); code != http.StatusServiceUnavailable || !strings.Contains(body, "not ready") {
		t.Fatalf("readyz text: status %d body %q", code, body)
	}

	// The shared health shape: single-tenant mode, no tenants key.
	if code, _, body := getBody(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	} else {
		var raw map[string]any
		if err := json.Unmarshal([]byte(body), &raw); err != nil {
			t.Fatal(err)
		}
		if raw["mode"] != "single-tenant" || raw["ready"] != false {
			t.Fatalf("healthz: %v", raw)
		}
		if _, has := raw["tenants"]; has {
			t.Fatalf("single-tenant healthz must omit tenants: %v", raw)
		}
		if _, has := raw["alerts_firing"]; !has {
			t.Fatalf("healthz missing alerts_firing: %v", raw)
		}
	}

	// The default ruleset is live even before any sample exists.
	var alerts obs.AlertStatus
	if code := getJSON(t, srv.URL+"/alerts", &alerts); code != http.StatusOK {
		t.Fatalf("alerts: status %d", code)
	}
	if len(alerts.Rules) != len(obs.DefaultAlertRules()) || alerts.Firing != 0 {
		t.Fatalf("alerts: %d rules, %d firing", len(alerts.Rules), alerts.Firing)
	}

	// Ingest, retune, sample: readiness flips and history fills.
	svc.Ingest(repeat(phase1, 3))
	if _, err := svc.Retune(); err != nil {
		t.Fatalf("retune: %v", err)
	}
	for i := 0; i < 3; i++ {
		now := monT0.Add(time.Duration(i) * time.Second)
		svc.History().Sample(now)
		svc.Alerts().Evaluate(now)
	}

	if code := getJSON(t, srv.URL+"/readyz", &ready); code != http.StatusOK || !ready.Ready {
		t.Fatalf("readyz after retune: status %d, %+v", code, ready)
	}
	var health HealthStatus
	if code := getJSON(t, srv.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if !health.Ready || !health.HasRec || health.Sessions < 1 || health.AlertsFiring != 0 {
		t.Fatalf("healthz after retune: %+v", health)
	}

	// History honors series scoping and downsampling.
	var snap obs.HistorySnapshot
	if code := getJSON(t, srv.URL+"/metrics/history?series=tuner_retunes&points=2", &snap); code != http.StatusOK {
		t.Fatalf("history: status %d", code)
	}
	if snap.Rounds != 3 || len(snap.Series) != 1 || snap.Series[0].Name != "tuner_retunes" {
		t.Fatalf("history snapshot: rounds %d, series %+v", snap.Rounds, snap.Series)
	}
	if n := len(snap.Series[0].Points); n != 2 {
		t.Fatalf("downsample: %d points, want 2", n)
	}
	if code, _, _ := getBody(t, srv.URL+"/metrics/history?since=bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad since: status %d, want 400", code)
	}

	// Alerts text rendering includes the evaluated-rules banner.
	if code, ctype, body := getBody(t, srv.URL+"/alerts?format=text"); code != http.StatusOK ||
		!strings.Contains(ctype, "text/plain") || !strings.Contains(body, "alerts: 0 firing") {
		t.Fatalf("alerts text: status %d ctype %q body %q", code, ctype, body)
	}

	// The ?format=text sweep: every report endpoint has a plain form.
	for path, want := range map[string]string{
		"/recommendation": "CREATE ",
		"/drift":          "drift:",
		"/explain":        "",
		"/sessions":       "TRIGGER",
	} {
		code, ctype, body := getBody(t, srv.URL+path+"?format=text")
		if code != http.StatusOK || !strings.Contains(ctype, "text/plain") {
			t.Fatalf("%s?format=text: status %d ctype %q", path, code, ctype)
		}
		if want != "" && !strings.Contains(body, want) {
			t.Fatalf("%s?format=text body %q missing %q", path, body, want)
		}
	}

	// The engine's meta-series reach the exposition and lint clean.
	var buf bytes.Buffer
	svc.RefreshPromGauges()
	svc.PromRegistry().Render(&buf)
	if !strings.Contains(buf.String(), "tuner_alerts_firing") {
		t.Fatalf("exposition missing tuner_alerts_firing:\n%s", buf.String())
	}
	if problems := obs.LintExposition(bytes.NewReader(buf.Bytes())); len(problems) != 0 {
		t.Fatalf("exposition lint: %v", problems)
	}
}

// TestMonitorDisabledSurface: without -history-interval the monitor
// endpoints answer 409 with a hint, readiness still works, and the
// nil-safe accessors cost zero allocations.
func TestMonitorDisabledSurface(t *testing.T) {
	svc := newTestService(t, Options{})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	for _, path := range []string{"/alerts", "/metrics/history"} {
		code, _, body := getBody(t, srv.URL+path)
		if code != http.StatusConflict || !strings.Contains(body, "-history-interval") {
			t.Fatalf("%s disabled: status %d body %q", path, code, body)
		}
	}
	if code := getJSON(t, srv.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz: status %d", code)
	}
	svc.Ingest(phase1)
	if _, err := svc.Retune(); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, srv.URL+"/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz after retune: status %d", code)
	}
	if h := svc.Health(); h.AlertsFiring != 0 || !h.Ready {
		t.Fatalf("health: %+v", h)
	}

	// The disabled path must stay free: nil sampler/engine accessors and
	// their no-op methods allocate nothing.
	allocs := testing.AllocsPerRun(200, func() {
		svc.History().Sample(monT0)
		svc.History().Rounds()
		svc.Alerts().Evaluate(monT0)
		svc.Alerts().Rules()
	})
	if allocs != 0 {
		t.Fatalf("disabled monitor path allocates: %v allocs/op", allocs)
	}
}

// TestMonitorDeterminismAcrossParallelism: the tuner's Parallelism knob
// must not leak into alert evaluation — the same workload and the same
// sample instants produce the same rule states at 1 and at 4 workers.
func TestMonitorDeterminismAcrossParallelism(t *testing.T) {
	states := make([]map[string]string, 0, 2)
	for _, par := range []int{1, 4} {
		tuning := testTuning()
		tuning.Parallelism = par
		svc := newTestService(t, Options{
			Tuning:  tuning,
			Monitor: MonitorOptions{HistoryInterval: time.Hour},
		})
		svc.Ingest(repeat(phase1, 3))
		if _, err := svc.Retune(); err != nil {
			t.Fatalf("retune par=%d: %v", par, err)
		}
		for i := 0; i < 5; i++ {
			now := monT0.Add(time.Duration(i) * time.Second)
			svc.History().Sample(now)
			svc.Alerts().Evaluate(now)
		}
		st := svc.Alerts().Status()
		byRule := make(map[string]string, len(st.Rules))
		for _, r := range st.Rules {
			byRule[r.Rule.Name] = r.State
		}
		states = append(states, byRule)
	}
	for name, state := range states[0] {
		if states[1][name] != state {
			t.Fatalf("rule %s: state %q at par=1 vs %q at par=4", name, state, states[1][name])
		}
	}
}

// TestMonitorRuleFiresOverHTTP wires a synthetic always-true rule and
// watches it fire, reach the health payload and the exposition, and
// resolve after the metric goes quiet — the endpoint-smoke scenario in
// miniature.
func TestMonitorRuleFiresOverHTTP(t *testing.T) {
	rule := obs.AlertRule{
		Name:     "retunes-seen",
		Metric:   "tuner_retunes",
		Kind:     obs.AlertKindThreshold,
		Op:       ">=",
		Value:    1,
		Severity: obs.SeverityInfo,
		Summary:  "at least one retune completed",
	}
	svc := newTestService(t, Options{Monitor: MonitorOptions{
		HistoryInterval: time.Hour,
		Rules:           []obs.AlertRule{rule},
	}})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	svc.Ingest(phase1)
	if _, err := svc.Retune(); err != nil {
		t.Fatal(err)
	}
	svc.History().Sample(monT0)
	svc.Alerts().Evaluate(monT0)

	var alerts obs.AlertStatus
	if code := getJSON(t, srv.URL+"/alerts", &alerts); code != http.StatusOK {
		t.Fatalf("alerts: status %d", code)
	}
	if alerts.Firing != 1 || len(alerts.Rules) != 1 || alerts.Rules[0].State != obs.AlertStateFiring {
		t.Fatalf("alerts after retune: %+v", alerts)
	}
	var health HealthStatus
	getJSON(t, srv.URL+"/healthz", &health)
	if health.AlertsFiring != 1 {
		t.Fatalf("health.alerts_firing = %d, want 1", health.AlertsFiring)
	}
	var buf bytes.Buffer
	svc.PromRegistry().Render(&buf)
	if !strings.Contains(buf.String(), `tuner_alerts_firing{rule="retunes-seen",severity="info"} 1`) {
		t.Fatalf("exposition missing firing meta-series:\n%s", buf.String())
	}
	if len(alerts.Transitions) != 1 || alerts.Transitions[0].To != obs.AlertStateFiring {
		t.Fatalf("transitions: %+v", alerts.Transitions)
	}
}

// TestDefaultRulesQuietOnHealthyDaemon: the built-in ruleset must stay
// silent on a daemon that does nothing unusual. Three statements, a
// retune every ten synthetic seconds for five minutes, the budget cycling
// from unconstrained to below the base configuration's size (1.32 MB) so
// that some sessions relax all the way down to it, the sampler and the
// engine ticked by hand every five seconds: nothing may be pending or
// firing at the end, and nothing may have transitioned on the way.
func TestDefaultRulesQuietOnHealthyDaemon(t *testing.T) {
	svc := newTestService(t, Options{
		Tuning: core.Options{MaxIterations: 120},
		// The worker never ticks, and the rings (window/interval + 1 slots)
		// hold every sample the loop below takes.
		Monitor: MonitorOptions{HistoryInterval: time.Hour, HistoryWindow: 100 * time.Hour},
	})
	svc.Ingest([]string{
		`SELECT s_name, s_acctbal FROM supplier WHERE s_acctbal > 5000`,
		`SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderdate >= 9131 AND o_orderdate < 9200`,
		`SELECT l_orderkey, l_quantity FROM lineitem WHERE l_shipdate > 10400`,
	})
	budgetsMB := []float64{0, 1.57, 1.48, 1.40, 1.35, 1.3}
	relaxed, downToBase := 0, 0
	for sec := 0; sec <= 300; sec += 5 {
		if sec%10 == 0 {
			rec, err := svc.RetuneSession("manual", int64(budgetsMB[sec/10%len(budgetsMB)]*(1<<20)), true)
			if err != nil {
				t.Fatalf("retune at %ds: %v", sec, err)
			}
			if rec.Iterations > 0 {
				relaxed++
			}
			if rec.Cost == rec.InitialCost {
				downToBase++
			}
		}
		now := monT0.Add(time.Duration(sec) * time.Second)
		svc.History().Sample(now)
		svc.Alerts().Evaluate(now)
	}
	if relaxed == 0 || downToBase == 0 {
		t.Fatalf("%d sessions relaxed, %d down to the base configuration: the budgets exercise nothing", relaxed, downToBase)
	}
	st := svc.Alerts().Status()
	if len(st.Rules) != len(obs.DefaultAlertRules()) {
		t.Fatalf("%d rules evaluated, the default ruleset has %d", len(st.Rules), len(obs.DefaultAlertRules()))
	}
	if st.Firing != 0 || st.Pending != 0 || len(st.Transitions) != 0 {
		for _, r := range st.Rules {
			if r.State != obs.AlertStateInactive {
				t.Errorf("rule %s is %s", r.Rule.Name, r.State)
			}
		}
		t.Errorf("healthy daemon: %d firing, %d pending, transitions %+v", st.Firing, st.Pending, st.Transitions)
	}
}
