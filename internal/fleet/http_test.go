package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workloads"
)

func newTestServer(t *testing.T, opts Options) (*Registry, *httptest.Server) {
	t.Helper()
	r := newTestRegistry(t, opts)
	srv := httptest.NewServer(NewHandler(r))
	t.Cleanup(srv.Close)
	return r, srv
}

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, data
}

// TestFleetHTTPLifecycle walks the fleet API end to end: register,
// ingest, pooled retune, tenant-scoped reads, status, and removal.
func TestFleetHTTPLifecycle(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 2})

	resp, body := doJSON(t, "POST", srv.URL+"/tenants", TenantSpec{ID: "alpha", Database: "tpch"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /tenants = %d: %s", resp.StatusCode, body)
	}
	if resp, body = doJSON(t, "POST", srv.URL+"/tenants", TenantSpec{ID: "alpha", Database: "tpch"}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate POST /tenants = %d: %s", resp.StatusCode, body)
	}
	if resp, body = doJSON(t, "POST", srv.URL+"/tenants", TenantSpec{ID: "UPPER", Database: "tpch"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid-ID POST /tenants = %d: %s", resp.StatusCode, body)
	}

	resp, body = doJSON(t, "POST", srv.URL+"/tenants/alpha/ingest",
		map[string][]string{"statements": sharedShapes})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d: %s", resp.StatusCode, body)
	}
	var ing struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(body, &ing); err != nil || ing.Accepted != len(sharedShapes) {
		t.Fatalf("ingest accepted %d (%v): %s", ing.Accepted, err, body)
	}

	if resp, body = doJSON(t, "GET", srv.URL+"/tenants/alpha/recommendation", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("recommendation before retune = %d: %s", resp.StatusCode, body)
	}

	resp, body = doJSON(t, "POST", srv.URL+"/tenants/alpha/retune", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retune = %d: %s", resp.StatusCode, body)
	}
	var ret struct {
		Recommendation struct {
			DDL string `json:"ddl"`
		} `json:"recommendation"`
	}
	if err := json.Unmarshal(body, &ret); err != nil || ret.Recommendation.DDL == "" {
		t.Fatalf("retune response (%v): %s", err, body)
	}

	resp, body = doJSON(t, "GET", srv.URL+"/tenants/alpha/sessions", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"alpha-s-000001"`) {
		t.Fatalf("sessions = %d: %s", resp.StatusCode, body)
	}
	if resp, body = doJSON(t, "GET", srv.URL+"/tenants/alpha/sessions/alpha-s-000001", nil); resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(body), `"tenant":"alpha"`) {
		t.Fatalf("session fetch = %d: %s", resp.StatusCode, body)
	}

	resp, body = doJSON(t, "GET", srv.URL+"/fleet", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /fleet = %d", resp.StatusCode)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("fleet status: %v", err)
	}
	if len(st.Tenants) != 1 || st.Tenants[0].ID != "alpha" || st.Tenants[0].Retunes != 1 {
		t.Fatalf("fleet status %+v", st)
	}

	if resp, _ = doJSON(t, "GET", srv.URL+"/tenants/nosuch/recommendation", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant = %d, want 404", resp.StatusCode)
	}

	if resp, body = doJSON(t, "DELETE", srv.URL+"/tenants/alpha", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE = %d: %s", resp.StatusCode, body)
	}
	if resp, _ = doJSON(t, "GET", srv.URL+"/tenants/alpha/sessions", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("removed tenant = %d, want 404", resp.StatusCode)
	}
}

// TestFleetHTTPBodyLimit: every route that decodes a request body
// refuses one over service.MaxBodyBytes with 413 instead of reading it.
func TestFleetHTTPBodyLimit(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1})
	if resp, body := doJSON(t, "POST", srv.URL+"/tenants", TenantSpec{ID: "alpha", Database: "tpch"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /tenants = %d: %s", resp.StatusCode, body)
	}
	huge := `{"statements":["` + strings.Repeat("x", service.MaxBodyBytes) + `"]}`
	for _, path := range []string{"/tenants", "/tenants/alpha/ingest", "/tenants/alpha/retune"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized POST %s = %d, want 413", path, resp.StatusCode)
		}
	}
}

// TestRetuneBudgetRange posts budget_mb values to the single service's
// POST /retune, to a fleet tenant's and in a POST /tenants spec: one
// conversion decides all three. A negative budget and one no int64 of
// bytes holds are 400, since the tuner reads a budget of 0 or less as
// none; 0 is unconstrained and a fraction is honoured.
func TestRetuneBudgetRange(t *testing.T) {
	window := workloads.TPCH22SQL()
	_, fleetSrv := newTestServer(t, Options{Workers: 1})
	for _, mb := range []float64{-1, 1e300} {
		resp, body := doJSON(t, "POST", fleetSrv.URL+"/tenants", TenantSpec{ID: "bad", Database: "tpch", BudgetMB: mb})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "budget_mb") {
			t.Fatalf("POST /tenants with budget_mb %g = %d %s, want 400 naming budget_mb", mb, resp.StatusCode, body)
		}
	}
	if resp, body := doJSON(t, "POST", fleetSrv.URL+"/tenants", TenantSpec{ID: "alpha", Database: "tpch"}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /tenants = %d: %s", resp.StatusCode, body)
	}
	if resp, body := doJSON(t, "POST", fleetSrv.URL+"/tenants/alpha/ingest", service.IngestRequest{Statements: window}); resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant ingest = %d: %s", resp.StatusCode, body)
	}
	opts := testDefaults()
	opts.DB, _ = testCatalog("tpch", 0.001)
	svc, err := service.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	svc.Ingest(window)
	svcSrv := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(svcSrv.Close)

	for _, route := range []string{svcSrv.URL + "/retune", fleetSrv.URL + "/tenants/alpha/retune"} {
		for _, c := range []struct {
			body string
			want int
		}{
			{`{"budget_mb":-1}`, http.StatusBadRequest},
			{`{"budget_mb":1e300}`, http.StatusBadRequest},
			{`{"budget_mb":0}`, http.StatusOK},
			{`{"budget_mb":0.5}`, http.StatusOK},
		} {
			resp, err := http.Post(route, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Fatalf("POST %s %s = %d, want %d: %s", route, c.body, resp.StatusCode, c.want, data)
			}
			if c.want != http.StatusOK {
				if !strings.Contains(string(data), "budget_mb") {
					t.Errorf("POST %s %s: error %s does not name budget_mb", route, c.body, data)
				}
				continue
			}
			var out service.RetuneResponse
			if err := json.Unmarshal(data, &out); err != nil {
				t.Fatal(err)
			}
			// Unconstrained, the optimal configuration stands: nothing
			// is relaxed. Half a MB is below its size.
			rec := out.Recommendation
			if unconstrained := c.body == `{"budget_mb":0}`; unconstrained != (rec.Iterations == 0) {
				t.Errorf("POST %s %s: %d iterations to %d bytes", route, c.body, rec.Iterations, rec.SizeBytes)
			}
		}
	}
}

// TestFleetHTTPQuota: over-rate ingestion answers 429 with Retry-After
// and counts a rejection; the batch is rejected whole.
func TestFleetHTTPQuota(t *testing.T) {
	r, srv := newTestServer(t, Options{Workers: 1})
	if _, err := r.Add(TenantSpec{ID: "metered", Database: "tpch",
		Quota: QuotaSpec{RatePerSec: 1, Burst: len(sharedShapes)}}); err != nil {
		t.Fatalf("add: %v", err)
	}

	resp, body := doJSON(t, "POST", srv.URL+"/tenants/metered/ingest",
		map[string][]string{"statements": sharedShapes})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first ingest = %d: %s", resp.StatusCode, body)
	}
	resp, body = doJSON(t, "POST", srv.URL+"/tenants/metered/ingest",
		map[string][]string{"statements": sharedShapes})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota ingest = %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	snap := r.Get("metered").Service.MetricsSnapshot()
	if snap.StatementsIngested != int64(len(sharedShapes)) {
		t.Errorf("rejected batch partially ingested: %d statements", snap.StatementsIngested)
	}
	if got := r.Get("metered").quotaRejections(); got != 1 {
		t.Errorf("quota rejections = %d, want 1", got)
	}
	if st := r.Status(); st.Tenants[0].QuotaRejections != 1 {
		t.Errorf("status quota rejections = %d, want 1", st.Tenants[0].QuotaRejections)
	}
}

// TestFleetHTTPMetrics: the Prometheus exposition merges fleet counters
// with per-tenant series labeled tenant="<id>", each metric family
// declared exactly once.
func TestFleetHTTPMetrics(t *testing.T) {
	r, srv := newTestServer(t, Options{Workers: 2})
	for _, id := range []string{"m1", "m2"} {
		if _, err := r.Add(TenantSpec{ID: id, Database: "tpch"}); err != nil {
			t.Fatalf("add %s: %v", id, err)
		}
		r.Get(id).Service.Ingest(sharedShapes)
		retuneTenant(t, r, id)
	}

	resp, body := doJSON(t, "GET", srv.URL+"/metrics?format=prometheus", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"tuner_fleet_tenants 2",
		`tuner_fleet_retunes_total{tenant="m1"} 1`,
		`tuner_fleet_retunes_total{tenant="m2"} 1`,
		"tuner_fleet_cache_shared_hits_total",
		`tuner_retunes{tenant="m1"} 1`,
		`tuner_retunes{tenant="m2"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The second tenant reused the first's fragments.
	var shared float64
	if _, err := fmt.Sscanf(findLine(text, "tuner_fleet_cache_shared_hits_total "), "tuner_fleet_cache_shared_hits_total %f", &shared); err != nil {
		t.Fatalf("parsing shared-hits sample: %v", err)
	}
	if shared == 0 {
		t.Error("tuner_fleet_cache_shared_hits_total is 0 after overlapping retunes")
	}
	// Each family's HELP/TYPE header appears exactly once.
	for _, family := range []string{"tuner_retunes", "tuner_uptime_seconds", "tuner_fleet_tenants"} {
		if n := strings.Count(text, "# TYPE "+family+" "); n != 1 {
			t.Errorf("# TYPE %s appears %d times, want 1", family, n)
		}
	}

	// JSON mode returns per-tenant snapshots.
	resp, body = doJSON(t, "GET", srv.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json metrics = %d", resp.StatusCode)
	}
	var js fleetMetricsJSON
	if err := json.Unmarshal(body, &js); err != nil {
		t.Fatalf("json metrics: %v", err)
	}
	if len(js.Tenants) != 2 || js.Tenants["m2"].Retunes != 1 {
		t.Fatalf("json metrics tenants: %+v", js.Tenants)
	}
	if js.Fleet.FragmentCache.SharedHits == 0 {
		t.Error("json metrics shared hits = 0")
	}
}

// TestFleetWorkloadAndExpositionLint: the tenant passthrough must scope
// GET /workload, and the merged fleet exposition must lint clean and
// contain every sample a single-tenant labeled render would produce.
func TestFleetWorkloadAndExpositionLint(t *testing.T) {
	r, srv := newTestServer(t, Options{Workers: 2})
	for _, id := range []string{"w1", "w2"} {
		if _, err := r.Add(TenantSpec{ID: id, Database: "tpch"}); err != nil {
			t.Fatalf("add %s: %v", id, err)
		}
		r.Get(id).Service.Ingest(sharedShapes)
		retuneTenant(t, r, id)
	}

	// Tenant-scoped workload introspection, JSON and text.
	resp, body := doJSON(t, "GET", srv.URL+"/tenants/w1/workload", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /tenants/w1/workload = %d: %s", resp.StatusCode, body)
	}
	var rep struct {
		Statements int `json:"statements"`
		Signatures []struct {
			Signature   string  `json:"signature"`
			WeightShare float64 `json:"weight_share"`
		} `json:"signatures"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("workload payload: %v", err)
	}
	if rep.Statements != len(sharedShapes) || len(rep.Signatures) == 0 {
		t.Fatalf("workload payload: %s", body)
	}
	resp, body = doJSON(t, "GET", srv.URL+"/tenants/w1/workload?format=text", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "signature") {
		t.Fatalf("text workload = %d: %s", resp.StatusCode, body)
	}
	if resp, body = doJSON(t, "GET", srv.URL+"/tenants/nope/workload", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant workload = %d: %s", resp.StatusCode, body)
	}

	// Merged exposition: structurally valid, and a superset of each
	// tenant's own labeled render.
	resp, body = doJSON(t, "GET", srv.URL+"/metrics?format=prometheus", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	merged := string(body)
	if probs := obs.LintExposition(strings.NewReader(merged)); len(probs) != 0 {
		t.Fatalf("fleet exposition lint: %v", probs)
	}
	var single bytes.Buffer
	r.Get("w1").Service.PromRegistry().RenderLabeled(&single, "tenant", "w1")
	for _, line := range strings.Split(strings.TrimSpace(single.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(merged, line) {
			t.Errorf("merged exposition missing single-tenant sample %q", line)
		}
	}
	for _, series := range []string{
		`tuner_workload_signatures{tenant="w1"}`,
		`tuner_workload_topk_weight_share{tenant="w2"}`,
		`tuner_window_statements{tenant="w1",kind="select"}`,
	} {
		if !strings.Contains(merged, series) {
			t.Errorf("merged exposition missing %s", series)
		}
	}
}

// findLine returns the first exposition line starting with prefix.
func findLine(text, prefix string) string {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

// TestTenantStatusIsItsFleetRow: POST /tenants and GET /tenants/{id}
// answer with exactly the tenant's row of GET /fleet, built alone.
func TestTenantStatusIsItsFleetRow(t *testing.T) {
	r, srv := newTestServer(t, Options{Workers: 1})
	resp, created := doJSON(t, "POST", srv.URL+"/tenants", TenantSpec{ID: "fresh", Database: "tpch"})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /tenants = %d: %s", resp.StatusCode, created)
	}
	for _, id := range []string{"a", "b"} {
		if _, err := r.Add(TenantSpec{ID: id, Database: "tpch"}); err != nil {
			t.Fatal(err)
		}
		r.Get(id).Service.Ingest(append(append([]string{}, sharedShapes...), "SELECT nope FROM"))
		retuneTenant(t, r, id)
	}
	r.noteQuotaRejection(r.Get("b"))
	rows := r.Status().Tenants
	if len(rows) != 3 {
		t.Fatalf("GET /fleet has %d tenant rows, want 3", len(rows))
	}
	for _, row := range rows {
		want, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		resp, got := doJSON(t, "GET", srv.URL+"/tenants/"+row.ID, nil)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(bytes.TrimSpace(got), want) {
			t.Errorf("GET /tenants/%s = %d\n%s\nwant its fleet row\n%s", row.ID, resp.StatusCode, got, want)
		}
		if row.ID == "fresh" && !bytes.Equal(bytes.TrimSpace(created), want) {
			t.Errorf("POST /tenants answered\n%s\nwant its fleet row\n%s", created, want)
		}
	}
}

// TestTrailingBytesAre400 posts bodies with bytes after their JSON value
// to every route that decodes one: the service's and a tenant's /retune
// and /ingest, and POST /tenants. Anything but whitespace after the value
// is a 400 that runs nothing; trailing whitespace is accepted.
func TestTrailingBytesAre400(t *testing.T) {
	r, fleetSrv := newTestServer(t, Options{Workers: 1})
	if _, err := r.Add(TenantSpec{ID: "alpha", Database: "tpch"}); err != nil {
		t.Fatal(err)
	}
	alpha := r.Get("alpha").Service
	opts := testDefaults()
	opts.DB, _ = testCatalog("tpch", 0.001)
	svc, err := service.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	svcSrv := httptest.NewServer(service.NewHandler(svc))
	t.Cleanup(svcSrv.Close)
	window := workloads.TPCH22SQL()[:3]
	svc.Ingest(window)
	alpha.Ingest(window)

	ingest := func(int) string {
		b, _ := json.Marshal(service.IngestRequest{Statements: window})
		return string(b)
	}
	retune := func(int) string { return `{"budget_mb":0}` }
	tenant := func(i int) string { return fmt.Sprintf(`{"id":"beta-%d","database":"tpch"}`, i) }
	ingested := func(s *service.Service) func() int64 {
		return func() int64 { return s.MetricsSnapshot().StatementsIngested }
	}
	sessions := func(s *service.Service) func() int64 {
		return func() int64 { return int64(s.SessionCount()) }
	}
	for _, route := range []struct {
		url  string
		body func(i int) string
		ok   int
		runs func() int64 // what a request runs, counted
	}{
		{svcSrv.URL + "/retune", retune, http.StatusOK, sessions(svc)},
		{svcSrv.URL + "/ingest", ingest, http.StatusOK, ingested(svc)},
		{fleetSrv.URL + "/tenants/alpha/retune", retune, http.StatusOK, sessions(alpha)},
		{fleetSrv.URL + "/tenants/alpha/ingest", ingest, http.StatusOK, ingested(alpha)},
		{fleetSrv.URL + "/tenants", tenant, http.StatusCreated, func() int64 { return int64(len(r.Status().Tenants)) }},
	} {
		for i, tail := range []string{" x", `{"x":`, "\n}", "\x00", " \t\r\n", "\n", ""} {
			before := route.runs()
			body := route.body(i) + tail
			resp, err := http.Post(route.url, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			ran := route.runs() - before
			if strings.Trim(tail, " \t\r\n") != "" {
				if resp.StatusCode != http.StatusBadRequest || ran != 0 || !strings.Contains(string(data), "invalid JSON") {
					t.Errorf("POST %s %q = %d and ran %d, want 400 running nothing: %s", route.url, body, resp.StatusCode, ran, data)
				}
			} else if resp.StatusCode != route.ok || ran == 0 {
				t.Errorf("POST %s %q = %d and ran %d, want %d: %s", route.url, body, resp.StatusCode, ran, route.ok, data)
			}
		}
	}
}
