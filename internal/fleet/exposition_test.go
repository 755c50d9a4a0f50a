package fleet

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/service"
)

// clockSeries are the sample names whose values depend on the wall
// clock; the goldens mask their values and keep their lines.
var clockSeries = map[string]bool{
	"tuner_uptime_seconds":                 true,
	"tuner_last_retune_unix":               true,
	"tuner_retune_duration_seconds_bucket": true,
	"tuner_retune_duration_seconds_sum":    true,
	"tuner_phase_duration_seconds_bucket":  true,
	"tuner_phase_duration_seconds_sum":     true,
}

// allocSeries depends on the allocator down to which phases it has a
// sample for, so the goldens keep only its HELP and TYPE lines.
const allocSeries = "tuner_phase_alloc_bytes_total"

// maskProm replaces the value of every clockSeries sample with X and
// drops the allocSeries samples.
func maskProm(text string) string {
	var out strings.Builder
	for _, l := range strings.SplitAfter(text, "\n") {
		name, _, _ := strings.Cut(l, "{")
		name, _, _ = strings.Cut(name, " ")
		switch {
		case name == allocSeries:
			continue
		case clockSeries[name]:
			l = l[:strings.LastIndexByte(l, ' ')+1] + "X\n"
		}
		out.WriteString(l)
	}
	return out.String()
}

var clockJSON = regexp.MustCompile(`"(uptime_seconds|last_retune_millis|last_retune_unix)":[^,}]+`)

// get reads url and fails the test unless it answers 200.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, body := doJSON(t, "GET", url, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return string(body)
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Errorf("%s diverged:\n--- got\n%s--- want\n%s", name, got, want)
	}
}

// TestExpositionGolden pins what a client reads of one service after two
// retunes and drift checks of both origins — the Prometheus text, the
// /metrics JSON and the series History samples — and the merged scrape
// of a three-tenant fleet, with clock-dependent values masked.
func TestExpositionGolden(t *testing.T) {
	tuning := core.Options{SpaceBudget: 64 << 10, MaxIterations: 40, Parallelism: 1}

	svc, err := service.New(service.Options{
		DB:              datagen.TPCH(0.001),
		Tuning:          tuning,
		DriftCheckEvery: 3,
		Monitor:         service.MonitorOptions{HistoryInterval: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.Ingest(append(append([]string{}, sharedShapes...), "SELECT nope FROM"))
	if _, err := svc.Retune(); err != nil {
		t.Fatal(err)
	}
	svc.Ingest(extraShapes)
	if _, err := svc.Retune(); err != nil {
		t.Fatal(err)
	}
	var burst []string
	for range 12 {
		burst = append(burst, sharedShapes[0])
	}
	svc.Ingest(burst)
	svc.CheckDrift()
	srv := httptest.NewServer(service.NewHandler(svc))
	defer srv.Close()
	prom := get(t, srv.URL+"/metrics?format=prometheus")
	payload := get(t, srv.URL+"/metrics")
	svc.History().Sample(time.UnixMilli(1))
	var names strings.Builder
	for _, s := range svc.History().Query(obs.HistoryQuery{}).Series {
		if s.Name == allocSeries {
			continue
		}
		names.WriteString(s.Name + "{" + s.Labels + "}\n")
	}
	checkGolden(t, "testdata/exposition_service.golden.prom", maskProm(prom))
	checkGolden(t, "testdata/exposition_service.golden.json", clockJSON.ReplaceAllString(payload, `"$1":"X"`))
	checkGolden(t, "testdata/exposition_history.golden.txt", names.String())

	defaults := testDefaults()
	defaults.Tuning = tuning
	r, fsrv := newTestServer(t, Options{Workers: 1, Defaults: defaults})
	for i, id := range []string{"t1", "t2", "t3"} {
		if _, err := r.Add(TenantSpec{ID: id, Database: "tpch"}); err != nil {
			t.Fatal(err)
		}
		r.Get(id).Service.Ingest(append(append([]string{}, sharedShapes...), extraShapes[i]))
		retuneTenant(t, r, id)
	}
	checkGolden(t, "testdata/exposition_fleet.golden.prom", maskProm(get(t, fsrv.URL+"/metrics?format=prometheus")))
}
