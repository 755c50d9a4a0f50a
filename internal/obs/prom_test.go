package obs

import (
	"bytes"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
)

func TestPromTextExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("requests_total", "Total requests.")
	g := reg.NewGauge("window_unique", "Distinct statements in window.")
	v := reg.NewCounterVec("calls_total", "Calls by phase.", "phase")
	h := reg.NewHistogram("latency_seconds", "Latency.", []float64{0.5, 1, 2})

	c.Add(3)
	c.Inc()
	g.Set(12)
	v.Add("search", 2)
	v.Add("optimal-config", 5)
	h.Observe(0.4)
	h.Observe(0.9)
	h.Observe(7)

	var buf bytes.Buffer
	reg.Render(&buf)
	out := buf.String()

	for _, want := range []string{
		"# HELP requests_total Total requests.",
		"# TYPE requests_total counter",
		"requests_total 4",
		"# TYPE window_unique gauge",
		"window_unique 12",
		`calls_total{phase="optimal-config"} 5`,
		`calls_total{phase="search"} 2`,
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{le="0.5"} 1`,
		`latency_seconds_bucket{le="1"} 2`,
		`latency_seconds_bucket{le="2"} 2`,
		`latency_seconds_bucket{le="+Inf"} 3`,
		"latency_seconds_sum 8.3",
		"latency_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative and label values sorted.
	if strings.Index(out, `phase="optimal-config"`) > strings.Index(out, `phase="search"`) {
		t.Fatal("counter vec labels not sorted")
	}
}

func TestPromHandlerContentType(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("x_total", "X.")
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	ct := rec.Header().Get("Content-Type")
	if !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "x_total 0") {
		t.Fatalf("body = %q", rec.Body.String())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg.NewCounter("dup_total", "second")
}

func TestHistogramConcurrentObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("h", "H.", []float64{1, 10})
	c := reg.NewCounter("c_total", "C.")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 20))
				c.Inc()
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d", h.Count())
	}
	if c.Value() != 8000 {
		t.Fatalf("counter = %v", c.Value())
	}
}

// TestPromRenderMatchesGolden byte-compares a populated single-tenant
// render and a merged fleet render against expositions captured from
// the per-type implementations this registry replaced.
func TestPromRenderMatchesGolden(t *testing.T) {
	regA, regB := lintTestRegistry(), lintTestRegistry()
	regB.byName["demo_phase_total"].(*family).add(9, "rank")
	var single, fleet bytes.Buffer
	regA.Render(&single)
	RenderMerged(&fleet, "tenant", []LabeledRegistry{{Value: "a", Registry: regA}, {Value: "b", Registry: regB}})
	for name, got := range map[string][]byte{
		"testdata/prom_single.golden.prom": single.Bytes(),
		"testdata/prom_fleet.golden.prom":  fleet.Bytes(),
	} {
		want, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s diverged:\n--- got\n%s--- want\n%s", name, got, want)
		}
	}
}
