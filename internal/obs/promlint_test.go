package obs

import (
	"strings"
	"testing"
	"time"
)

// lintTestRegistry builds a registry exercising every metric type.
func lintTestRegistry() *Registry {
	reg := NewRegistry()
	c := reg.NewCounter("demo_ops_total", "Operations performed.")
	c.Add(3)
	g := reg.NewGauge("demo_depth", "Queue depth.")
	g.Set(7)
	cv := reg.NewCounterVec("demo_phase_total", "Per-phase operations.", "phase")
	cv.Add("search", 2)
	cv.Add("evaluate", 5)
	gv := reg.NewGaugeVec("demo_share", "Per-kind share.", "kind")
	gv.Set("select", 0.75)
	gv.Set("update", 0.25)
	h := reg.NewHistogram("demo_latency_seconds", "Latency distribution.", ExpBuckets(0.001, 10, 4))
	h.Observe(0.004)
	h.Observe(2)
	hv := reg.NewHistogramVec("demo_phase_seconds", "Per-phase latency.", "phase", ExpBuckets(0.001, 10, 3))
	hv.Observe("search", 0.01)
	g2 := reg.NewGaugeVec2("demo_firing", "Per-rule firing state.", "rule", "severity")
	g2.Set("slow-retune", "warning", 1)
	g2.Set("cache\\collapse", "critical", 0)
	c2 := reg.NewCounterVec2("demo_transitions_total", "Per-rule transitions.", "rule", "to")
	c2.Add("slow-retune", "firing", 2)
	c2.Add("slow-retune", "resolved", 1)
	return reg
}

func TestLintCleanRegistry(t *testing.T) {
	var b strings.Builder
	lintTestRegistry().Render(&b)
	if probs := LintExposition(strings.NewReader(b.String())); len(probs) != 0 {
		t.Fatalf("clean registry flagged: %v\n%s", probs, b.String())
	}
}

func TestLintCleanLabeledRegistry(t *testing.T) {
	var b strings.Builder
	lintTestRegistry().RenderLabeled(&b, "tenant", "acme")
	if probs := LintExposition(strings.NewReader(b.String())); len(probs) != 0 {
		t.Fatalf("labeled render flagged: %v\n%s", probs, b.String())
	}
	if !strings.Contains(b.String(), `tenant="acme"`) {
		t.Fatalf("labeled render missing tenant label:\n%s", b.String())
	}
}

func TestLintMergedMatchesSingleTenant(t *testing.T) {
	regA, regB := lintTestRegistry(), lintTestRegistry()
	var merged strings.Builder
	RenderMerged(&merged, "tenant", []LabeledRegistry{
		{Value: "a", Registry: regA},
		{Value: "b", Registry: regB},
	})
	if probs := LintExposition(strings.NewReader(merged.String())); len(probs) != 0 {
		t.Fatalf("merged exposition flagged: %v\n%s", probs, merged.String())
	}

	// Every sample a single-tenant render produces must appear verbatim in
	// the merged exposition (same value, same labels plus tenant), and each
	// family's HELP/TYPE must appear exactly once.
	var single strings.Builder
	regA.RenderLabeled(&single, "tenant", "a")
	for _, line := range strings.Split(strings.TrimSpace(single.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			if strings.Count(merged.String(), line) != 1 {
				t.Errorf("header %q appears %d times in merged output, want 1",
					line, strings.Count(merged.String(), line))
			}
			continue
		}
		if !strings.Contains(merged.String(), line) {
			t.Errorf("merged exposition missing single-tenant sample %q", line)
		}
	}
}

func TestLintCatchesMissingType(t *testing.T) {
	exp := "# HELP demo_x Stuff.\ndemo_x 1\n"
	probs := LintExposition(strings.NewReader(exp))
	if len(probs) == 0 {
		t.Fatal("sample without TYPE not flagged")
	}
}

func TestLintCatchesDuplicateFamily(t *testing.T) {
	exp := "# HELP demo_x Stuff.\n# TYPE demo_x gauge\ndemo_x 1\n" +
		"# HELP demo_x Stuff.\n# TYPE demo_x counter\ndemo_x 2\n"
	probs := LintExposition(strings.NewReader(exp))
	joined := strings.Join(probs, "; ")
	if !strings.Contains(joined, "duplicate HELP") {
		t.Errorf("duplicate HELP not flagged: %v", probs)
	}
	if !strings.Contains(joined, "redeclared") {
		t.Errorf("conflicting TYPE not flagged: %v", probs)
	}
	if !strings.Contains(joined, "duplicate series") {
		t.Errorf("duplicate series not flagged: %v", probs)
	}
}

func TestLintCatchesInvalidTypeAndName(t *testing.T) {
	exp := "# HELP 9bad Stuff.\n# TYPE 9bad thermometer\n9bad 1\n"
	probs := LintExposition(strings.NewReader(exp))
	joined := strings.Join(probs, "; ")
	if !strings.Contains(joined, "invalid metric name") {
		t.Errorf("invalid name not flagged: %v", probs)
	}
	if !strings.Contains(joined, "invalid type") {
		t.Errorf("invalid type not flagged: %v", probs)
	}
}

func TestLintCatchesNegativeCounter(t *testing.T) {
	exp := "# HELP demo_total Stuff.\n# TYPE demo_total counter\ndemo_total -4\n"
	probs := LintExposition(strings.NewReader(exp))
	if len(probs) != 1 || !strings.Contains(probs[0], "negative") {
		t.Fatalf("negative counter not flagged correctly: %v", probs)
	}
}

func TestLintAllowsHistogramComponents(t *testing.T) {
	exp := "# HELP demo_seconds Latency.\n# TYPE demo_seconds histogram\n" +
		"demo_seconds_bucket{le=\"0.1\"} 1\ndemo_seconds_bucket{le=\"+Inf\"} 2\n" +
		"demo_seconds_sum 0.3\ndemo_seconds_count 2\n"
	if probs := LintExposition(strings.NewReader(exp)); len(probs) != 0 {
		t.Fatalf("histogram components flagged: %v", probs)
	}
}

// labelTestValues are label values the text format has to escape: a
// backslash, a double quote, a newline, and a backslash before an n.
var labelTestValues = []string{`a\b`, `a"b`, "a\nb", `a\nb`}

// TestLabelValuesEscapeOnce: a label value is escaped once, as the text
// format escapes it, and History unescapes it once, so a selector
// written in the same escaping finds the series.
func TestLabelValuesEscapeOnce(t *testing.T) {
	reg := NewRegistry()
	g := reg.NewGaugeVec2("demo_firing", "Per-rule firing state.", "rule", "severity")
	for i, v := range labelTestValues {
		g.Set(v, "critical", float64(i))
	}
	var b strings.Builder
	reg.Render(&b)
	for _, want := range []string{
		`demo_firing{rule="a\\b",severity="critical"} 0`,
		`demo_firing{rule="a\"b",severity="critical"} 1`,
		`demo_firing{rule="a\nb",severity="critical"} 2`,
		`demo_firing{rule="a\\nb",severity="critical"} 3`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("exposition lacks %s:\n%s", want, b.String())
		}
	}
	if probs := LintExposition(strings.NewReader(b.String())); len(probs) != 0 {
		t.Fatalf("exposition flagged: %v\n%s", probs, b.String())
	}

	hist := NewHistory(reg, HistoryOptions{Window: time.Minute, Interval: time.Second})
	hist.Sample(histT0)
	for _, sel := range []string{`rule="a\\b"`, `rule="a\"b"`, `rule="a\nb"`, `rule="a\\nb"`} {
		name, want, err := parseMetricSelector("demo_firing{" + sel + "}")
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		hist.lockedView(name, want, func(r *seriesRing) { got = append(got, r.labels) })
		if len(got) != 1 {
			t.Errorf("selector {%s} matched %d series, want 1: %q", sel, len(got), got)
		}
	}
}
