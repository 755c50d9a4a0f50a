package obs

import (
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// FuzzLabelValueRoundTrip: a series labelled with any UTF-8 string v
// renders one line LintExposition accepts, whose label unescapes back to
// v, and History holds v as the series' label value. The text format
// carries UTF-8 only, so other strings are out of its reach.
func FuzzLabelValueRoundTrip(f *testing.F) {
	for _, v := range append(labelTestValues, `cache\collapse`, `\\"`, "é") {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		if !utf8.ValidString(v) {
			return
		}
		reg := NewRegistry()
		reg.NewGaugeVec("demo_value", "Per-rule value.", "rule").Set(v, 1)
		var b strings.Builder
		reg.Render(&b)
		if probs := LintExposition(strings.NewReader(b.String())); len(probs) != 0 {
			t.Fatalf("exposition of %q flagged: %v\n%s", v, probs, b.String())
		}
		var samples []string
		for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
			if !strings.HasPrefix(line, "#") {
				samples = append(samples, line)
			}
		}
		if len(samples) != 1 {
			t.Fatalf("%q rendered %d sample lines, want 1:\n%s", v, len(samples), b.String())
		}
		_, labels, _, err := parseSample(samples[0])
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := parseLabelPairs(labels)
		if err != nil {
			t.Fatal(err)
		}
		if pairs["rule"] != v {
			t.Fatalf("rendered %s, which unescapes to %q, want %q", samples[0], pairs["rule"], v)
		}
		hist := NewHistory(reg, HistoryOptions{Window: time.Minute, Interval: time.Second})
		hist.Sample(histT0)
		var held []string
		hist.lockedView("demo_value", nil, func(r *seriesRing) { held = append(held, r.labelv["rule"]) })
		if len(held) != 1 || held[0] != v {
			t.Fatalf("History holds %q, want [%q]", held, v)
		}
	})
}
