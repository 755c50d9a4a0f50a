package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func ms(n int) int64 { return int64(n) * int64(time.Millisecond) }

func TestSelfTimeSubtractsChildrenByTheirShare(t *testing.T) {
	tr := newTracer()
	// One batch: the handler took 10 ms; Service.Ingest on the same batch
	// took 8; the window 7 of that; parse 3, render 2, and signatures 4 of
	// which a quarter is charged (one statement in four was new).
	h := tr.add(span{Parent: rootSpan, Name: "http.ingest", Start: 0, End: ms(10), Share: 1})
	s := tr.add(span{Parent: h, Name: "service.ingest", Start: ms(20), End: ms(28), Share: 1})
	o := tr.add(span{Parent: s, Name: "workloads.observe", Start: ms(30), End: ms(37), Share: 1})
	tr.add(span{Parent: o, Name: "sqlx.parse", Start: ms(40), End: ms(43), Share: 1})
	tr.add(span{Parent: o, Name: "sqlx.render", Start: ms(50), End: ms(52), Share: 1})
	sig := tr.add(span{Parent: o, Name: "workloads.signature", Start: ms(60), End: ms(64), Share: 1})
	tr.setShare(sig, 0.25)
	tr.add(span{Parent: detachedSpan, Name: "workloads.stats", Start: ms(70), End: ms(75), Share: 1})

	self := selfTimes(tr.spans)
	want := map[string]time.Duration{
		"http.ingest":         2 * time.Millisecond,
		"service.ingest":      1 * time.Millisecond,
		"workloads.observe":   1 * time.Millisecond, // 7 - 3 - 2 - 4/4
		"sqlx.parse":          3 * time.Millisecond,
		"sqlx.render":         2 * time.Millisecond,
		"workloads.signature": 4 * time.Millisecond,
	}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %v, want %v", name, self[name], d)
		}
	}
	if _, ok := self["workloads.stats"]; ok {
		t.Error("a detached probe has a self time")
	}
	// Layers: http 2, service 1, workloads 1+4, sqlx 5 = 13 of a 10 ms
	// wall, because three quarters of the signature time was not charged.
	if got := coveragePct(tr.spans); got != 130 {
		t.Errorf("coverage = %g%%, want 130%%", got)
	}
	if tot := totals(tr.spans)["workloads.stats"]; tot != 5*time.Millisecond {
		t.Errorf("total of the detached probe = %v, want 5ms", tot)
	}
}

func TestNegativeSelfTimeIsClampedPerLayerNotPerSpan(t *testing.T) {
	tr := newTracer()
	// The inner call ran slower on its own than inside the outer one.
	h := tr.add(span{Parent: rootSpan, Name: "http.read", Start: 0, End: ms(4), Share: 1})
	tr.add(span{Parent: h, Name: "service.report", Start: ms(10), End: ms(15), Share: 1})
	if got := selfTimes(tr.spans)["http.read"]; got != -time.Millisecond {
		t.Errorf("self time = %v, want -1ms", got)
	}
	if got := coveragePct(tr.spans); got != 125 { // service 5 of a 4 ms wall
		t.Errorf("coverage = %g%%, want 125%%", got)
	}
}

func TestNilTracerRunsTheCallAndRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	id := tr.time("x.y", rootSpan, 0, func() { ran = true })
	tr.setShare(id, 0.5)
	if !ran || id != rootSpan || tr.reported("x.z", id, 0, time.Second) != rootSpan {
		t.Error("nil tracer did not behave as the untraced pass")
	}
}

func TestSpanFileIsOneObjectPerLine(t *testing.T) {
	tr := newTracer()
	outer := tr.time("core.session", rootSpan, 3, func() {})
	tr.reported("core.search/rank", outer, 3, 5*time.Millisecond)
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := writeSpans(path, tr.spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], `"reported":true`) || !strings.Contains(lines[1], `"parent":0`) {
		t.Errorf("span file:\n%s", data)
	}
	if tr.spans[1].layer() != "core" {
		t.Errorf("layer = %q, want core", tr.spans[1].layer())
	}
}
