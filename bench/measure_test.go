package main

import (
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s = append(s, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {95, 95}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := s.percentile(c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := (samples{}).percentile(50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := (samples{7}).median(); got != 7 {
		t.Errorf("median of one sample = %g, want 7", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{9, 0}, {39, 0}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// The percentiles fixed per workload are supported by the sample
	// counts a run collects: an ingest block's batches and some forty
	// blocks' sweeps; 150 retunes with fifteen requests beside each; a
	// hundred sessions, each sized five times.
	for _, c := range []struct {
		workload string
		op, side int
	}{
		{ingestDistinct, blockBatches, 40 * blockSweeps}, {ingestRepeat, blockBatches, 40 * blockSweeps},
		{serveMixed, 150, 150 * roundSlots}, {batchUpdate, 100, 100 * sizingRepeats},
	} {
		p := tailPercentiles[c.workload]
		if tailPercentile(c.op) < p.op || tailPercentile(c.side) < p.side {
			t.Errorf("%s reports p%g of %d and p%g of %d samples, which they do not support", c.workload, p.op, c.op, p.side, c.side)
		}
	}
}

func TestHostProbeWalksOneCycleAndScales(t *testing.T) {
	p := newHostProbe()
	// The table is a single cycle, so a walk of any length stays on it
	// and every probe does the same work.
	at, steps := int32(0), 0
	for {
		at = p.table[at]
		steps++
		if at == 0 || steps > probeTableLen {
			break
		}
	}
	if steps != probeTableLen {
		t.Fatalf("the walk returns to its start after %d steps, want %d", steps, probeTableLen)
	}
	for i := 0; i < 3; i++ {
		p.run()
	}
	if len(p.took) != 3 || p.factor() <= 0 {
		t.Fatalf("3 probes: %d samples, factor %g", len(p.took), p.factor())
	}
	// The factor is the median probe over the reference.
	p.took = samples{4, 8, 16}
	if got, want := p.factor(), 8*float64(time.Millisecond)/float64(probeReference); got != want {
		t.Errorf("factor of probes of 4, 8 and 16 ms = %g, want %g", got, want)
	}
}

func TestRepeatDiffsComparesTheCommonPrefix(t *testing.T) {
	a := map[string][]string{"round": {"x", "y", "z"}, "final": {"w"}}
	if d := repeatDiffs(a, map[string][]string{"round": {"x", "y"}, "final": {"w"}}); len(d) != 0 {
		t.Errorf("a shorter run that agrees was reported: %v", d)
	}
	d := repeatDiffs(a, map[string][]string{"round": {"x", "q", "z"}})
	if len(d) != 2 || d[0] != "final: missing from the second run" || d[1] != `round, value 1: "y" then "q"` {
		t.Errorf("repeatDiffs = %q", d)
	}
}

func TestOpenLoopLatencyRunsFromTheDueTime(t *testing.T) {
	due := dueTimes(3, 5*time.Millisecond, 10*time.Millisecond)
	if due[0] != 5*time.Millisecond || due[2] != 25*time.Millisecond {
		t.Fatalf("dueTimes = %v", due)
	}
	t0 := time.Unix(1000, 0)
	// Sent 3 ms late because the previous request held the connection,
	// answered 2 ms after that: the client waited 5 ms.
	lat, lag := openLoopTiming(t0, t0.Add(3*time.Millisecond), t0.Add(5*time.Millisecond))
	if lat != 5*time.Millisecond || lag != 3*time.Millisecond {
		t.Errorf("late send: latency %v lag %v, want 5ms and 3ms", lat, lag)
	}
	// Sent a hair early: no negative lag.
	lat, lag = openLoopTiming(t0, t0.Add(-time.Microsecond), t0.Add(time.Millisecond))
	if lat != time.Millisecond || lag != 0 {
		t.Errorf("early send: latency %v lag %v, want 1ms and 0", lat, lag)
	}
}

func TestProcReaders(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	stat := "4242 (tunerd (x) y) S 1 4242 4242 0 -1 4194560 1500 0 0 0 250 50 0 0 20 0 7 0 100 200000 3000 18446744073709551615"
	cpu, err := procCPUSeconds(stat)
	if err != nil || cpu != 3.0 {
		t.Errorf("procCPUSeconds = %g, %v; want 3 (250+50 ticks)", cpu, err)
	}
	if _, err := procCPUSeconds("garbage"); err == nil {
		t.Error("procCPUSeconds accepted garbage")
	}
	status := "Name:\ttunerd\nVmPeak:\t  900000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\n"
	if mb, err := procStatusMB(status, "VmHWM"); err != nil || mb != 20 {
		t.Errorf("VmHWM = %g, %v; want 20", mb, err)
	}
	if mb, err := procStatusMB(status, "VmRSS"); err != nil || mb != 10 {
		t.Errorf("VmRSS = %g, %v; want 10", mb, err)
	}
	if _, err := procStatusMB(status, "VmSwap"); err == nil {
		t.Error("procStatusMB found a key that is not there")
	}

	// The live files of this process.
	if cpu, err := pidCPUSeconds(os.Getpid()); err != nil || cpu < 0 {
		t.Errorf("pidCPUSeconds(self) = %g, %v", cpu, err)
	}
	hwm, err := pidStatusMB(0, "VmHWM")
	rss, err2 := pidStatusMB(0, "VmRSS")
	if err != nil || err2 != nil || hwm <= 0 || rss <= 0 {
		t.Errorf("self VmHWM %g (%v) VmRSS %g (%v)", hwm, err, rss, err2)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := iqrOverMedian(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrOverMedian(1..10) = %g, want %g", got, want)
	}
	// statistics.quantiles([1, 2], n=4) = [0.75, 1.5, 2.25]
	if got, want := iqrOverMedian([]float64{1, 2}), 1.5/1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrOverMedian(1,2) = %g, want %g", got, want)
	}
}

func TestFlagDefaultsReadsTheUsageText(t *testing.T) {
	usage := "Usage of tunerd:\n" +
		"  -auto-retune\n    \tretune automatically when drift is detected (default true)\n" +
		"  -budget float\n    \tstorage budget in MB (0 = unconstrained)\n" +
		"  -history-window duration\n    \tmetric history retained (default 15m0s)\n" +
		"  -iters int\n    \tmaximum relaxation iterations per retune (default 120)\n" +
		"  -log-format string\n    \tlog output format: text or json (default \"text\")\n"
	f := &flagValues{vals: flagDefaults(usage)}
	if f.int("iters") != 120 || f.float("budget") != 0 || !f.bool("auto-retune") ||
		f.duration("history-window") != 15*time.Minute || f.get("log-format") != "text" || f.err != nil {
		t.Errorf("defaults read as %v (err %v)", f.vals, f.err)
	}
	if f.int("no-such-flag"); f.err == nil {
		t.Error("a flag the usage text does not list was accepted")
	}
}
