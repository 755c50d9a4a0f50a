package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// samples is a set of timings in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// percentile returns the p-th percentile (nearest rank, 0 < p <= 100) of
// the samples, and 0 when there are none. The receiver is sorted in place.
func (s samples) percentile(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func (s samples) median() float64 { return s.percentile(50) }

func (s samples) max() float64 { return s.percentile(100) }

func (s samples) sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// tailPercentile is the highest of 99, 95, 90 and 75 that leaves at least
// ten samples beyond it, and 0 when even 75 does not: a percentile with
// fewer samples above it is a draw from the tail, not an estimate of it.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// Linux reports it as 100 to user space on every architecture.
const clockTick = 100

// procCPUSeconds reads user+system CPU time of a process from the text of
// its /proc/<pid>/stat. The command name may hold spaces and parentheses,
// so fields are counted from the last ')'.
func procCPUSeconds(stat string) (float64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("bench: /proc stat has no command field: %q", stat)
	}
	f := strings.Fields(stat[end+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("bench: /proc stat is short: %q", stat)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bench: /proc stat times do not parse: %q", stat)
	}
	return (utime + stime) / clockTick, nil
}

// procStatusMB reads a "Vm...: <n> kB" line from the text of
// /proc/<pid>/status and returns it in MB.
func procStatusMB(status, key string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024, nil
				}
			}
			return 0, fmt.Errorf("bench: /proc status line does not parse: %q", line)
		}
	}
	return 0, fmt.Errorf("bench: /proc status has no %s", key)
}

// pidCPUSeconds and pidStatusMB read the live files of process pid
// (0 = this process).
func pidCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(procPath(pid, "stat"))
	if err != nil {
		return 0, err
	}
	return procCPUSeconds(string(b))
}

func pidStatusMB(pid int, key string) (float64, error) {
	b, err := os.ReadFile(procPath(pid, "status"))
	if err != nil {
		return 0, err
	}
	return procStatusMB(string(b), key)
}

func procPath(pid int, file string) string {
	if pid == 0 {
		return "/proc/self/" + file
	}
	return "/proc/" + strconv.Itoa(pid) + "/" + file
}

// selfCPUSeconds is the user+system CPU time this process has used.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// dueTimes is an open-loop schedule: n requests, the first at offset and
// one every gap after it, all relative to the start of a round.
func dueTimes(n int, offset, gap time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = offset + time.Duration(i)*gap
	}
	return out
}

// openLoopTiming accounts one request of an open-loop schedule: its
// latency runs from when it was due, not from when the generator got to
// send it, and lag is how late the generator was.
func openLoopTiming(due, sent, done time.Time) (latency, lag time.Duration) {
	lag = sent.Sub(due)
	if lag < 0 {
		lag = 0
	}
	return done.Sub(due), lag
}

// setupMedian runs setup n times, tears down every instance but the last,
// and returns the median duration: the first set-up in a checkout compiles
// tunerd, which a median of three does not see.
func setupMedian(n int, setup func() (teardown func(), err error)) (float64, func(), error) {
	var times samples
	var last func()
	for i := 0; i < n; i++ {
		if last != nil {
			last()
		}
		t0 := time.Now()
		teardown, err := setup()
		if err != nil {
			return 0, nil, err
		}
		times.add(time.Since(t0))
		last = teardown
	}
	return times.median() / 1000, last, nil
}

// hostProbe is a fixed piece of work that calls nothing of the program
// under test: a dependent walk through a 4 MB table, which lives in the
// cache the box shares with its neighbours. The box is a few cores of a
// shared host. Over minutes its neighbours slow the program by a fifth to a
// half, through that cache and the memory behind it, and the probe slows
// with it (a walk through a table small enough for the core's own cache
// does not). A run probes between its units of work, and its timings
// divided by factor are its timings at the reference speed. The probe waits
// until the program has gone idle and reads the table into the cache before
// the clock starts, whatever the program left there, so a change to the
// program does not move the probe and a regression shows in the scaled
// timing as it does in the raw one.
type hostProbe struct {
	table []int32
	took  samples // every probe so far
	at    int32
}

const (
	probeTableLen = 1 << 20 // int32 entries: 4 MB
	probeSteps    = 150_000
	// probeSettle is how long the box is left idle before a probe. Right
	// after a unit of work the program's collector is still marking on the
	// other core and a probe reads a fifth to a half slower than 15 ms
	// later; after 15 ms it reads as it does after 40.
	probeSettle = 15 * time.Millisecond
	// probeReference is the probe's duration on this box when the host is
	// quiet, so that scaled timings read as quiet-host timings here.
	probeReference = 6000 * time.Microsecond
)

// newHostProbe builds the table: one cycle through all entries in a
// scattered order.
func newHostProbe() *hostProbe {
	order := make([]int32, probeTableLen)
	for i := range order {
		order[i] = int32(i)
	}
	state := uint64(0x9E3779B97F4A7C15)
	for i := len(order) - 1; i > 0; i-- {
		state = state*6364136223846793005 + 1442695040888963407
		j := int((state >> 33) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	p := &hostProbe{table: make([]int32, probeTableLen)}
	for i, at := range order {
		p.table[at] = order[(i+1)%len(order)]
	}
	return p
}

// run lets the box settle and probes once.
func (p *hostProbe) run() {
	time.Sleep(probeSettle)
	var warm int32
	for i := 0; i < len(p.table); i += 16 { // one read per cache line
		warm += p.table[i]
	}
	t0 := time.Now()
	at := p.at
	for i := 0; i < probeSteps; i++ {
		at = p.table[at]
	}
	p.took.add(time.Since(t0))
	p.at = at&^1 | warm&1 // keeps both loops' results live; the low bit does not matter
}

// factor is how much slower than the reference the host ran over the
// probes so far: their median over the reference.
func (p *hostProbe) factor() float64 {
	return p.took.median() * float64(time.Millisecond) / float64(probeReference)
}
