// Command bench is the tunerd load benchmark: it builds cmd/tunerd, boots
// it as a child process on loopback, drives it with a seeded statement
// stream from at most two connections (one busy thread per core), checks
// what comes back, and prints every metric by name with its unit. The last
// line of standard output is the JSON object BENCHMARK.json's driver reads.
//
//	bash bench/run.sh --workload serve-mixed --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --trace 1        # every workload, per-layer metrics
//	bash bench/run.sh -check           # BENCHMARK.json agrees with this code
//	bash bench/run.sh -repeat 2        # two runs on one seed against the bounds; what the seed fixes must repeat
//
// README.md describes the workloads, the metrics and the span file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // length of the measured phase
	trace    bool
	setups   int // set-up is repeated this often and its median reported
	// smoke shrinks the units of work (ingest blocks, batch-update's
	// sessions) for the package's own smoke test.
	smoke bool
}

// outcome is what one run measured.
type outcome struct {
	metrics     map[string]float64 // the run's end-to-end or per-layer metrics
	extra       map[string]float64 // operation-specific client-side numbers, printed only
	samples     map[string]int     // sample count behind each timing
	attempted   int                // operations sent plus output checks made
	failed      int
	failures    []string // the first few, for the human reader
	spans       []span
	daemonFlags []string
	// repeatable holds, by name, sequences that are a function of the
	// seed alone: a second run on the same seed has to produce the same
	// values for as far as both runs got. -repeat checks that.
	repeatable map[string][]string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, extra: map[string]float64{}, samples: map[string]int{},
		repeatable: map[string][]string{}}
}

// check counts one operation or output check and records it when it fails.
func (o *outcome) check(ok bool, format string, args ...any) bool {
	o.attempted++
	if !ok {
		o.failed++
		if len(o.failures) < 20 {
			o.failures = append(o.failures, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

func (o *outcome) set(name string, v float64, n int) {
	o.metrics[name] = v
	if n > 0 {
		o.samples[name] = n
	}
}

var runners = map[string]func(runConfig) (*outcome, error){
	ingestDistinct: runIngest,
	ingestRepeat:   runIngest,
	serveMixed:     runServe,
	batchUpdate:    runBatch,
}

// run executes one workload and fills in, with zero, any per-layer metric
// the workload has no work for: a traced run reports every per-layer
// metric, and zero is the measurement for a layer that did nothing.
func run(cfg runConfig) (*outcome, error) {
	runner, ok := runners[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", cfg.workload)
	}
	out, err := runner(cfg)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		for _, d := range defs {
			if _, ok := out.metrics[d.Name]; !ok {
				out.metrics[d.Name] = 0
			}
		}
	}
	for _, d := range defs {
		if _, ok := out.metrics[d.Name]; !ok {
			return nil, fmt.Errorf("bench: workload %s did not measure %s", cfg.workload, d.Name)
		}
	}
	for name := range out.metrics {
		if !defined(defs, name) {
			return nil, fmt.Errorf("bench: workload %s measured %s, which is not a declared metric", cfg.workload, name)
		}
	}
	return out, nil
}

func defined(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// report prints the run for a human and, last, the driver's JSON line.
func report(cfg runConfig, out *outcome) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jsonMetric{}
	for _, d := range defs {
		v := out.metrics[d.Name]
		metrics[d.Name] = jsonMetric{v, d.Unit}
		printMetric(d.Name, v, d.Unit, out.samples[d.Name])
	}
	names := make([]string, 0, len(out.extra))
	for name := range out.extra {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		printMetric(name, out.extra[name], "", out.samples[name])
	}
	fmt.Printf("  %-36s %d of %d\n", "failed", out.failed, out.attempted)
	for _, f := range out.failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	if err := writeResults(cfg, out, line); err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetric(name string, v float64, unit string, n int) {
	count := ""
	if n > 0 {
		count = fmt.Sprintf("  (n=%d)", n)
	}
	fmt.Printf("  %-36s %14.4f %s%s\n", name, v, unit, count)
}

// writeResults stamps the run and writes it, with its spans beside it,
// under buildDir.
func writeResults(cfg runConfig, out *outcome, line []byte) error {
	dir := filepath.Join(buildDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if cfg.trace {
		mode = "trace"
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s", cfg.workload, cfg.seed, mode))
	doc, err := json.MarshalIndent(struct {
		Commit      string             `json:"commit"`
		Workload    string             `json:"workload"`
		Seed        int64              `json:"seed"`
		Seconds     float64            `json:"seconds"`
		Trace       bool               `json:"trace"`
		NProc       int                `json:"nproc"`
		GOMAXPROCS  int                `json:"gomaxprocs"`
		GoVersion   string             `json:"go_version"`
		DaemonFlags []string           `json:"daemon_flags"`
		When        string             `json:"when"`
		Result      json.RawMessage    `json:"result"`
		Extra       map[string]float64 `json:"extra,omitempty"`
		Samples     map[string]int     `json:"samples,omitempty"`
		Failures    []string           `json:"failures,omitempty"`
	}{
		commit(), cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), out.daemonFlags, time.Now().UTC().Format(time.RFC3339), line, out.extra, out.samples, out.failures,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", doc, 0o644); err != nil {
		return err
	}
	if cfg.trace {
		return writeSpans(stem+".spans.jsonl", out.spans)
	}
	return nil
}

// commit names the source the run measured, or "unknown" outside a git
// checkout (the driver's checkouts are not repositories).
func commit() string {
	b, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (empty = all four, one after the other)")
		seed     = flag.Int64("seed", 1, "workload seed; the daemon sees only the SQL generated from it")
		seconds  = flag.Float64("seconds", 28, "length of the measured phase of one run")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file; 0 = end-to-end metrics")
		check    = flag.Bool("check", false, "verify that ../BENCHMARK.json agrees with this program, then exit")
		repeat   = flag.Int("repeat", 0, "run the end-to-end set this many times on the one seed, print each metric's spread against its bound, and fail unless everything the seed determines repeats exactly")
	)
	flag.Parse()
	if err := mainErr(*workload, *seed, *seconds, *trace != 0, *check, *repeat); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func mainErr(workload string, seed int64, seconds float64, trace, check bool, repeat int) error {
	if check {
		return checkManifest("../BENCHMARK.json")
	}
	names := []string{workload}
	if workload == "" {
		names = names[:0]
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	}
	if repeat > 0 {
		return repeatRuns(names, seed, seconds, repeat)
	}
	failed := 0
	for _, name := range names {
		cfg := runConfig{workload: name, seed: seed, seconds: seconds, trace: trace, setups: 7}
		out, err := run(cfg)
		if err != nil {
			return err
		}
		if err := report(cfg, out); err != nil {
			return err
		}
		failed += out.failed
	}
	if failed > 0 {
		return fmt.Errorf("bench: %d operations or output checks failed", failed)
	}
	return nil
}
