// Command tunerbench runs the tuner's standardized regression
// scenarios (batch TPC-H-style, an update mix, an online drift replay,
// a three-tenant fleet) and emits a schema-versioned BENCH_tuner.json:
// wall time, heap allocations, optimizer calls, recommendation quality
// against the unconstrained optimum, and the §3.3.2 calibration score.
//
// With -baseline it gates the run against a committed record and exits
// non-zero on any tolerance violation:
//
//	tunerbench -smoke -out BENCH_tuner.json
//	tunerbench -smoke -baseline BENCH_tuner.json -out BENCH_tuner.ci.json
//
// Deterministic metrics (optimizer calls, iterations, improvement) are
// gated tightly and allocations with a CLI-tunable factor; wall time is
// recorded but not gated (bench/ measures time).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/regress"
)

func main() {
	var (
		smoke    = flag.Bool("smoke", false, "run the quick smoke suite (the default and currently only suite)")
		sf       = flag.Float64("sf", 0, "override the database scale factor (0 = suite default)")
		seed     = flag.Int64("seed", 0, "override the workload generation seed (0 = suite default)")
		iters    = flag.Int("iters", 0, "override max relaxation iterations per session (0 = suite default)")
		out      = flag.String("out", "BENCH_tuner.json", "write the benchmark record to this path ('' = stdout only)")
		baseline = flag.String("baseline", "", "gate the run against this committed record (exit 1 on violations)")
		quiet    = flag.Bool("q", false, "suppress per-scenario progress lines")

		allocTol    = flag.Float64("alloc-tolerance", 0, "max allocation factor vs baseline (0 = default 1.10)")
		callsTol    = flag.Float64("calls-tolerance", 0, "max optimizer-call factor vs baseline (0 = default 1.05)")
		qualityTol  = flag.Float64("quality-tolerance", 0, "allowed quality drop in percentage points (0 = default 0.5)")
		coverageMin = flag.Float64("coverage-floor", 0, "minimum profile coverage percent (0 = default 80)")
	)
	flag.Parse()
	_ = *smoke // one suite today; the flag names the intent in CI invocations

	cfg := regress.DefaultConfig()
	if *sf > 0 {
		cfg.SF = *sf
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *iters > 0 {
		cfg.MaxIterations = *iters
	}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}

	start := time.Now()
	bench, err := regress.RunSuite(cfg)
	if err != nil {
		fatal(err)
	}
	bench.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	if !*quiet {
		fmt.Printf("suite done in %s\n", time.Since(start).Round(time.Millisecond))
	}

	if *out != "" {
		if err := regress.WriteFile(*out, bench); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	} else if err := bench.WriteJSON(os.Stdout); err != nil {
		fatal(err)
	}

	if *baseline == "" {
		return
	}
	base, err := regress.ReadFile(*baseline)
	if err != nil {
		fatal(fmt.Errorf("loading baseline: %w", err))
	}
	tol := regress.Tolerance{
		AllocFactor:      *allocTol,
		CallsFactor:      *callsTol,
		QualityPoints:    *qualityTol,
		CoverageFloorPct: *coverageMin,
	}
	violations := regress.Gate(base, bench, tol)
	regress.FormatViolations(os.Stdout, violations)
	if len(violations) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tunerbench:", err)
	os.Exit(1)
}
