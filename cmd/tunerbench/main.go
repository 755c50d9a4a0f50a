// Command tunerbench runs the tuner's standardized regression
// scenarios (batch TPC-H-style, an update mix, an online drift replay,
// a three-tenant fleet) and emits a schema-versioned BENCH_tuner.json
// holding, per scenario, the metrics it measures: heap allocations,
// optimizer calls, recommendation quality against the unconstrained
// optimum, the §3.3.2 calibration score and so on.
//
// With -baseline it gates the run against a committed record and exits
// non-zero on any violation:
//
//	tunerbench -out BENCH_tuner.json
//	tunerbench -baseline BENCH_tuner.json -out BENCH_tuner.ci.json
//
// Every limit lives in the rule table of internal/regress; none is
// settable here.
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
		out      = flag.String("out", "BENCH_tuner.json", "write the benchmark record to this path ('' = stdout only)")
		baseline = flag.String("baseline", "", "gate the run against this committed record (exit 1 on violations)")
	)
	flag.Parse()

	start := time.Now()
	bench, err := regress.RunSuite()
	if err != nil {
		fatal(err)
	}
	bench.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	fmt.Printf("suite done in %s\n", time.Since(start).Round(time.Millisecond))

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
	violations := regress.Gate(base, bench)
	regress.FormatViolations(os.Stdout, violations)
	if len(violations) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tunerbench:", err)
	os.Exit(1)
}
