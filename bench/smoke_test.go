package main

import (
	"testing"
)

// TestSmokeAllWorkloads runs every workload end to end and traced at a
// fraction of a second: the daemon is built and booted, every output check
// runs, and every declared metric has to be measured.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots tunerd")
	}
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: w.Name, seed: 11, seconds: 0.4, trace: trace, setups: 1, smoke: true}
			out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if out.failed > 0 || out.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.Name, trace, out.failed, out.attempted, out.failures)
			}
			if !trace {
				for _, d := range endToEnd {
					if out.metrics[d.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.Name, d.Name, out.metrics[d.Name])
					}
				}
				continue
			}
			if len(out.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.Name)
			}
			m := out.metrics
			// Each workload's mechanism shows in its own counters and not
			// in the others'.
			switch w.Name {
			case ingestDistinct:
				if m["workloads.evicted_unique"] <= 0 || m["core.rank_ms"] != 0 {
					t.Errorf("ingest-distinct: evicted_unique %g core.rank_ms %g", m["workloads.evicted_unique"], m["core.rank_ms"])
				}
			case ingestRepeat:
				if m["workloads.evicted_unique"] != 0 || m["core.rank_ms"] != 0 {
					t.Errorf("ingest-repeat: evicted_unique %g core.rank_ms %g", m["workloads.evicted_unique"], m["core.rank_ms"])
				}
			case serveMixed:
				if m["core.cache_hit_pct"] <= 0 || m["core.warm_start_ms"] <= 0 || m["core.skyline_ms"] != 0 || m["workloads.evicted_unique"] != 0 {
					t.Errorf("serve-mixed: cache_hit_pct %g warm_start_ms %g skyline_ms %g evicted_unique %g",
						m["core.cache_hit_pct"], m["core.warm_start_ms"], m["core.skyline_ms"], m["workloads.evicted_unique"])
				}
			case batchUpdate:
				if m["core.skyline_ms"] <= 0 || m["core.cache_hit_pct"] != 0 || m["sqlx.parse_ns_per_stmt"] != 0 {
					t.Errorf("batch-update: skyline_ms %g cache_hit_pct %g parse_ns %g", m["core.skyline_ms"], m["core.cache_hit_pct"], m["sqlx.parse_ns_per_stmt"])
				}
			}
		}
	}
}

func TestManifestAgreesWithProgram(t *testing.T) {
	if err := checkManifest("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
}
