package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// checkManifest fails unless the file at path and this program agree on
// every workload and metric: names, units, directions, bounds, and a
// reason on every workload.
func checkManifest(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("bench: %s: %w", path, err)
	}
	var diffs []string
	diff := func(format string, args ...any) { diffs = append(diffs, fmt.Sprintf(format, args...)) }

	if len(m.Workloads) != len(workloadDefs) {
		diff("workloads: file has %d, program has %d", len(m.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if i < len(m.Workloads) && m.Workloads[i] != w {
			diff("workload %d: file has %+v, program has %+v", i, m.Workloads[i], w)
		}
		if strings.TrimSpace(w.Why) == "" {
			diff("workload %s has no reason", w.Name)
		}
	}
	compare := func(kind string, file, prog []metricDef) {
		if len(file) != len(prog) {
			diff("%s: file has %d metrics, program has %d", kind, len(file), len(prog))
		}
		for i, d := range prog {
			if i < len(file) && file[i] != d {
				diff("%s metric %d: file has %+v, program has %+v", kind, i, file[i], d)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd)
	compare("per_layer", m.PerLayer, perLayer)
	if len(diffs) > 0 {
		return fmt.Errorf("bench: %s disagrees with the program:\n  %s", path, strings.Join(diffs, "\n  "))
	}
	fmt.Printf("%s agrees with the program: %d workloads, %d end-to-end and %d per-layer metrics\n",
		path, len(workloadDefs), len(endToEnd), len(perLayer))
	return nil
}

// repeatRuns runs every named workload's end-to-end set `times` times on
// the one seed. It prints per metric the spread between the runs
// (interquartile range over median, the driver's statistic) and the largest
// difference of any run from the first, against the bound, and it fails
// when a sequence the seed determines differs between two runs.
func repeatRuns(names []string, seed int64, seconds float64, times int) error {
	worst, differing := 0.0, 0
	for _, name := range names {
		values := map[string][]float64{}
		var first map[string][]string
		for i := 0; i < times; i++ {
			cfg := runConfig{workload: name, seed: seed, seconds: seconds, setups: 7}
			out, err := run(cfg)
			if err != nil {
				return err
			}
			if err := report(cfg, out); err != nil {
				return err
			}
			if out.failed > 0 {
				return fmt.Errorf("bench: %s seed %d: %d operations or output checks failed", name, cfg.seed, out.failed)
			}
			for _, d := range endToEnd {
				values[d.Name] = append(values[d.Name], out.metrics[d.Name])
			}
			if first == nil {
				first = out.repeatable
			}
			for _, diff := range repeatDiffs(first, out.repeatable) {
				differing++
				fmt.Printf("repeat %s run %d: %s\n", name, i+1, diff)
			}
		}
		fmt.Printf("repeat %s x%d on seed %d\n", name, times, seed)
		for _, d := range endToEnd {
			v := values[d.Name]
			maxDiff := 0.0
			for _, x := range v[1:] {
				maxDiff = math.Max(maxDiff, math.Abs(x-v[0])/v[0])
			}
			// Quartiles of fewer than four values are extrapolations;
			// judge those sets by the plain difference.
			spread := iqrOverMedian(v)
			judged := spread
			if len(v) < 4 {
				judged = maxDiff
			}
			verdict := "within"
			if judged > d.Bound {
				verdict = "OUTSIDE"
			}
			worst = math.Max(worst, judged/d.Bound)
			fmt.Printf("  %-20s median %12.4f %-8s spread %6.2f%%  max diff from first %6.2f%%  bound %4.1f%%  %s\n",
				d.Name, median(v), d.Unit, 100*spread, 100*maxDiff, 100*d.Bound, verdict)
		}
		keys := make([]string, 0, len(first))
		for key := range first {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			fmt.Printf("  %-36s %d values, compared over the shortest run\n", key, len(first[key]))
		}
	}
	fmt.Printf("largest is %.2f of its bound\n", worst)
	if differing > 0 {
		return fmt.Errorf("bench: %d sequences that the seed determines did not repeat", differing)
	}
	return nil
}

// repeatDiffs compares two runs' repeatable sequences over the part both
// runs reached (a run consumes as long a prefix of its input as fits its
// time) and describes the first difference in each.
func repeatDiffs(a, b map[string][]string) []string {
	var diffs []string
	for key, va := range a {
		vb, ok := b[key]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: missing from the second run", key))
			continue
		}
		for i := 0; i < min(len(va), len(vb)); i++ {
			if va[i] != vb[i] {
				diffs = append(diffs, fmt.Sprintf("%s, value %d: %q then %q", key, i, va[i], vb[i]))
				break
			}
		}
	}
	sort.Strings(diffs)
	return diffs
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// iqrOverMedian is the distance between the first and third quartile as
// a share of the median, with quartiles as Python's
// statistics.quantiles(v, n=4) gives them (the "exclusive" method). Fewer
// than two values have no spread.
func iqrOverMedian(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based position
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(s)
}
