package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestCalibrateKnownPairs(t *testing.T) {
	// Four rated samples with tightness ratios 0.5, 0.5, 1.0, 2.0:
	// mean 1.0, p50 0.75 (R-7 interpolation), one bound violation.
	samples := []CalibSample{
		{Kind: "merge-indexes", EstDT: 10, RealizedDT: 5},
		{Kind: "merge-indexes", EstDT: 4, RealizedDT: 2},
		{Kind: "remove-index", EstDT: 8, RealizedDT: 8},
		{Kind: "remove-index", EstDT: 3, RealizedDT: 6},
	}
	rep := Calibrate(samples, WhatIfEconomy{OptimizerCalls: 42, PlansReused: 3, PlansReoptimized: 1})
	if rep.SchemaVersion != CalibrationSchemaVersion {
		t.Errorf("schema version = %d", rep.SchemaVersion)
	}
	o := rep.Overall
	if o.Samples != 4 || o.Rated != 4 {
		t.Fatalf("samples/rated = %d/%d, want 4/4", o.Samples, o.Rated)
	}
	if math.Abs(o.MeanRatio-1.0) > 1e-12 {
		t.Errorf("mean ratio = %g, want 1", o.MeanRatio)
	}
	if math.Abs(o.P50Ratio-0.75) > 1e-12 {
		t.Errorf("p50 ratio = %g, want 0.75", o.P50Ratio)
	}
	if o.MaxRatio != 2.0 {
		t.Errorf("max ratio = %g, want 2", o.MaxRatio)
	}
	if o.BoundViolations != 1 {
		t.Errorf("bound violations = %d, want 1 (est 3 < realized 6)", o.BoundViolations)
	}
	// Per-kind groups come back sorted by kind name.
	if len(rep.PerKind) != 2 || rep.PerKind[0].Kind != "merge-indexes" || rep.PerKind[1].Kind != "remove-index" {
		t.Fatalf("per-kind grouping wrong: %+v", rep.PerKind)
	}
	if rep.PerKind[0].BoundViolations != 0 || rep.PerKind[1].BoundViolations != 1 {
		t.Errorf("per-kind violations misattributed: %+v", rep.PerKind)
	}
	if got := rep.Economy.ReuseRatio(); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("reuse ratio = %g, want 0.75", got)
	}
}

func TestCalibrateZeroRealizedDT(t *testing.T) {
	// A zero realized ΔT means the bound was maximally conservative:
	// ratio 0, no violation, still rated.
	rep := Calibrate([]CalibSample{{Kind: "remove-index", EstDT: 5, RealizedDT: 0}}, WhatIfEconomy{})
	o := rep.Overall
	if o.Rated != 1 || o.MeanRatio != 0 || o.P50Ratio != 0 || o.BoundViolations != 0 {
		t.Errorf("zero-realized sample misscored: %+v", o)
	}
}

func TestCalibrateNonPositiveEstimateExcluded(t *testing.T) {
	// est ≤ 0 admits no tightness ratio: counted in Samples, not Rated,
	// and never a violation regardless of the realized value.
	rep := Calibrate([]CalibSample{
		{Kind: "multi", EstDT: 0, RealizedDT: 9},
		{Kind: "multi", EstDT: -1, RealizedDT: 9},
		{Kind: "multi", EstDT: 2, RealizedDT: 1},
	}, WhatIfEconomy{})
	o := rep.Overall
	if o.Samples != 3 || o.Rated != 1 {
		t.Errorf("samples/rated = %d/%d, want 3/1", o.Samples, o.Rated)
	}
	if o.BoundViolations != 0 {
		t.Errorf("unrated samples produced violations: %+v", o)
	}
	if math.Abs(o.MeanRatio-0.5) > 1e-12 {
		t.Errorf("mean over rated = %g, want 0.5", o.MeanRatio)
	}
}

func TestCalibrateSingleSample(t *testing.T) {
	rep := Calibrate([]CalibSample{{Kind: "merge-views", EstDT: 4, RealizedDT: 3}}, WhatIfEconomy{})
	o := rep.Overall
	if o.Samples != 1 || o.Rated != 1 {
		t.Fatalf("samples/rated = %d/%d", o.Samples, o.Rated)
	}
	// All quantiles collapse to the single ratio; rank correlation is
	// undefined and must report 0, not NaN.
	if o.MeanRatio != 0.75 || o.P50Ratio != 0.75 || o.P90Ratio != 0.75 || o.MaxRatio != 0.75 {
		t.Errorf("single-sample quantiles: %+v", o)
	}
	if o.RankCorrelation != 0 {
		t.Errorf("rank correlation = %g, want 0 for n=1", o.RankCorrelation)
	}
}

func TestCalibrateEmpty(t *testing.T) {
	rep := Calibrate(nil, WhatIfEconomy{})
	if rep.Overall.Samples != 0 || len(rep.PerKind) != 0 {
		t.Errorf("empty calibration not empty: %+v", rep)
	}
	var sb strings.Builder
	rep.WriteText(&sb) // must not panic on the empty report
	if !strings.Contains(sb.String(), "overall") {
		t.Errorf("WriteText missing overall row:\n%s", sb.String())
	}
}

func TestSpearman(t *testing.T) {
	inc := []float64{1, 2, 3, 4, 5}
	dec := []float64{5, 4, 3, 2, 1}
	if got := Spearman(inc, inc); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical series: %g, want 1", got)
	}
	if got := Spearman(inc, dec); math.Abs(got+1) > 1e-12 {
		t.Errorf("reversed series: %g, want -1", got)
	}
	// Monotone but nonlinear: rank correlation stays exactly 1.
	if got := Spearman(inc, []float64{1, 10, 100, 1000, 10000}); math.Abs(got-1) > 1e-12 {
		t.Errorf("monotone nonlinear: %g, want 1", got)
	}
	if got := Spearman([]float64{7, 7, 7}, inc[:3]); got != 0 {
		t.Errorf("constant series: %g, want 0", got)
	}
	if got := Spearman([]float64{1}, []float64{2}); got != 0 {
		t.Errorf("n=1: %g, want 0", got)
	}
	if got := Spearman(inc, inc[:3]); got != 0 {
		t.Errorf("length mismatch: %g, want 0", got)
	}
	// Ties take average ranks: still well-defined and bounded.
	if got := Spearman([]float64{1, 1, 2, 2}, []float64{1, 2, 3, 4}); math.Abs(got) > 1 {
		t.Errorf("tied ranks out of bounds: %g", got)
	}
}

// Satellite fix: kinds with degenerate or pathological samples must keep
// the report finite and JSON-marshalable (encoding/json rejects NaN/±Inf).
func TestCalibrateNonFiniteGuard(t *testing.T) {
	samples := []CalibSample{
		{Kind: "k", EstDT: math.NaN(), RealizedDT: 1},
		{Kind: "k", EstDT: 1, RealizedDT: math.Inf(1)},
		// Denormal-tiny estimate: both inputs finite, ratio overflows.
		{Kind: "k", EstDT: math.SmallestNonzeroFloat64, RealizedDT: math.MaxFloat64},
		{Kind: "k", EstDT: 10, RealizedDT: 5},
	}
	rep := Calibrate(samples, WhatIfEconomy{})
	o := rep.Overall
	if o.NonFinite != 3 {
		t.Errorf("non-finite samples = %d, want 3", o.NonFinite)
	}
	if o.Rated != 1 || o.MeanRatio != 0.5 || o.P50Ratio != 0.5 || o.P90Ratio != 0.5 {
		t.Errorf("surviving sample misscored: %+v", o)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report with pathological samples must marshal: %v", err)
	}
}

func TestCalibrateQuantilesZeroAndOneSample(t *testing.T) {
	// Zero rated samples: all quantiles zero, no NaN.
	rep := Calibrate([]CalibSample{{Kind: "k", EstDT: 0, RealizedDT: 1}}, WhatIfEconomy{})
	o := rep.Overall
	for name, v := range map[string]float64{
		"mean": o.MeanRatio, "p50": o.P50Ratio, "p90": o.P90Ratio, "max": o.MaxRatio,
	} {
		if v != 0 || math.IsNaN(v) {
			t.Errorf("zero-rated %s = %g, want 0", name, v)
		}
	}
	// One rated sample: every quantile collapses to that ratio.
	rep = Calibrate([]CalibSample{{Kind: "k", EstDT: 4, RealizedDT: 3}}, WhatIfEconomy{})
	o = rep.Overall
	if o.P50Ratio != 0.75 || o.P90Ratio != 0.75 || o.MaxRatio != 0.75 {
		t.Errorf("single-sample quantiles: %+v", o)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("marshal: %v", err)
	}
}

func TestAttachGroundTruth(t *testing.T) {
	gt := &GroundTruthReport{
		SchemaVersion: 1,
		Configs: []ReplayConfig{
			{Label: "baseline", EstCost: 100, MeasuredNanos: 1000, RowsScanned: 500},
			{Label: "step-3", Kind: "merge-indexes", EstCost: 60, MeasuredNanos: 700, RowsScanned: 300},
			{Label: "recommended", Kind: "remove-index", EstCost: 40, MeasuredNanos: 500, RowsScanned: 200},
		},
		Samples: []CalibSample{
			{Kind: "merge-indexes", EstDT: 40, RealizedDT: 30},
			{Kind: "remove-index", EstDT: 20, RealizedDT: 20},
		},
		RankCorrelation:  1,
		SpeedupMeasured:  2,
		SpeedupEstimated: 2.5,
	}
	rep := CalibrateGrounded(nil, WhatIfEconomy{}, gt)
	g := rep.Ground
	if g == nil {
		t.Fatal("ground block missing")
	}
	if g.Overall.Samples != 2 || g.Overall.Rated != 2 {
		t.Errorf("ground overall: %+v", g.Overall)
	}
	if len(g.PerKind) != 2 {
		t.Fatalf("ground per-kind: %d", len(g.PerKind))
	}
	if g.SpeedupMeasured != 2 || g.ConfigRankCorrelation != 1 {
		t.Errorf("ground carried fields: %+v", g)
	}
	if g.RowsScannedBaseline != 500 || g.RowsScannedRecommended != 200 {
		t.Errorf("rows scanned: %d -> %d", g.RowsScannedBaseline, g.RowsScannedRecommended)
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	if !strings.Contains(sb.String(), "measured speedup 2.00x") {
		t.Errorf("WriteText ground block:\n%s", sb.String())
	}

	// Attaching nil is a no-op; Calibrate alone leaves Ground unset.
	plain := Calibrate(nil, WhatIfEconomy{})
	plain.AttachGroundTruth(nil)
	if plain.Ground != nil {
		t.Error("nil attach must not create a ground block")
	}
}

func TestGroundTruthEndpointLookups(t *testing.T) {
	gt := &GroundTruthReport{Configs: []ReplayConfig{
		{Label: "baseline"}, {Label: "step-1"}, {Label: "recommended"},
	}}
	if gt.Baseline() == nil || gt.Baseline().Label != "baseline" {
		t.Error("Baseline lookup failed")
	}
	if gt.Recommended() == nil || gt.Recommended().Label != "recommended" {
		t.Error("Recommended lookup failed")
	}
	empty := &GroundTruthReport{}
	if empty.Baseline() != nil || empty.Recommended() != nil {
		t.Error("empty report lookups must be nil")
	}
}

// TestBoundRuleSharedBySinkAndCalibrate: the metrics sink and Calibrate
// rate a §3.3.2 sample by one rule. An estimate so small that
// realized/estimated overflows is rated by neither, so it neither counts
// as a violation nor turns the tightness sum infinite.
func TestBoundRuleSharedBySinkAndCalibrate(t *testing.T) {
	for _, c := range []struct{ est, realized float64 }{
		{5e-324, 1}, {1, 2}, {2, 1}, {0, 1}, {-1, 1}, {1, 1 + 1e-10}, {1, math.NaN()}, {math.Inf(1), 1},
	} {
		reg := NewRegistry()
		m := NewTunerMetrics(reg)
		m.Sink().Emit(Event{Type: EvEval, Fields: F{"est_dt": c.est, "realized_dt": c.realized}})
		kc := Calibrate([]CalibSample{{Kind: "k", EstDT: c.est, RealizedDT: c.realized}}, WhatIfEconomy{}).Overall
		if got := m.BoundViolations.Value(); got != float64(kc.BoundViolations) {
			t.Errorf("est %g realized %g: sink counts %g violations, Calibrate %d", c.est, c.realized, got, kc.BoundViolations)
		}
		if got := m.BoundTightness.Count(); got != uint64(kc.Rated) {
			t.Errorf("est %g realized %g: sink observes %d ratios, Calibrate rates %d", c.est, c.realized, got, kc.Rated)
		}
		reg.VisitSamples(func(name, _ string, v float64) {
			if name == "tuner_penalty_bound_tightness_sum" && (math.IsInf(v, 0) || math.IsNaN(v)) {
				t.Errorf("est %g realized %g: tightness sum %g", c.est, c.realized, v)
			}
		})
	}
}
