package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// CalibrationSchemaVersion identifies the serialized CalibrationReport
// layout for archived reports and the tunerbench regression gate.
// Version 2 added the execution-grounded sample stream (Ground) and the
// per-kind NonFinite counter.
const CalibrationSchemaVersion = 2

// CalibSample pairs one accepted relaxation step's §3.3.2 estimated ΔT
// upper bound with the ΔT the evaluation then realized. Kind labels the
// one transformation that produced the step (merge-indexes, remove-view,
// ...). "multi" labels only the replay's execution-grounded pairs of
// configurations that are not lineage-adjacent, which span several steps.
type CalibSample struct {
	Kind       string  `json:"kind"`
	EstDT      float64 `json:"est_dt"`
	RealizedDT float64 `json:"realized_dt"`
}

// WhatIfEconomy aggregates the optimizer-call economy of one tuning
// session: how much what-if work the paper's optimizations avoided.
type WhatIfEconomy struct {
	// OptimizerCalls is the total what-if optimizer invocations spent.
	OptimizerCalls int64 `json:"optimizer_calls"`
	// PlansReused counts per-query evaluations answered by the §3.3.2
	// optimality principle (parent plan still valid, zero calls);
	// PlansReoptimized counts the ones that had to call the optimizer.
	PlansReused      int64 `json:"plans_reused"`
	PlansReoptimized int64 `json:"plans_reoptimized"`
	// ShortcutPrunes counts evaluations aborted early by §3.5 shortcut
	// evaluation; DuplicateSkips counts configurations skipped because
	// their fingerprint was already evaluated.
	ShortcutPrunes int64 `json:"shortcut_prunes"`
	DuplicateSkips int64 `json:"duplicate_skips"`
	// CacheHits / CacheCallsSaved account the cross-session fragment
	// cache (zero unless Options.Cache is set).
	CacheHits       int64 `json:"cache_hits,omitempty"`
	CacheCallsSaved int64 `json:"cache_calls_saved,omitempty"`
}

// ReuseRatio is the fraction of per-query evaluations that reused the
// parent plan instead of calling the optimizer.
func (e WhatIfEconomy) ReuseRatio() float64 {
	total := e.PlansReused + e.PlansReoptimized
	if total == 0 {
		return 0
	}
	return float64(e.PlansReused) / float64(total)
}

// KindCalibration scores the §3.3.2 bound for one transformation kind
// (or "overall"). The per-sample statistic is the tightness ratio
// realized/estimated: 1 means the upper bound is exact, below 1 the
// bound over-estimates (conservative, wasteful ranking), above 1 the
// bound was violated.
type KindCalibration struct {
	Kind    string `json:"kind"`
	Samples int    `json:"samples"`
	// Rated counts the samples with a positive estimate (the only ones
	// a tightness ratio is defined for).
	Rated int `json:"rated"`
	// MeanRatio / quantiles summarize realized/estimated over the
	// rated samples.
	MeanRatio float64 `json:"mean_ratio"`
	P50Ratio  float64 `json:"p50_ratio"`
	P90Ratio  float64 `json:"p90_ratio"`
	MaxRatio  float64 `json:"max_ratio"`
	// BoundViolations counts rated samples with realized > estimated
	// (the §3.3.2 bound failed to be an upper bound).
	BoundViolations int `json:"bound_violations"`
	// NonFinite counts rated samples whose tightness ratio overflowed or
	// was undefined (NaN/±Inf, e.g. a denormal-tiny estimate). They are
	// excluded from the ratio statistics so the report always
	// JSON-marshals (encoding/json rejects non-finite floats).
	NonFinite int `json:"non_finite,omitempty"`
	// RankCorrelation is the Spearman correlation between the estimated
	// and realized ΔT orderings: the penalty ranking only needs the
	// *order* to be right, so high rank correlation with loose ratios
	// still means trustworthy candidate selection. Zero when fewer than
	// two samples exist.
	RankCorrelation float64 `json:"rank_correlation"`
}

// CalibrationReport aggregates bound-calibration scores per
// transformation kind plus the session's optimizer-call economy — the
// measured answer to the paper's what-if economy claim.
type CalibrationReport struct {
	SchemaVersion int               `json:"schema_version"`
	Overall       KindCalibration   `json:"overall"`
	PerKind       []KindCalibration `json:"per_kind,omitempty"`
	Economy       WhatIfEconomy     `json:"economy"`
	// Ground is the execution-grounded second sample stream: the same
	// per-kind tightness scoring, but with "realized" ΔT measured by
	// actually replaying the workload through the executor instead of
	// estimated by another what-if call. Present only after a replay.
	Ground *GroundCalibration `json:"ground,omitempty"`
}

// GroundCalibration scores the cost model against measured execution:
// per-kind tightness of estimated ΔT against measured ΔT (normalized to
// the optimizer's cost unit), whether estimates at least order the
// replayed configurations correctly, and the measured speedup of the
// recommendation over the unindexed baseline.
type GroundCalibration struct {
	Overall KindCalibration   `json:"overall"`
	PerKind []KindCalibration `json:"per_kind,omitempty"`
	// ConfigRankCorrelation is the Spearman correlation between
	// estimated workload cost and measured wall time across all replayed
	// configurations — the "does the cost model order configurations
	// correctly?" number. 1 is a perfect ordering.
	ConfigRankCorrelation float64 `json:"config_rank_correlation"`
	// SpeedupMeasured is baseline measured wall time / recommended
	// measured wall time. Below 1 means the recommendation is measurably
	// *worse* than no tuning — the inversion the regress gate forbids.
	SpeedupMeasured float64 `json:"speedup_measured"`
	// SpeedupEstimated is the optimizer's predicted speedup for the same
	// pair of configurations at replay scale, for direct comparison.
	SpeedupEstimated float64 `json:"speedup_estimated"`
	// RowsScannedBaseline / RowsScannedRecommended compare the access-path
	// work of the two endpoint configurations (deterministic, noise-free).
	RowsScannedBaseline    int64 `json:"rows_scanned_baseline"`
	RowsScannedRecommended int64 `json:"rows_scanned_recommended"`
}

// Calibrate scores a session's est-vs-realized ΔT pairs. Samples with a
// non-positive estimate are counted but excluded from ratio statistics
// (a zero estimate admits no tightness ratio); a zero realized ΔT
// yields ratio 0 (the bound was maximally conservative).
func Calibrate(samples []CalibSample, economy WhatIfEconomy) *CalibrationReport {
	rep := &CalibrationReport{
		SchemaVersion: CalibrationSchemaVersion,
		Overall:       scoreKind("overall", samples),
		Economy:       economy,
	}
	byKind := map[string][]CalibSample{}
	var kinds []string
	for _, s := range samples {
		if _, ok := byKind[s.Kind]; !ok {
			kinds = append(kinds, s.Kind)
		}
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		rep.PerKind = append(rep.PerKind, scoreKind(k, byKind[k]))
	}
	return rep
}

// CalibrateGrounded extends Calibrate with the execution-grounded sample
// stream from a replay: the ground samples get the same per-kind scoring
// as the estimate-vs-estimate stream, plus the configuration-level rank
// correlation and measured speedup carried over from the replay report.
// A nil ground report degrades to plain Calibrate.
func CalibrateGrounded(samples []CalibSample, economy WhatIfEconomy, gt *GroundTruthReport) *CalibrationReport {
	rep := Calibrate(samples, economy)
	rep.AttachGroundTruth(gt)
	return rep
}

// AttachGroundTruth fills the report's Ground block from a replay
// report. nil is a no-op, so callers can attach unconditionally.
func (r *CalibrationReport) AttachGroundTruth(gt *GroundTruthReport) {
	if gt == nil {
		return
	}
	g := &GroundCalibration{
		Overall:               scoreKind("overall", gt.Samples),
		ConfigRankCorrelation: gt.RankCorrelation,
		SpeedupMeasured:       gt.SpeedupMeasured,
		SpeedupEstimated:      gt.SpeedupEstimated,
	}
	if base, rec := gt.Baseline(), gt.Recommended(); base != nil && rec != nil {
		g.RowsScannedBaseline = base.RowsScanned
		g.RowsScannedRecommended = rec.RowsScanned
	}
	byKind := map[string][]CalibSample{}
	var kinds []string
	for _, s := range gt.Samples {
		if _, ok := byKind[s.Kind]; !ok {
			kinds = append(kinds, s.Kind)
		}
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		g.PerKind = append(g.PerKind, scoreKind(k, byKind[k]))
	}
	r.Ground = g
}

func scoreKind(kind string, samples []CalibSample) KindCalibration {
	kc := KindCalibration{Kind: kind, Samples: len(samples)}
	var ratios []float64
	var est, realized []float64
	for _, s := range samples {
		if math.IsNaN(s.EstDT) || math.IsNaN(s.RealizedDT) ||
			math.IsInf(s.EstDT, 0) || math.IsInf(s.RealizedDT, 0) {
			kc.NonFinite++
			continue
		}
		est = append(est, s.EstDT)
		realized = append(realized, s.RealizedDT)
		r, rated, violated := rateBound(s.EstDT, s.RealizedDT)
		if !rated {
			if s.EstDT > 0 {
				kc.NonFinite++ // the ratio overflowed
			}
			continue
		}
		ratios = append(ratios, r)
		if violated {
			kc.BoundViolations++
		}
	}
	kc.Rated = len(ratios)
	if len(ratios) > 0 {
		sum := 0.0
		kc.MaxRatio = math.Inf(-1)
		for _, r := range ratios {
			sum += r
			if r > kc.MaxRatio {
				kc.MaxRatio = r
			}
		}
		kc.MeanRatio = sum / float64(len(ratios))
		sorted := append([]float64(nil), ratios...)
		sort.Float64s(sorted)
		kc.P50Ratio = quantileSorted(sorted, 0.50)
		kc.P90Ratio = quantileSorted(sorted, 0.90)
	}
	kc.RankCorrelation = Spearman(est, realized)
	return kc
}

// rateBound is the §3.3.2 rule Calibrate and the metrics sink share: a
// sample is rated when est is positive and finite and realized/est is
// finite (a denormal-tiny est can overflow it), and a rated sample
// violates its bound when realized exceeds est·(1+1e-9).
func rateBound(est, realized float64) (ratio float64, rated, violated bool) {
	ratio = realized / est
	if !(est > 0) || math.IsInf(est, 1) || math.IsNaN(ratio) || math.IsInf(ratio, 0) {
		return 0, false, false
	}
	return ratio, true, realized > est*(1+1e-9)
}

// quantileSorted returns the q-quantile of an ascending slice using
// linear interpolation between closest ranks (the R-7 / numpy default).
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Spearman computes the Spearman rank-correlation coefficient between
// two equal-length series, using average ranks for ties. It returns 0
// for fewer than two samples or when either series is constant.
func Spearman(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	ra := ranks(a)
	rb := ranks(b)
	// Pearson correlation of the rank vectors (exact under ties).
	n := float64(len(ra))
	var sa, sb float64
	for i := range ra {
		sa += ra[i]
		sb += rb[i]
	}
	ma, mb := sa/n, sb/n
	var cov, va, vb float64
	for i := range ra {
		da, db := ra[i]-ma, rb[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// ranks assigns 1-based ranks with ties receiving their average rank.
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return xs[idx[i]] < xs[idx[j]] })
	out := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// Positions i..j share the same value; average their ranks.
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}

// WriteText renders the calibration report as a compact table.
func (r *CalibrationReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "%-16s %7s %7s %8s %8s %8s %6s %8s\n",
		"kind", "samples", "rated", "mean", "p50", "p90", "viol", "rankcorr")
	row := func(kc KindCalibration) {
		fmt.Fprintf(w, "%-16s %7d %7d %8.3f %8.3f %8.3f %6d %8.3f\n",
			kc.Kind, kc.Samples, kc.Rated, kc.MeanRatio, kc.P50Ratio, kc.P90Ratio,
			kc.BoundViolations, kc.RankCorrelation)
	}
	row(r.Overall)
	for _, kc := range r.PerKind {
		row(kc)
	}
	e := r.Economy
	fmt.Fprintf(w, "economy: %d optimizer calls; plans %d reused / %d re-optimized (%.0f%% reuse); %d shortcut prunes; %d duplicate skips",
		e.OptimizerCalls, e.PlansReused, e.PlansReoptimized, 100*e.ReuseRatio(), e.ShortcutPrunes, e.DuplicateSkips)
	if e.CacheHits > 0 || e.CacheCallsSaved > 0 {
		fmt.Fprintf(w, "; cache saved %d calls over %d hits", e.CacheCallsSaved, e.CacheHits)
	}
	fmt.Fprintln(w)
	if g := r.Ground; g != nil {
		fmt.Fprintln(w, "\nground truth (measured ΔT / estimated §3.3.2 bound, executor replay):")
		row(g.Overall)
		for _, kc := range g.PerKind {
			row(kc)
		}
		fmt.Fprintf(w, "measured speedup %.2fx (estimated %.2fx); config rank correlation %.3f; rows scanned %d -> %d\n",
			g.SpeedupMeasured, g.SpeedupEstimated, g.ConfigRankCorrelation,
			g.RowsScannedBaseline, g.RowsScannedRecommended)
	}
}
