package service

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/workloads"
)

// DriftOptions configure when the windowed workload has drifted far
// enough from the last-tuned workload to make retuning worthwhile.
type DriftOptions struct {
	// MinStatements gates retuning until the window holds at least this
	// many observations (0 = default 8).
	MinStatements int
	// ShapeThreshold is the L1 distance between weight-share histograms
	// (range [0,2]) above which the workload shape counts as drifted
	// (0 = default 0.5).
	ShapeThreshold float64
	// CostThreshold flags drift when the window's weighted cost per unit
	// weight under the current configuration exceeds the cost per unit
	// weight achieved at the last retune by this factor (0 = default 1.25).
	CostThreshold float64
}

func (o DriftOptions) withDefaults() DriftOptions {
	if o.MinStatements <= 0 {
		o.MinStatements = 8
	}
	if o.ShapeThreshold <= 0 {
		o.ShapeThreshold = 0.5
	}
	if o.CostThreshold <= 0 {
		o.CostThreshold = 1.25
	}
	return o
}

// Fingerprint characterizes one windowed workload: the statement-shape
// histogram (weight share per distinct statement), the statement-to-
// signature mapping drift attribution groups by, and the weighted cost
// per unit weight under a reference configuration.
type Fingerprint struct {
	Shares        map[string]float64
	Sigs          map[string]string // canonical SQL -> signature
	CostPerWeight float64
}

// fingerprintOf captures the window snapshot's shape histogram together
// with each statement's signature, so a later drift assessment can
// attribute share movement to signatures even after the statements
// themselves left the window.
func fingerprintOf(w *workloads.Workload) Fingerprint {
	fp := Fingerprint{
		Shares: shapeHistogram(w),
		Sigs:   make(map[string]string, len(w.Queries)),
	}
	for _, q := range w.Queries {
		if _, ok := fp.Sigs[q.SQL]; !ok {
			fp.Sigs[q.SQL] = q.Signature()
		}
	}
	return fp
}

// shapeHistogram builds the normalized weight-share histogram of w.
func shapeHistogram(w *workloads.Workload) map[string]float64 {
	total := w.TotalWeight()
	shares := make(map[string]float64, len(w.Queries))
	if total <= 0 {
		return shares
	}
	for _, q := range w.Queries {
		shares[q.SQL] += q.Weight / total
	}
	return shares
}

// shapeDistance is the L1 distance between two share histograms, in
// [0,2]: 0 for identical shapes, 2 for disjoint statement sets.
func shapeDistance(a, b map[string]float64) float64 {
	d := 0.0
	for k, av := range a {
		d += math.Abs(av - b[k])
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok {
			d += bv
		}
	}
	return d
}

// DriftReport is the outcome of one drift assessment.
type DriftReport struct {
	Drifted bool `json:"drifted"`
	// ShapeDistance is the histogram L1 distance to the last-tuned
	// workload, CostRatio the cost-per-weight inflation under the current
	// configuration (1 = no regression; 0 when no cost signal exists).
	ShapeDistance float64 `json:"shape_distance"`
	CostRatio     float64 `json:"cost_ratio"`
	Reason        string  `json:"reason,omitempty"`
	// Movers rank the signatures whose share movement drove
	// ShapeDistance, largest contribution first; MoverShare is the
	// fraction of the distance they jointly explain.
	Movers     []DriftMover `json:"movers,omitempty"`
	MoverShare float64      `json:"mover_share,omitempty"`
}

// DriftMover is one signature's contribution to the shape distance.
type DriftMover struct {
	Signature string `json:"signature"`
	// Direction is "up" (grew), "down" (shrank), or "churn" (net share
	// unchanged but statements moved within the signature).
	Direction     string  `json:"direction"`
	BaselineShare float64 `json:"baseline_share"`
	CurrentShare  float64 `json:"current_share"`
	// Delta is the net share change; DistanceShare the fraction of the
	// total shape distance this signature's per-statement movement
	// accounts for (all signatures' DistanceShares sum to 1).
	Delta         float64 `json:"delta"`
	DistanceShare float64 `json:"distance_share"`
}

// moverCoverageTarget is the fraction of the shape distance the reported
// movers must jointly explain before the ranking is cut off.
const moverCoverageTarget = 0.95

// maxMovers caps the reported ranking; the tail beyond the coverage
// target is noise for a human reader.
const maxMovers = 12

// computeMovers decomposes the shape distance into per-signature
// contributions. Each per-statement |Δshare| term of the L1 distance is
// attributed to that statement's signature, so the DistanceShares sum to
// exactly 1 — grouping shares *before* differencing would let opposing
// statement movements inside one signature cancel and the attribution
// would no longer cover the distance.
func computeMovers(baseline, cur Fingerprint, distance float64) ([]DriftMover, float64) {
	if distance <= 0 {
		return nil, 0
	}
	sigOf := func(sql string) string {
		if s, ok := cur.Sigs[sql]; ok {
			return s
		}
		if s, ok := baseline.Sigs[sql]; ok {
			return s
		}
		return "?"
	}
	type agg struct {
		base, cur, abs float64
	}
	groups := map[string]*agg{}
	group := func(sig string) *agg {
		g := groups[sig]
		if g == nil {
			g = &agg{}
			groups[sig] = g
		}
		return g
	}
	for sql, cv := range cur.Shares {
		g := group(sigOf(sql))
		g.cur += cv
		g.abs += math.Abs(cv - baseline.Shares[sql])
	}
	for sql, bv := range baseline.Shares {
		g := group(sigOf(sql))
		g.base += bv
		if _, ok := cur.Shares[sql]; !ok {
			g.abs += bv
		}
	}
	movers := make([]DriftMover, 0, len(groups))
	for sig, g := range groups {
		if g.abs == 0 {
			continue
		}
		m := DriftMover{
			Signature:     sig,
			BaselineShare: g.base,
			CurrentShare:  g.cur,
			Delta:         g.cur - g.base,
			DistanceShare: g.abs / distance,
		}
		switch {
		case m.Delta > 1e-12:
			m.Direction = "up"
		case m.Delta < -1e-12:
			m.Direction = "down"
		default:
			m.Direction = "churn"
		}
		movers = append(movers, m)
	}
	sort.Slice(movers, func(i, j int) bool {
		if movers[i].DistanceShare != movers[j].DistanceShare {
			return movers[i].DistanceShare > movers[j].DistanceShare
		}
		return movers[i].Signature < movers[j].Signature
	})
	covered := 0.0
	for i, m := range movers {
		if (covered >= moverCoverageTarget || i >= maxMovers) && i > 0 {
			movers = movers[:i]
			break
		}
		covered += m.DistanceShare
	}
	return movers, covered
}

// assess compares the current window fingerprint against the baseline
// taken at the last retune. A nil baseline (never tuned) drifts as soon
// as the window holds MinStatements observations.
func assess(opts DriftOptions, baseline *Fingerprint, cur Fingerprint, observations int64) DriftReport {
	o := opts.withDefaults()
	if observations < int64(o.MinStatements) {
		return DriftReport{Reason: fmt.Sprintf("window holds %d/%d statements", observations, o.MinStatements)}
	}
	if baseline == nil {
		return DriftReport{Drifted: true, ShapeDistance: 2, Reason: "never tuned"}
	}
	rep := DriftReport{ShapeDistance: shapeDistance(cur.Shares, baseline.Shares)}
	rep.Movers, rep.MoverShare = computeMovers(*baseline, cur, rep.ShapeDistance)
	if baseline.CostPerWeight > 0 && cur.CostPerWeight > 0 {
		rep.CostRatio = cur.CostPerWeight / baseline.CostPerWeight
	}
	switch {
	case rep.ShapeDistance >= o.ShapeThreshold:
		rep.Drifted = true
		rep.Reason = fmt.Sprintf("shape distance %.3f >= %.3f", rep.ShapeDistance, o.ShapeThreshold)
	case rep.CostRatio >= o.CostThreshold:
		rep.Drifted = true
		rep.Reason = fmt.Sprintf("cost ratio %.3f >= %.3f", rep.CostRatio, o.CostThreshold)
	}
	return rep
}

// WriteText renders the report as the table served by
// GET /drift?format=text.
func (r *DriftReport) WriteText(w io.Writer) {
	verdict := "no drift"
	if r.Drifted {
		verdict = "DRIFTED"
	}
	fmt.Fprintf(w, "drift: %s (shape distance %.3f, cost ratio %.3f)\n", verdict, r.ShapeDistance, r.CostRatio)
	if r.Reason != "" {
		fmt.Fprintf(w, "reason: %s\n", r.Reason)
	}
	if len(r.Movers) == 0 {
		return
	}
	fmt.Fprintf(w, "\nmovers (%.0f%% of distance):\n", r.MoverShare*100)
	fmt.Fprintf(w, "%-28s %-6s %9s %9s %9s %9s\n", "SIGNATURE", "DIR", "BASE", "NOW", "DELTA", "DIST%")
	for _, m := range r.Movers {
		fmt.Fprintf(w, "%-28s %-6s %8.1f%% %8.1f%% %+8.1f%% %8.1f%%\n",
			m.Signature, m.Direction, m.BaselineShare*100, m.CurrentShare*100, m.Delta*100, m.DistanceShare*100)
	}
}
