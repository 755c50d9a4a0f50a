// Package baseline implements a bottom-up physical design advisor in the
// architecture the paper describes for state-of-the-art commercial tools
// (CTT): per-query candidate selection driven by syntactic heuristics,
// a separate candidate-merging step, and greedy knapsack-style
// enumeration that starts from the empty configuration and adds
// structures until the space budget is exhausted, estimating benefits
// with atomic configurations.
//
// The known weaknesses the paper attributes to this architecture are
// reproduced deliberately: candidate ranking can be off-sync with the
// optimizer, merging is eager and happens before any enumeration, and
// atomic-configuration benefits ignore structure interactions — which is
// why the relaxation-based tuner can beat it (Figures 8-10) and why its
// tuning times are much higher (Table 3).
package baseline

import (
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/physical"
	"repro/internal/sqlx"
)

// Options configure the bottom-up advisor.
type Options struct {
	// SpaceBudget in bytes (0 = unconstrained).
	SpaceBudget int64
	// NoViews restricts candidate generation to indexes.
	NoViews bool
	// MaxCandidatesPerQuery caps per-query candidates (the paper notes
	// such caps are how these tools stay scalable).
	MaxCandidatesPerQuery int
	// TimeBudget bounds tuning wall-clock time (0 = unbounded).
	TimeBudget time.Duration

	// CostBound, when positive, is a lower bound on achievable workload
	// cost (e.g. the relaxation tuner's optimal configuration, Figure 3).
	// Together with StopWithinPct it implements the paper's advisory:
	// stop tuning once the best configuration is within StopWithinPct
	// percent of the bound, since further search cannot pay off.
	CostBound     float64
	StopWithinPct float64
}

// ProgressPoint records the best configuration cost over time (Figure 3).
type ProgressPoint struct {
	Elapsed   time.Duration
	Step      int
	BestCost  float64
	SizeBytes int64
}

// Result is the advisor's outcome.
type Result struct {
	Initial *core.EvaluatedConfig
	Best    *core.EvaluatedConfig
	// Progress traces best-so-far cost after each greedy addition.
	Progress []ProgressPoint
	// Candidates is the number of structures considered after merging.
	Candidates     int
	OptimizerCalls int64
	Elapsed        time.Duration
	// StoppedAtBound reports that tuning ended early because the best
	// configuration reached the provided cost bound (Figure 3's advisory).
	StoppedAtBound bool
}

// ImprovementPct returns the paper's quality metric for the final
// recommendation.
func (r *Result) ImprovementPct() float64 {
	if r.Best == nil || r.Initial == nil {
		return 0
	}
	return core.Improvement(r.Initial.Cost, r.Best.Cost)
}

// Tune runs the bottom-up advisor over the session's workload. It shares
// the tuner's optimizer and evaluation machinery so both advisors are
// compared under identical cost models.
func Tune(t *core.Tuner, opts Options) (*Result, error) {
	start := time.Now()
	stats0 := t.Opt.Stats()
	if opts.MaxCandidatesPerQuery <= 0 {
		opts.MaxCandidatesPerQuery = 8
	}
	res := &Result{}

	initial, err := t.Evaluate(t.Base)
	if err != nil {
		return nil, err
	}
	res.Initial = initial

	cands := generateCandidates(t, opts)
	cands = mergeRound(t, cands)
	res.Candidates = len(cands)

	// Atomic-configuration benefits: each candidate is evaluated on top
	// of the base configuration in isolation.
	type scored struct {
		c       *candidateStruct
		ec      *core.EvaluatedConfig // the base configuration plus c
		benefit float64
		size    int64
	}
	var pool []scored
	for _, c := range cands {
		if c.index != nil && t.Base.HasIndex(c.index.ID()) {
			continue // already in the base configuration: no benefit to measure
		}
		cfg := t.Base.Clone()
		c.addTo(cfg)
		ec, err := t.Evaluate(cfg)
		if err != nil {
			continue // unusable candidate (e.g. view that fails to bind)
		}
		benefit := initial.Cost - ec.Cost
		size := ec.SizeBytes - initial.SizeBytes
		if benefit <= 0 || size <= 0 {
			continue
		}
		pool = append(pool, scored{c: c, ec: ec, benefit: benefit, size: size})
	}
	sort.SliceStable(pool, func(i, j int) bool {
		return pool[i].benefit/float64(pool[i].size) > pool[j].benefit/float64(pool[j].size)
	})

	// Greedy knapsack over static atomic benefits.
	current := t.Base.Clone()
	best := initial
	currentSize := initial.SizeBytes
	step := 0
	for _, s := range pool {
		if opts.TimeBudget > 0 && time.Since(start) > opts.TimeBudget {
			break
		}
		if opts.SpaceBudget > 0 && currentSize+s.size > opts.SpaceBudget {
			continue
		}
		next := current.Clone()
		s.c.addTo(next)
		// Until an addition is accepted current is still the base
		// configuration, and next is what the atomic pass evaluated.
		ec := s.ec
		if step > 0 {
			if ec, err = t.Evaluate(next); err != nil {
				continue
			}
		}
		if opts.SpaceBudget > 0 && ec.SizeBytes > opts.SpaceBudget {
			continue
		}
		step++
		// Interactions can make an addition harmful; the greedy strategy
		// keeps it anyway when the atomic benefit was positive (the
		// paper's criticism), but the best-so-far configuration is
		// remembered.
		current = next
		currentSize = ec.SizeBytes
		if ec.Cost < best.Cost {
			best = ec
		}
		res.Progress = append(res.Progress, ProgressPoint{
			Elapsed: time.Since(start), Step: step, BestCost: best.Cost, SizeBytes: ec.SizeBytes,
		})
		// Figure 3's advisory: with a known lower bound on achievable
		// cost, stop once the remaining headroom is negligible.
		if opts.CostBound > 0 && opts.StopWithinPct > 0 {
			headroom := (best.Cost - opts.CostBound) / opts.CostBound * 100
			if headroom <= opts.StopWithinPct {
				res.StoppedAtBound = true
				break
			}
		}
	}

	res.Best = best
	stats1 := t.Opt.Stats()
	res.OptimizerCalls = stats1.OptimizeCalls - stats0.OptimizeCalls
	res.Elapsed = time.Since(start)
	return res, nil
}

// candidateStruct is either an index or a materialized view candidate.
type candidateStruct struct {
	index *physical.Index
	view  *physical.View
	vidx  []*physical.Index // indexes over the view (clustered first)
}

func (c *candidateStruct) addTo(cfg *physical.Configuration) {
	if c.index != nil {
		cfg.AddIndex(c.index)
	}
	if c.view != nil {
		v := cfg.AddView(c.view)
		for _, ix := range c.vidx {
			if ix.Table != v.Name {
				// Rebuild instead of clone-and-mutate so the re-targeted
				// index carries a sealed identity cache.
				ix = physical.NewIndex(v.Name, ix.Keys, ix.Suffix, ix.Clustered)
			}
			cfg.AddIndex(ix)
		}
	}
}

func (c *candidateStruct) key() string {
	if c.index != nil {
		return c.index.ID()
	}
	return "v:" + c.view.Signature()
}

// generateCandidates derives per-query candidates from query syntax: the
// classic heuristics (equality/range columns as keys, covering variants,
// join columns, group-by and order-by columns, and whole-query views).
func generateCandidates(t *core.Tuner, opts Options) []*candidateStruct {
	seen := map[string]bool{}
	var out []*candidateStruct
	add := func(c *candidateStruct) {
		if c == nil {
			return
		}
		if k := c.key(); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	for _, tq := range t.Queries {
		perQuery := candidatesForQuery(t, tq, opts)
		if len(perQuery) > opts.MaxCandidatesPerQuery {
			// Rank heuristically: larger tables first (a syntactic proxy
			// for benefit that can be off-sync with the optimizer).
			sort.SliceStable(perQuery, func(i, j int) bool {
				return candTableRows(t, perQuery[i]) > candTableRows(t, perQuery[j])
			})
			perQuery = perQuery[:opts.MaxCandidatesPerQuery]
		}
		for _, c := range perQuery {
			add(c)
		}
	}
	return out
}

func candTableRows(t *core.Tuner, c *candidateStruct) int64 {
	if c.index != nil {
		if tb := t.DB.Table(c.index.Table); tb != nil {
			return tb.Rows
		}
	}
	if c.view != nil {
		return c.view.EstRows
	}
	return 0
}

func candidatesForQuery(t *core.Tuner, tq *core.TunedQuery, opts Options) []*candidateStruct {
	q := tq.Bound
	var out []*candidateStruct
	for _, table := range q.Tables {
		tp := q.TablePred(table)
		needed := q.NeededCols(table)
		var eqCols, rangeCols []string
		for _, s := range tp.Sargs {
			if s.Iv.IsPoint() {
				eqCols = append(eqCols, s.Col)
			} else {
				rangeCols = append(rangeCols, s.Col)
			}
		}
		var joinCols []string
		for _, j := range q.Joins {
			if j.L.Table == table {
				joinCols = append(joinCols, j.L.Column)
			}
			if j.R.Table == table {
				joinCols = append(joinCols, j.R.Column)
			}
		}
		var groupCols, orderCols []string
		for _, g := range q.GroupBy {
			if g.Table == table {
				groupCols = append(groupCols, g.Column)
			}
		}
		for _, o := range q.OrderBy {
			if o.Table == table {
				orderCols = append(orderCols, o.Column)
			}
		}
		addIdx := func(keys []string, covering bool) {
			if len(keys) == 0 {
				return
			}
			var suffix []string
			if covering {
				suffix = needed
			}
			out = append(out, &candidateStruct{index: physical.NewIndex(table, keys, suffix, false)})
		}
		addIdx(eqCols, false)
		addIdx(append(append([]string(nil), eqCols...), rangeCols...), false)
		addIdx(append(append([]string(nil), eqCols...), rangeCols...), true)
		addIdx(joinCols, false)
		addIdx(joinCols, true)
		addIdx(groupCols, true)
		addIdx(orderCols, false)
	}
	if !opts.NoViews {
		if v := wholeQueryView(t, tq); v != nil {
			keys := viewClusterKeys(v)
			cix := physical.NewIndex(v.Name, keys, subtractStrings(v.AllColumnNames(), keys), true)
			out = append(out, &candidateStruct{view: v, vidx: []*physical.Index{cix}})
		}
	}
	return out
}

// wholeQueryView derives a materialized view covering the whole query
// block (the classic syntactic view candidate).
func wholeQueryView(t *core.Tuner, tq *core.TunedQuery) *physical.View {
	q := tq.Bound
	if q.IsUpdate() || len(q.Tables) == 0 {
		return nil
	}
	v := &physical.View{Tables: append([]string(nil), q.Tables...)}
	sort.Strings(v.Tables)
	v.Joins = append(v.Joins, q.Joins...)
	for _, table := range q.Tables {
		tp := q.TablePred(table)
		for _, s := range tp.Sargs {
			v.Ranges = append(v.Ranges, physical.RangeCond{
				Col: sqlx.ColRef{Table: table, Column: s.Col}, Iv: s.Iv,
			})
		}
		for _, oc := range tp.Others {
			v.Others = append(v.Others, oc.Expr)
		}
	}
	for _, oc := range q.CrossOthers {
		v.Others = append(v.Others, oc.Expr)
	}
	v.GroupBy = append(v.GroupBy, q.GroupBy...)
	for _, sc := range q.SelectCols {
		if vcExists(v, sc.Name) {
			continue
		}
		v.Cols = append(v.Cols, sc)
	}
	for _, g := range q.GroupBy {
		c := physical.BaseViewColumn(g, 8)
		if !vcExists(v, c.Name) {
			v.Cols = append(v.Cols, c)
		}
	}
	for _, o := range q.OrderBy {
		c := physical.BaseViewColumn(o, 8)
		if !vcExists(v, c.Name) {
			v.Cols = append(v.Cols, c)
		}
	}
	if len(v.Cols) == 0 {
		return nil
	}
	v.EstRows = t.Opt.EstimateViewRows(v)
	v.Name = physical.ViewNameFor(v)
	return v
}

func vcExists(v *physical.View, name string) bool { return v.Column(name) != nil }

func viewClusterKeys(v *physical.View) []string {
	if len(v.GroupBy) > 0 {
		var keys []string
		for _, g := range v.GroupBy {
			if vc := v.ColumnForSource(g); vc != nil {
				keys = append(keys, vc.Name)
			}
		}
		if len(keys) > 0 {
			return keys
		}
	}
	return v.AllColumnNames()[:1]
}

// mergeRound performs the eager candidate-merging step: every pair of
// same-table index candidates is merged once (following the restriction
// in the literature that each structure is merged at most once).
func mergeRound(t *core.Tuner, cands []*candidateStruct) []*candidateStruct {
	merged := map[string]bool{}
	seen := map[string]bool{}
	var out []*candidateStruct
	for _, c := range cands {
		if !seen[c.key()] {
			seen[c.key()] = true
			out = append(out, c)
		}
	}
	n := len(out)
	for i := 0; i < n; i++ {
		if out[i].index == nil || merged[out[i].key()] {
			continue
		}
		for j := i + 1; j < n; j++ {
			if out[j].index == nil || merged[out[j].key()] {
				continue
			}
			m := physical.MergeIndexes(out[i].index, out[j].index)
			if m == nil {
				continue
			}
			mc := &candidateStruct{index: m}
			if !seen[mc.key()] {
				seen[mc.key()] = true
				out = append(out, mc)
				merged[out[i].key()] = true
				merged[out[j].key()] = true
				break
			}
		}
	}
	return out
}

func subtractStrings(a, b []string) []string {
	var out []string
	for _, s := range a {
		if !slices.Contains(b, s) {
			out = append(out, s)
		}
	}
	return out
}
