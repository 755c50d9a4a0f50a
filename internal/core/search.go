package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/physical"
	"repro/internal/plan"
)

// FrontierPoint is one (space, cost) observation made during the search;
// the set of points is the by-product distribution of configurations the
// paper highlights (Figure 4) — the cost-vs-storage trajectory, captured
// as a first-class output on Result.Frontier.
type FrontierPoint struct {
	Iteration int     `json:"iteration"`
	SizeBytes int64   `json:"size_bytes"`
	Cost      float64 `json:"cost"`
	Fits      bool    `json:"fits"`
	// Transformation names the relaxation step that produced the point
	// (empty for the optimal/warm-start seeds); Penalty is its estimated
	// ΔT/ΔS penalty at selection time.
	Transformation string  `json:"transformation,omitempty"`
	Penalty        float64 `json:"penalty,omitempty"`
}

// Result is the outcome of a relaxation-based tuning session.
type Result struct {
	// Initial is the base configuration (existing indexes only).
	Initial *EvaluatedConfig
	// Optimal is the §2 optimal configuration (unconstrained lower bound
	// for SELECT-only workloads).
	Optimal *EvaluatedConfig
	// Best is the recommended configuration under the space constraint.
	Best *EvaluatedConfig
	// Frontier records every configuration evaluated during the search.
	Frontier []FrontierPoint
	// TransCensus is the number of candidate transformations available at
	// each iteration (Figure 6).
	TransCensus []int
	Iterations  int
	// OptimizerCalls, IndexRequests, ViewRequests count optimizer work.
	OptimizerCalls int64
	IndexRequests  int64
	ViewRequests   int64
	Elapsed        time.Duration
	// Explain is the per-structure decision log: which statements
	// demanded each structure, which transformations touched it along
	// the winning lineage, and why the final state won. Always built;
	// costs no optimizer calls.
	Explain *ExplainReport
	// CalibSamples pairs every accepted relaxation step's estimated ΔT
	// upper bound (§3.3.2) with the realized ΔT — the raw material of
	// the calibration report. Recorded unconditionally; each sample is
	// two floats and a kind string.
	CalibSamples []obs.CalibSample
	// Economy aggregates the session's optimizer-call economy: plans
	// reused vs re-optimized, shortcut prunes, duplicate skips, cache
	// savings.
	Economy obs.WhatIfEconomy
	// ParallelWorkers is the worker count the evaluation engine ran with
	// (Options.Workers()); 1 means the exact serial algorithm.
	ParallelWorkers int
	// Lineage is the winning relaxation lineage root-first: each entry is
	// one accepted step between the optimal configuration and Best, with
	// the full configuration at that point. Empty when no relaxation was
	// needed (Best is the optimal or initial configuration). The replay
	// harness re-executes these configurations against real data.
	Lineage []LineageStep
}

// LineageStep is one accepted step of the winning relaxation lineage.
type LineageStep struct {
	// Iteration is the search iteration that accepted the step.
	Iteration int
	// Kind is the kind of the one transformation that produced it.
	Kind string
	// EstCost / SizeBytes are the step's evaluated workload cost and
	// configuration size.
	EstCost   float64
	SizeBytes int64
	// Config is the configuration after the step (shared, do not mutate).
	Config *physical.Configuration
}

// ImprovementPct returns the paper's improvement metric for the final
// recommendation relative to the initial configuration.
func (r *Result) ImprovementPct() float64 {
	if r.Best == nil || r.Initial == nil {
		return 0
	}
	return Improvement(r.Initial.Cost, r.Best.Cost)
}

// searchNode is one configuration in the pool CP of Figure 5.
type searchNode struct {
	eval   *EvaluatedConfig
	parent *searchNode
	// realizedPenalty is the actual ΔT/ΔS observed when this node was
	// produced from its parent (heuristic 2 of §3.4).
	realizedPenalty float64
	// enum.Trans are the node's transformations; the rest of enum is what a
	// child's enumeration takes over from this one.
	enum *physical.Enumeration
	// deltas and tried are aligned with enum.Trans: deltas[i] is the bound
	// of enum.Trans[i] once known, tried[i] whether the search tried it.
	// enum.From says where the parent's enumeration has the very same
	// transformation, so that is where a bound is inherited from.
	deltas []nodeDelta
	tried  []bool
	// untried counts the false entries of tried; markTried is the only
	// writer of both. The census of Figure 6 and node selection read it
	// every iteration.
	untried int
	// ranked is set by the node's first ranking, which is when deltas is
	// allocated and takes over what the parent can hand down
	// (inheritDeltas).
	ranked bool
	// iteration and applied record the node's provenance (the
	// transformation that produced it from its parent, and when) so
	// the winning lineage can be replayed and explained.
	iteration int
	applied   *physical.Transformation
}

// nodeDelta is a node's (ΔT, ΔS) of one transformation, valid once known.
type nodeDelta struct {
	Delta
	known bool
}

func (n *searchNode) markTried(i int) {
	if !n.tried[i] {
		n.tried[i] = true
		n.untried--
	}
}

// Tune runs the full relaxation-based algorithm (Figure 5 instantiated
// with the §3.4 heuristics) and returns the recommendation plus all
// by-products.
func (t *Tuner) Tune() (*Result, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := time.Now()
	stats0 := t.Opt.Stats()
	reused0, reopt0 := t.statPlansReused.Load(), t.statPlansReopt.Load()
	var cache0 CacheStats
	if t.Options.Cache != nil {
		cache0 = t.Options.Cache.Stats()
	}
	// The session span rides the tracer alone: the profiler's top-level
	// phases partition the session, so "tune" must not be one of them.
	trace := t.Options.Trace
	var budget obs.F
	if trace.Enabled() {
		budget = obs.F{"budget": t.Options.SpaceBudget}
	}
	endTune := trace.Span("tune", budget)
	res, err := t.runSearch(start)
	stats := t.Opt.Stats()
	if err != nil {
		endTune(callFields(stats0, stats, obs.F{"error": err.Error()}))
		return nil, err
	}
	res.OptimizerCalls = stats.OptimizeCalls - stats0.OptimizeCalls
	res.IndexRequests = stats.IndexRequests - stats0.IndexRequests
	res.ViewRequests = stats.ViewRequests - stats0.ViewRequests
	res.Elapsed = time.Since(start)
	res.ParallelWorkers = t.workers()
	res.Economy.OptimizerCalls = res.OptimizerCalls
	res.Economy.PlansReused = t.statPlansReused.Load() - reused0
	res.Economy.PlansReoptimized = t.statPlansReopt.Load() - reopt0
	if c := t.Options.Cache; c != nil {
		cs := c.Stats()
		res.Economy.CacheHits = cs.Hits - cache0.Hits
		res.Economy.CacheCallsSaved = cs.CallsSaved - cache0.CallsSaved
	}
	res.Explain.Calibration = obs.Calibrate(res.CalibSamples, res.Economy)
	if trace.Enabled() {
		endTune(callFields(stats0, stats, obs.F{
			"best_fp":          res.Best.Config.Fingerprint(),
			"best_cost":        res.Best.Cost,
			"best_size":        res.Best.SizeBytes,
			"improvement_pct":  res.ImprovementPct(),
			"iterations":       res.Iterations,
			"parallel_workers": res.ParallelWorkers,
		}))
	}
	return res, nil
}

// runSearch is the traced body of Tune: Figure 5 instantiated with the
// §3.4 heuristics, emitting one iteration/candidates/apply event group
// per relaxation step, closed by the eval or skip event the step ended
// in, and recording the winning lineage for the explain report.
func (t *Tuner) runSearch(start time.Time) (*Result, error) {
	trace := t.Options.Trace
	prof := t.Options.Profile
	res := &Result{}

	endPhase := t.span("evaluate-initial")
	initial, err := t.evaluate(t.Base)
	if err != nil {
		endPhase(obs.F{"error": err.Error()})
		return nil, err
	}
	endPhase(obs.F{"cost": initial.Cost, "size": initial.SizeBytes})
	res.Initial = initial
	// seen, below, is consulted before every evaluation, so the search
	// evaluates no configuration twice. The base configuration is the one
	// configuration seen is not told about up front — it is not a pool node
	// — and the one a session can come back to: a tight budget relaxes all
	// the way down to it, and a warm-start (or even the optimal)
	// configuration may be it. initial already is that evaluation.
	baseDigest := t.Base.Digest()
	evalAt := func(digest uint64, parent *EvaluatedConfig, cfg *physical.Configuration, removedIdx, removedViews []string, cutoff float64) (*EvaluatedConfig, bool, error) {
		if digest == baseDigest && cfg.Equal(t.Base) {
			return initial, true, nil
		}
		return t.evalQueries(parent, cfg, removedIdx, removedViews, cutoff)
	}

	endPhase = t.span("optimal-config")
	optimalCfg, err := t.optimalConfiguration()
	if err != nil {
		endPhase(obs.F{"error": err.Error()})
		return nil, err
	}
	endPhase(obs.F{"indexes": optimalCfg.NumIndexes(), "views": optimalCfg.NumViews()})

	endPhase = t.span("evaluate-optimal")
	optimalDigest := optimalCfg.Digest()
	optimal, _, err := evalAt(optimalDigest, nil, optimalCfg, nil, nil, 0)
	if err != nil {
		endPhase(obs.F{"error": err.Error()})
		return nil, err
	}
	endPhase(obs.F{"cost": optimal.Cost, "size": optimal.SizeBytes, "fp": optimalCfg.Fingerprint()})
	res.Optimal = optimal

	hasUpdates := t.hasUpdates()
	budget := t.Options.SpaceBudget
	unconstrained := budget <= 0
	if unconstrained && !hasUpdates {
		// §2/§4.1: with no constraints and no updates the optimal
		// configuration is the answer; no search is needed.
		res.Best = optimal
		res.Frontier = append(res.Frontier,
			FrontierPoint{SizeBytes: optimal.SizeBytes, Cost: optimal.Cost, Fits: true})
		res.Explain = t.buildExplain(res, nil, explainSourceOptimal)
		return res, nil
	}
	effBudget := budget
	if unconstrained {
		effBudget = math.MaxInt64
	}

	fits := func(ec *EvaluatedConfig) bool { return ec.SizeBytes <= effBudget }
	endEnum := prof.StartAlloc("enumerate-root")
	root, err := t.newSearchNode(optimal, nil, 0)
	endEnum()
	if err != nil {
		return nil, err
	}
	var cbest *EvaluatedConfig
	var bestNode *searchNode
	if fits(initial) {
		cbest = initial
	}
	if fits(optimal) && (cbest == nil || optimal.Cost < cbest.Cost) {
		cbest, bestNode = optimal, root
	}

	pool := []*searchNode{root}
	seen := configSet{}
	seen.add(optimalCfg, optimalDigest)
	res.Frontier = append(res.Frontier,
		FrontierPoint{SizeBytes: optimal.SizeBytes, Cost: optimal.Cost, Fits: fits(optimal)})

	// Warm start (online retuning): evaluate the previous recommendation
	// under the current workload, let it join the pool, and adopt it as
	// the incumbent when it fits — the search then prunes against a good
	// bound immediately instead of rediscovering it by relaxation. The
	// evaluation is incremental from the optimal configuration: only
	// queries whose optimal plan used a structure absent from the warm
	// configuration are re-optimized, so a warm start over a repeat-heavy
	// workload costs only a handful of optimizer calls.
	if ws := t.Options.WarmStart; ws != nil {
		endPhase = t.span("warm-start")
		warmCfg := ws.Clone()
		for _, ix := range t.Base.Indexes() {
			warmCfg.AddIndex(ix)
		}
		if digest := warmCfg.Digest(); seen.add(warmCfg, digest) {
			removedIdx, removedViews := optimalCfg.Diff(warmCfg)
			warm, ok, err := evalAt(digest, optimal, warmCfg, removedIdx, removedViews, 0)
			if err != nil {
				endPhase(obs.F{"error": err.Error()})
				return nil, err
			}
			if ok {
				res.Frontier = append(res.Frontier,
					FrontierPoint{SizeBytes: warm.SizeBytes, Cost: warm.Cost, Fits: fits(warm)})
				warmNode, err := t.newSearchNode(warm, nil, 0)
				if err != nil {
					endPhase(obs.F{"error": err.Error()})
					return nil, err
				}
				pool = append(pool, warmNode)
				if fits(warm) && (cbest == nil || warm.Cost < cbest.Cost) {
					cbest, bestNode = warm, warmNode
				}
				f := obs.F{"cost": warm.Cost, "size": warm.SizeBytes, "adopted": cbest == warm, "pool": len(pool)}
				if cbest != nil {
					f["best_cost"] = cbest.Cost
				}
				endPhase(f)
			} else {
				endPhase(obs.F{"adopted": false, "pruned": true})
			}
		} else {
			endPhase(obs.F{"adopted": false, "duplicate": true})
		}
	}

	maxIter := t.Options.MaxIterations
	if maxIter <= 0 {
		maxIter = 200
	}
	last := root

	endSearch := t.span("search")
	var listed obs.Candidates // the candidates event's payload, reused
	for iter := 0; iter < maxIter; iter++ {
		if t.Options.TimeBudget > 0 && time.Since(start) > t.Options.TimeBudget {
			if trace.Enabled() {
				trace.Emit(obs.EvSkip, obs.F{"reason": "time-budget", "iter": iter})
			}
			break
		}
		tPick := time.Now()
		node, pickReason := t.pickNode(pool, last, effBudget, hasUpdates)
		prof.Since("search/pick-node", tPick)
		if node == nil {
			break // no configuration has an applicable transformation left
		}
		res.TransCensus = append(res.TransCensus, poolCensus(pool))
		if trace.Enabled() {
			trace.Emit(obs.EvIteration, &obs.Iteration{
				Iter: iter, PickReason: pickReason,
				NodeFP: node.eval.Config, NodeCost: node.eval.Cost, NodeSize: node.eval.SizeBytes,
				Pool: len(pool), Untried: node.untried,
			})
		}

		tRank := time.Now()
		ranked, skyPruned, err := t.rankTransformations(node, effBudget, hasUpdates)
		prof.Since("search/rank", tRank)
		if err != nil {
			endSearch(obs.F{"error": err.Error()})
			return nil, err
		}
		if t.onRank != nil {
			t.onRank(ranked)
		}
		if trace.Enabled() {
			trace.Emit(obs.EvCandidates, candidatesPayload(&listed, iter, ranked, skyPruned))
		}
		var chosenIDs []string
		// stepEnd is what the event this iteration ends in carries — a
		// skip at the node it started from, or the eval of the
		// configuration it produced: the step count, the configuration
		// reported, the pool, skyline accounting, the chosen transformation
		// with its penalty, and the incumbent. The progress sink publishes
		// one live event per step end.
		stepEnd := func(at *EvaluatedConfig) obs.StepEnd {
			x := obs.StepEnd{
				Iter: iter, Step: res.Iterations,
				Size: at.SizeBytes, Cost: at.Cost,
				Pool: len(pool), SkylinePruned: len(skyPruned),
			}
			if len(chosenIDs) > 0 {
				x.Chosen, x.Penalty = chosenIDs, ranked[0].penalty
			}
			if cbest != nil {
				x.BestCost, x.HasBest = cbest.Cost, true
			}
			return x
		}
		if len(ranked) == 0 {
			// Exhausted this node; try another next iteration.
			markAllTried(node)
			last = nil
			if trace.Enabled() {
				trace.Emit(obs.EvSkip, &obs.Skip{StepEnd: stepEnd(node.eval), Reason: "exhausted"})
			}
			continue
		}
		chosen := ranked[0]
		node.markTried(chosen.at)
		cfgNew := chosen.tr.Apply(node.eval.Config)
		estDT := chosen.delta.DT
		chosenIDs = []string{chosen.tr.ID()}
		res.Iterations++
		if trace.Enabled() {
			trace.Emit(obs.EvApply, &obs.Apply{
				Iter: iter, Trans: chosenIDs,
				EstDT: estDT, EstDS: chosen.delta.DS, Penalty: chosen.penalty,
			})
		}

		digest := cfgNew.Digest()
		if !seen.add(cfgNew, digest) {
			last = node
			res.Economy.DuplicateSkips++
			if trace.Enabled() {
				trace.Emit(obs.EvSkip, &obs.Skip{StepEnd: stepEnd(node.eval), Reason: "duplicate", FP: cfgNew})
			}
			continue
		}

		cutoff := 0.0
		if cbest != nil {
			cutoff = cbest.Cost
		}
		// Shortcut evaluation only prunes when the new configuration
		// could never beat the incumbent: relaxations only grow cost, so
		// a config above the incumbent's cost is a dead end (§3.5) —
		// except under updates, where removals can reduce cost.
		if hasUpdates {
			cutoff = 0
		}
		tEval := time.Now()
		evalNew, ok, err := evalAt(digest, node.eval, cfgNew, chosen.tr.RemovedIndexIDs(), chosen.tr.RemovedViewNames(), cutoff)
		prof.Since("search/evaluate", tEval)
		if err != nil {
			endSearch(obs.F{"error": err.Error()})
			return nil, err
		}
		if !ok {
			last = node
			res.Economy.ShortcutPrunes++
			if trace.Enabled() {
				trace.Emit(obs.EvSkip, &obs.Skip{StepEnd: stepEnd(node.eval), Reason: "shortcut", FP: cfgNew, Cutoff: cutoff})
			}
			continue
		}
		realized := realizedPenalty(node.eval, evalNew)
		tEnum := time.Now()
		child, err := t.newSearchNode(evalNew, node, realized)
		prof.Since("search/enumerate", tEnum)
		if err != nil {
			endSearch(obs.F{"error": err.Error()})
			return nil, err
		}
		if prof.Enabled() {
			prof.Add("search/enumerate", "transformations_built", float64(len(child.enum.Trans)-child.enum.Shared))
			prof.Add("search/enumerate", "transformations_shared", float64(child.enum.Shared))
		}
		child.iteration = res.Iterations
		child.applied = chosen.tr
		pool = append(pool, child)
		res.Frontier = append(res.Frontier, FrontierPoint{
			Iteration: res.Iterations, SizeBytes: evalNew.SizeBytes,
			Cost: evalNew.Cost, Fits: fits(evalNew),
			Transformation: chosenIDs[0], Penalty: chosen.penalty,
		})
		newBest := fits(evalNew) && (cbest == nil || evalNew.Cost < cbest.Cost)
		if newBest {
			cbest, bestNode = evalNew, child
		}
		realizedDT := evalNew.Cost - node.eval.Cost
		res.CalibSamples = append(res.CalibSamples,
			obs.CalibSample{Kind: chosen.tr.Kind.String(), EstDT: estDT, RealizedDT: realizedDT})
		if trace.Enabled() {
			trace.Emit(obs.EvEval, &obs.Eval{
				StepEnd: stepEnd(evalNew),
				FP:      evalNew.Config, ParentFP: node.eval.Config,
				Fits: fits(evalNew), NewBest: newBest,
				EstDT: estDT, RealizedDT: realizedDT,
				BudgetGap: evalNew.SizeBytes - budget, Budgeted: !unconstrained,
			})
		}
		last = child
	}
	endSearch(obs.F{"iterations": res.Iterations, "pool": len(pool), "evaluated": len(res.Frontier)})

	source := explainSourceRelaxed
	if cbest == nil {
		cbest = initial // nothing fit: fall back to the existing design
		bestNode = nil
	}
	switch {
	case bestNode == nil:
		source = explainSourceInitial
	case bestNode == root:
		source = explainSourceOptimal
	case bestNode.parent == nil:
		source = explainSourceWarmStart
	}
	res.Best = cbest
	res.Explain = t.buildExplain(res, bestNode, source)
	return res, nil
}

// candidatesPayload fills the candidates event's payload from the ranked
// list and the skyline's prunes: the counts, and the penalty components
// of the head of each list. The payload reuses buf's lists, which a sink
// renders before the next iteration refills them.
func candidatesPayload(buf *obs.Candidates, iter int, ranked, skyPruned []candidate) *obs.Candidates {
	top, pruned := buf.Top[:0], buf.Pruned[:0]
	for _, c := range ranked[:min(len(ranked), obs.MaxListed)] {
		top = append(top, obs.Candidate{
			ID: c.tr.ID(), Kind: c.tr.Kind.String(),
			DT: c.delta.DT, DS: c.delta.DS, Penalty: c.penalty,
		})
	}
	for _, c := range skyPruned[:min(len(skyPruned), obs.MaxListed)] {
		pruned = append(pruned, c.tr.ID())
	}
	*buf = obs.Candidates{Iter: iter, Survivors: len(ranked), SkylinePruned: len(skyPruned), Top: top, Pruned: pruned}
	return buf
}

// configSet is the configurations a search has met, by digest. A digest
// hit is confirmed with Equal, so two configurations whose digests collide
// are still told apart and "evaluated once" holds whatever the hash.
type configSet map[uint64][]*physical.Configuration

// add puts c, whose digest is digest, in the set and reports whether it
// was not there yet.
func (s configSet) add(c *physical.Configuration, digest uint64) bool {
	for _, o := range s[digest] {
		if o.Equal(c) {
			return false
		}
	}
	s[digest] = append(s[digest], c)
	return true
}

// realizedPenalty is the observed ΔT/ΔS of one relaxation step.
func realizedPenalty(parent, child *EvaluatedConfig) float64 {
	dT := child.Cost - parent.Cost
	dS := float64(parent.SizeBytes - child.SizeBytes)
	if dS < 1 {
		dS = 1
	}
	return dT / dS
}

// markAllTried exhausts a node in place: every transformation is marked
// tried.
func markAllTried(n *searchNode) {
	for i := range n.tried {
		n.markTried(i)
	}
}

func poolCensus(pool []*searchNode) int {
	total := 0
	for _, n := range pool {
		total += n.untried
	}
	return total
}

// newSearchNode enumerates the node's transformations eagerly (the census
// of Figure 6 needs them). A child's enumeration takes over from its
// parent's whatever the step between their configurations left alone; a
// root, a warm-start node and a step onto the base configuration have
// nothing to take over and build everything.
func (t *Tuner) newSearchNode(ec *EvaluatedConfig, parent *searchNode, realized float64) (*searchNode, error) {
	var from *physical.Enumeration
	if parent != nil {
		from = parent.enum
	}
	enum := t.enum.Enumerate(ec.Config, from)
	if t.shadow {
		fresh := physical.Enumerate(ec.Config, t.enumerateOptions())
		if len(fresh) != len(enum.Trans) {
			return nil, fmt.Errorf("core: node enumerates %d transformations, from scratch %d", len(enum.Trans), len(fresh))
		}
		for i, tr := range enum.Trans {
			if got, want := transIdentity(tr), transIdentity(fresh[i]); got != want {
				return nil, fmt.Errorf("core: transformation %d of the node is %q, from scratch %q", i, got, want)
			}
		}
	}
	return &searchNode{
		eval:            ec,
		parent:          parent,
		realizedPenalty: realized,
		enum:            enum,
		tried:           make([]bool, len(enum.Trans)),
		untried:         len(enum.Trans),
	}, nil
}

// transIdentity spells out everything of a transformation that a later
// step reads: its ID, the indexes it adds or promotes, the merged view's
// definition and cardinality.
func transIdentity(tr *physical.Transformation) string {
	var sb strings.Builder
	sb.WriteString(tr.ID())
	for _, ix := range tr.NewIdx {
		sb.WriteString("\x00n:" + ix.ID())
	}
	for _, ix := range tr.Promoted {
		sb.WriteString("\x00p:" + ix.ID())
	}
	if tr.VM != nil {
		fmt.Fprintf(&sb, "\x00vm:%s\x00%d", tr.VM.Signature(), tr.VM.EstRows)
	}
	return sb.String()
}

// pickNode implements §3.4's configuration-selection heuristics (with the
// §3.6 modification for update workloads):
//  1. keep relaxing the last configuration while it exceeds the budget
//     (or, with updates, while it improved on its parent);
//  2. otherwise revisit the chain node whose relaxation realized the
//     largest penalty;
//  3. otherwise pick the cheapest configuration with work left.
//
// The returned reason string labels which heuristic selected the node
// (for the trace): "relax-last", "chain-correction", or "cheapest".
func (t *Tuner) pickNode(pool []*searchNode, last *searchNode, budget int64, hasUpdates bool) (*searchNode, string) {
	if last != nil && last.untried > 0 {
		over := last.eval.SizeBytes > budget
		improved := hasUpdates && last.parent != nil && last.eval.Cost < last.parent.eval.Cost
		if over || improved {
			return last, "relax-last"
		}
	}
	if !t.Options.DisableChainCorrection && last != nil {
		var best *searchNode
		for n := last; n != nil; n = n.parent {
			if n.untried == 0 {
				continue
			}
			if best == nil || n.realizedPenalty > best.realizedPenalty {
				best = n
			}
		}
		if best != nil {
			return best, "chain-correction"
		}
	}
	var best *searchNode
	for _, n := range pool {
		if n.untried == 0 {
			continue
		}
		if best == nil || n.eval.Cost < best.eval.Cost {
			best = n
		}
	}
	return best, "cheapest"
}

// rankTransformations returns the node's untried transformations sorted
// by increasing penalty, plus, when tracing, the candidates the §3.6
// skyline filter discarded (empty unless the workload has updates). A
// node's first ranking inherits what its parent can hand down; this and
// every later one compute exactly the deltas the node still lacks. The
// ranked list lives in t.rank and is good until the next ranking. The error
// is a panic captured in a penalty-estimation worker.
func (t *Tuner) rankTransformations(node *searchNode, budget int64, hasUpdates bool) (ranked, skyPruned []candidate, _ error) {
	var computed, inherited int
	var err error
	if !node.ranked {
		node.ranked = true
		node.deltas = make([]nodeDelta, len(node.enum.Trans))
		if inherited, err = t.inheritDeltas(node); err != nil {
			return nil, nil, err
		}
	}
	if w := t.workers(); w > 1 {
		if computed, err = t.precomputeDeltas(node, w); err != nil {
			return nil, nil, err
		}
	}
	cands := t.rank.cands[:0]
	spaceOver := node.eval.SizeBytes - budget
	fitsAlready := spaceOver <= 0

	for i, tr := range node.enum.Trans {
		if node.tried[i] {
			continue
		}
		nd := &node.deltas[i]
		if !nd.known {
			d, err := t.boundDelta(0, node.eval, tr)
			computed++
			if err != nil {
				node.markTried(i)
				continue
			}
			*nd = nodeDelta{d, true}
		}
		d := nd.Delta
		// Useless moves: no space saved and no cost benefit.
		if d.DS <= 0 && d.DT >= 0 {
			continue
		}
		var pen float64
		switch {
		case t.Options.PlainPenalty:
			if d.DS <= 0 {
				continue
			}
			pen = d.DT / float64(d.DS)
		case fitsAlready:
			// Already under budget (update workloads keep relaxing):
			// space is irrelevant, rank by ΔT alone (§3.6).
			pen = d.DT
			if d.DT >= 0 {
				continue // only cost-reducing moves are useful now
			}
		default:
			denom := float64(d.DS)
			if over := float64(spaceOver); over < denom {
				denom = over
			}
			if denom <= 0 {
				continue
			}
			pen = d.DT / denom
		}
		cands = append(cands, candidate{tr: tr, at: i, delta: d, penalty: pen})
	}
	t.rank.cands = cands
	if prof := t.Options.Profile; prof.Enabled() && computed+inherited > 0 {
		prof.Add("search/rank", "bounds_computed", float64(computed))
		prof.Add("search/rank", "bounds_inherited", float64(inherited))
	}
	if len(cands) == 0 {
		return nil, nil, nil
	}
	if hasUpdates {
		tSky := time.Now()
		cands, skyPruned = t.rank.skyline(cands, t.Options.Trace.Enabled())
		t.Options.Profile.Since("search/skyline", tSky)
	}
	slices.SortStableFunc(cands, func(a, b candidate) int { return compareLess(a.penalty, b.penalty) })
	return cands, skyPruned, nil
}

// stepDiff is what separates a node's evaluation from its parent's, as far
// as a §3.3.2 bound can tell. It is derived from the two evaluations
// themselves, not from the transformation applied, so a step down to the
// base configuration (whose evaluation is the initial one) needs no case
// of its own.
type stepDiff struct {
	child *physical.Configuration
	// relations are the tables and views whose index list differs, and the
	// views present on one side only.
	relations []string
	// usedIdx and usedRels are the index IDs, and the relations and views,
	// read by the old or the new plan of every statement whose plan or
	// affected-row estimate changed: only there can a usage term of ΔT
	// appear, vanish or change.
	usedIdx  map[string]bool
	usedRels []string
	// updateTables are the tables of update statements whose affected-row
	// estimate changed. A shell term reads the lists the transformation
	// changes (UpdateShellDelta), which relations already covers, and that
	// estimate; nothing else.
	updateTables []string
}

func (t *Tuner) diffStep(parent, child *EvaluatedConfig) *stepDiff {
	s := &stepDiff{child: child.Config, usedIdx: map[string]bool{}}
	for _, side := range [2][2]*physical.Configuration{{parent.Config, child.Config}, {child.Config, parent.Config}} {
		ids, views := side[0].Diff(side[1])
		for _, id := range ids {
			s.relations = append(s.relations, side[0].Index(id).Table)
		}
		s.relations = append(s.relations, views...)
	}
	for i, tq := range t.Queries {
		old, now := parent.Results[i], child.Results[i]
		changed := old.Plan != now.Plan || old.AffectedRows != now.AffectedRows
		if changed {
			for _, p := range [2]*plan.QueryPlan{old.Plan, now.Plan} {
				if p == nil {
					continue
				}
				for _, u := range p.Usages {
					s.usedIdx[u.Index.ID()] = true
					s.usedRels = append(s.usedRels, u.Index.Table)
				}
				s.usedRels = append(s.usedRels, p.UsedViews...)
			}
		}
		if tq.Bound.IsUpdate() && old.AffectedRows != now.AffectedRows {
			s.updateTables = append(s.updateTables, tq.Bound.UpdateTable)
		}
	}
	return s
}

// leftAlone reports whether every input of tr's bound is the same value on
// both sides of the step, so that boundDelta on the child would add the
// parent's terms in the parent's order: the index lists and views tr
// reads and rewrites, the plans that use what it removes, and the
// affected-row estimates of the update statements it can reach.
func (s *stepDiff) leftAlone(tr *physical.Transformation) bool {
	if tr.I1 != nil {
		if slices.Contains(s.relations, tr.I1.Table) || s.usedIdx[tr.I1.ID()] || (tr.I2 != nil && s.usedIdx[tr.I2.ID()]) {
			return false
		}
	}
	for _, v := range [...]*physical.View{tr.V1, tr.V2, tr.VM} {
		if v != nil && (slices.Contains(s.relations, v.Name) || slices.Contains(s.usedRels, v.Name)) {
			return false
		}
	}
	for _, tb := range s.updateTables {
		if reachesTable(s.child, tr, tb) {
			return false
		}
	}
	return true
}

// inheritDeltas gives node the (ΔT, ΔS) its parent holds for every
// transformation both enumerations share whose inputs the step between
// them left alone, and returns how many. A shared transformation is the
// parent's very object, at the parent position its enumeration records in
// From; one built anew is bounded again. It runs at the node's first
// ranking rather than at its creation, so a pool node the search never
// ranks pays nothing and keeps no delta table alive. Roots and warm-start
// nodes have no parent and inherit nothing.
func (t *Tuner) inheritDeltas(node *searchNode) (int, error) {
	parent := node.parent
	if parent == nil || len(parent.deltas) == 0 {
		return 0, nil
	}
	step := t.diffStep(parent.eval, node.eval)
	inherited := 0
	for i, p := range node.enum.From {
		if p < 0 || !parent.deltas[p].known {
			continue
		}
		tr, d := node.enum.Trans[i], parent.deltas[p].Delta
		if !step.leftAlone(tr) {
			continue
		}
		if t.shadow {
			fresh, err := t.boundDelta(0, node.eval, tr)
			if err != nil || math.Float64bits(fresh.DT) != math.Float64bits(d.DT) || fresh.DS != d.DS {
				return 0, fmt.Errorf("core: inherited bound of %s is %+v, recomputed %+v (%v)", tr.ID(), d, fresh, err)
			}
		}
		node.deltas[i] = nodeDelta{d, true}
		inherited++
	}
	return inherited, nil
}

// candidate pairs a transformation, at position at of its node's
// enumeration, with its estimated deltas and penalty.
type candidate struct {
	tr      *physical.Transformation
	at      int
	delta   Delta
	penalty float64
}

// rankBuffers are what one ranking uses and the next reuses: the
// candidate list it returns and the skyline's scratch. Tune holds t.mu, so
// one ranking runs at a time.
type rankBuffers struct {
	cands     []candidate
	perm      []int
	dominated []bool
	pruned    []candidate
}

// resized returns buf with length n, allocating only when it is too small.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// compareLess orders a before b exactly when a < b: the order a less
// function with < gives, which cmp.Compare departs from only at NaN.
func compareLess(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// skyline keeps only non-dominated candidates: tr2 dominates tr1 when it
// costs no more (ΔT ≤) and saves at least as much space (ΔS ≥), strictly
// better in one dimension (§3.6 fixes the penalty function's poor
// behaviour when comparing two negative-cost transformations).
//
// The filter is a plane sweep in O(n log n): visiting candidates by
// decreasing ΔS, a candidate is dominated exactly when some
// strictly-larger-ΔS candidate has ΔT ≤ its own (prevMin), or an
// equal-ΔS candidate has strictly smaller ΔT (groupMin). Exact
// duplicates never dominate each other, matching the strictness clause.
// The survivors are moved to the front of cands in their input order and
// returned; with withPruned, the dominated ones are returned too, in input
// order, in a list of their own that the next call reuses. When nothing is
// dominated, cands comes back as it is and the pruned list is nil.
func (b *rankBuffers) skyline(cands []candidate, withPruned bool) (kept, pruned []candidate) {
	n := len(cands)
	perm := resized(b.perm, n)
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(x, y int) int {
		cx, cy := &cands[x].delta, &cands[y].delta
		if c := cmp.Compare(cy.DS, cx.DS); c != 0 {
			return c
		}
		return compareLess(cx.DT, cy.DT)
	})
	dominated := resized(b.dominated, n)
	clear(dominated)
	b.perm, b.dominated = perm, dominated
	prevMin := math.Inf(1) // min ΔT over all strictly-larger-ΔS candidates
	for i := 0; i < n; {
		ds := cands[perm[i]].delta.DS
		groupMin := math.Inf(1)
		j := i
		for ; j < n && cands[perm[j]].delta.DS == ds; j++ {
			dt := cands[perm[j]].delta.DT
			if prevMin <= dt || groupMin < dt {
				dominated[perm[j]] = true
			}
			if dt < groupMin {
				groupMin = dt
			}
		}
		if groupMin < prevMin {
			prevMin = groupMin
		}
		i = j
	}
	if !slices.Contains(dominated, true) {
		return cands, nil
	}
	kept, pruned = cands[:0], b.pruned[:0]
	for i, c := range cands {
		switch {
		case !dominated[i]:
			kept = append(kept, c)
		case withPruned:
			pruned = append(pruned, c)
		}
	}
	b.pruned = pruned
	return kept, pruned
}

// hasUpdates reports whether the workload modifies data.
func (t *Tuner) hasUpdates() bool {
	for _, tq := range t.Queries {
		if tq.Bound.IsUpdate() {
			return true
		}
	}
	return false
}
