package obs

import "slices"

// Payload is an event's body. A sink that keeps or writes events
// renders it into a field map with Fields (Event.Render); a sink that
// only counts reads the typed value the event's type carries and builds
// no map. A field map is itself a Payload, which is what spans and rare
// events emit.
//
// A payload may reference the emitter's reusable buffers, so it is
// valid only during Sink.Emit; Fields returns a map that shares nothing
// with them.
type Payload interface{ Fields() F }

// F is an event's field map.
type F map[string]any

// Fields returns f itself.
func (f F) Fields() F { return f }

// Fingerprinted is what a payload carries of a configuration: a value
// that renders the configuration's fingerprint. Fields renders it; a
// counting sink never does, so a step traced only into those builds no
// fingerprint.
type Fingerprinted interface{ Fingerprint() string }

// Iteration is EvIteration's payload: the node a relaxation step
// selected, why, and the pool it was selected from.
type Iteration struct {
	Iter       int
	PickReason string
	NodeFP     Fingerprinted
	NodeCost   float64
	NodeSize   int64
	Pool       int
	Untried    int
}

// Fields renders the iteration.
func (p *Iteration) Fields() F {
	return F{
		"iter":        p.Iter,
		"pick_reason": p.PickReason,
		"node_fp":     p.NodeFP.Fingerprint(),
		"node_cost":   p.NodeCost,
		"node_size":   p.NodeSize,
		"pool":        p.Pool,
		"untried":     p.Untried,
	}
}

// MaxListed caps the lists a Candidates payload carries, so traces of
// transformation-rich nodes stay small.
const MaxListed = 16

// Candidates is EvCandidates' payload: how many of the node's
// transformations survived ranking and how many the §3.6 skyline
// pruned, with the head of each list.
type Candidates struct {
	Iter          int
	Survivors     int
	SkylinePruned int
	// Top is the head of the ranked list and Pruned the IDs at the head
	// of the skyline's prunes, each at most MaxListed long.
	Top    []Candidate
	Pruned []string
}

// Candidate is one ranked transformation with its penalty components.
type Candidate struct {
	ID, Kind string
	DT       float64
	DS       int64
	Penalty  float64
}

// Fields renders the lists, and "truncated" when either was cut.
func (p *Candidates) Fields() F {
	top := make([]F, len(p.Top))
	for i, c := range p.Top {
		top[i] = F{"id": c.ID, "kind": c.Kind, "dt": c.DT, "ds": c.DS, "penalty": c.Penalty}
	}
	f := F{
		"iter":           p.Iter,
		"survivors":      p.Survivors,
		"skyline_pruned": p.SkylinePruned,
		"top":            top,
	}
	if len(p.Pruned) > 0 {
		f["pruned"] = slices.Clone(p.Pruned)
	}
	if p.Survivors > len(p.Top) || p.SkylinePruned > len(p.Pruned) {
		f["truncated"] = true
	}
	return f
}

// Apply is EvApply's payload: the transformation a step chose, with its
// estimated ΔT, ΔS and penalty.
type Apply struct {
	Iter    int
	Trans   []string
	EstDT   float64
	EstDS   int64
	Penalty float64
}

// Fields renders the step's choice.
func (p *Apply) Fields() F {
	return F{"iter": p.Iter, "trans": p.Trans, "est_dt": p.EstDT, "est_ds": p.EstDS, "penalty": p.Penalty}
}

// StepEnd is what every event a relaxation step ends in carries: the
// step count, the configuration reported (the one evaluated, or the
// node a skip stayed at), the pool, the skyline's prunes, the chosen
// transformation with its penalty, and the incumbent.
type StepEnd struct {
	Iter, Step    int
	Size          int64
	Cost          float64
	Pool          int
	SkylinePruned int
	// Chosen is nil when the step chose no transformation; Penalty is
	// the chosen one's.
	Chosen  []string
	Penalty float64
	// BestCost is the incumbent's cost, when there is one (HasBest).
	BestCost float64
	HasBest  bool
}

// stepEndFields is the most fields a StepEnd renders.
const stepEndFields = 9

func (s *StepEnd) fill(f F) {
	f["iter"], f["step"] = s.Iter, s.Step
	f["size"], f["cost"] = s.Size, s.Cost
	f["pool"], f["skyline_pruned"] = s.Pool, s.SkylinePruned
	if len(s.Chosen) > 0 {
		f["chosen"], f["penalty"] = s.Chosen, s.Penalty
	}
	if s.HasBest {
		f["best_cost"] = s.BestCost
	}
}

// Eval is EvEval's payload: a step that produced a new configuration,
// with its lineage (ParentFP -> FP) and the §3.3.2 estimate beside the
// realized ΔT.
type Eval struct {
	StepEnd
	FP, ParentFP      Fingerprinted
	Fits, NewBest     bool
	EstDT, RealizedDT float64
	// BudgetGap is Size minus the space budget, when the session has
	// one (Budgeted).
	BudgetGap int64
	Budgeted  bool
}

// Fields renders the evaluation, with "tightness" (realized over
// estimated ΔT: ≤ 1 means the bound held) when the estimate is positive.
func (p *Eval) Fields() F {
	f := make(F, stepEndFields+8)
	f["fp"], f["parent_fp"] = p.FP.Fingerprint(), p.ParentFP.Fingerprint()
	f["fits"], f["new_best"] = p.Fits, p.NewBest
	f["est_dt"], f["realized_dt"] = p.EstDT, p.RealizedDT
	if p.Budgeted {
		f["budget_gap"] = p.BudgetGap
	}
	if p.EstDT > 0 {
		f["tightness"] = p.RealizedDT / p.EstDT
	}
	p.fill(f)
	return f
}

// Skip is EvSkip's payload for a step that produced no new
// configuration. Reason is "exhausted" (the node had no candidate left),
// "duplicate" (FP was seen before) or "shortcut" (FP's evaluation was cut
// off at Cutoff, §3.5).
type Skip struct {
	StepEnd
	Reason string
	// FP is nil when the step produced no configuration.
	FP     Fingerprinted
	Cutoff float64
}

// Fields renders the skip: "fp" when the step produced a configuration
// with a non-empty fingerprint, "cutoff" for a shortcut.
func (p *Skip) Fields() F {
	f := make(F, stepEndFields+3)
	f["reason"] = p.Reason
	if p.FP != nil {
		if fp := p.FP.Fingerprint(); fp != "" {
			f["fp"] = fp
		}
	}
	if p.Reason == "shortcut" {
		f["cutoff"] = p.Cutoff
	}
	p.fill(f)
	return f
}

// Cache is EvCache's payload: one statement's fragment-cache lookup.
type Cache struct {
	Hit   bool
	Query string
}

// Fields renders the lookup.
func (p *Cache) Fields() F { return F{"hit": p.Hit, "query": p.Query} }

// Fragment is EvFragment's payload: the size of one statement's §2
// optimal fragment, and whether the cache supplied it.
type Fragment struct {
	Query          string
	Cached         bool
	Indexes, Views int
}

// Fields renders the fragment.
func (p *Fragment) Fields() F {
	return F{"query": p.Query, "cached": p.Cached, "indexes": p.Indexes, "views": p.Views}
}

// typed returns the event's payload as the typed value its type carries.
// A field map on a counted event type — one a caller emitted by hand, or
// a decoded trace line — is read into that value, so the counting sinks
// have one path; any other payload comes back as it is.
func (e *Event) typed() Payload {
	f, ok := e.payload().(F)
	if !ok {
		return e.Payload
	}
	num := func(key string) float64 { return fieldFloat(f, key) }
	end := func() StepEnd {
		chosen, _ := f["chosen"].([]string)
		_, hasBest := f["best_cost"]
		return StepEnd{
			Iter: int(num("iter")), Step: int(num("step")),
			Size: int64(num("size")), Cost: num("cost"),
			Pool: int(num("pool")), SkylinePruned: int(num("skyline_pruned")),
			Chosen: chosen, Penalty: num("penalty"),
			BestCost: num("best_cost"), HasBest: hasBest,
		}
	}
	switch e.Type {
	case EvCandidates:
		return &Candidates{Iter: int(num("iter")), Survivors: int(num("survivors")), SkylinePruned: int(num("skyline_pruned"))}
	case EvEval:
		_, budgeted := f["budget_gap"]
		return &Eval{StepEnd: end(), EstDT: num("est_dt"), RealizedDT: num("realized_dt"),
			BudgetGap: int64(num("budget_gap")), Budgeted: budgeted}
	case EvSkip:
		reason, _ := f["reason"].(string)
		return &Skip{StepEnd: end(), Reason: reason}
	case EvCache:
		hit, _ := f["hit"].(bool)
		return &Cache{Hit: hit}
	}
	return f
}

// payload is the event's body: the payload as emitted, or the field map
// of an event that was rendered or decoded.
func (e *Event) payload() Payload {
	if e.Payload != nil {
		return e.Payload
	}
	return e.Fields
}
