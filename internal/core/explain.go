package core

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
	"repro/internal/physical"
)

// Explain-report sources: how the recommended configuration was reached.
const (
	explainSourceOptimal   = "optimal"    // the §2 optimal config fit (or no budget)
	explainSourceRelaxed   = "relaxed"    // a relaxation-chain configuration won
	explainSourceWarmStart = "warm-start" // the warm-start seed remained the incumbent
	explainSourceInitial   = "initial"    // nothing fit; fell back to the base design
)

// DecisionEvent is one transformation along the winning lineage that
// touched a structure.
type DecisionEvent struct {
	// Iteration is the relaxation step (1-based) at which the
	// transformation was accepted.
	Iteration int `json:"iteration"`
	// Action is the transformation kind ("merge-indexes", "remove-view", ...).
	Action string `json:"action"`
	// Detail is the transformation's human-readable form.
	Detail string `json:"detail"`
	// RealizedPenalty is the observed ΔT/ΔS of the step that applied it.
	RealizedPenalty float64 `json:"realized_penalty,omitempty"`
}

// StructureDecision explains the fate of one physical structure: why it
// is (or is not) part of the recommendation.
type StructureDecision struct {
	// ID identifies the structure (index ID or view name).
	ID string `json:"id"`
	// Kind is "index" or "view".
	Kind string `json:"kind"`
	// DemandedBy lists the workload statements whose §2 instrumented
	// optimization requested the structure.
	DemandedBy []string `json:"demanded_by,omitempty"`
	// Outcome is one of: kept, required, removed, merged, split,
	// prefixed, promoted, dropped, created.
	Outcome string `json:"outcome"`
	// Detail is a one-line human-readable justification.
	Detail string `json:"detail"`
	// Events lists every winning-lineage transformation that touched the
	// structure, in application order.
	Events []DecisionEvent `json:"events,omitempty"`
}

// ExplainReport is the per-structure decision log of a tuning session:
// for every structure of the optimal configuration (and every structure
// the relaxation introduced), which statements demanded it, which
// transformations touched it, and why its final state won. Building the
// report costs no optimizer calls — it only replays recorded lineage.
type ExplainReport struct {
	// Source says how the recommendation was reached (optimal, relaxed,
	// warm-start, or initial).
	Source string `json:"source"`
	// Winner is a one-line justification of the final configuration.
	Winner string `json:"winner"`
	// Steps is the number of relaxation steps on the winning lineage.
	Steps int `json:"relaxation_steps"`
	// Structures holds one decision per structure, sorted by kind then ID.
	Structures []StructureDecision `json:"structures"`
	// Calibration scores the session's §3.3.2 ΔT bounds against the
	// realized costs and reports the optimizer-call economy. Attached
	// by Tune once the search statistics are final; nil for reports
	// built outside a tuning session.
	Calibration *obs.CalibrationReport `json:"calibration,omitempty"`
}

// buildExplain reconstructs the winning lineage (root → bestNode) and
// derives a decision per structure by diffing the optimal configuration
// against the recommendation through the recorded transformations.
func (t *Tuner) buildExplain(res *Result, bestNode *searchNode, source string) *ExplainReport {
	defer t.Options.Profile.StartAlloc("explain")()
	var lineage []*searchNode
	for n := bestNode; n != nil && n.parent != nil; n = n.parent {
		lineage = append(lineage, n)
	}
	for i, j := 0, len(lineage)-1; i < j; i, j = i+1, j-1 {
		lineage[i], lineage[j] = lineage[j], lineage[i]
	}

	res.Lineage = res.Lineage[:0]
	for _, n := range lineage {
		res.Lineage = append(res.Lineage, LineageStep{
			Iteration: n.iteration,
			Kind:      n.applied.Kind.String(),
			EstCost:   n.eval.Cost,
			SizeBytes: n.eval.SizeBytes,
			Config:    n.eval.Config,
		})
	}

	rep := &ExplainReport{Source: source, Steps: len(lineage)}
	switch source {
	case explainSourceOptimal:
		rep.Winner = "the optimal configuration fits the space budget; no relaxation was needed"
	case explainSourceInitial:
		rep.Winner = "no explored configuration fit the space budget; fell back to the existing design"
	case explainSourceWarmStart:
		rep.Winner = "the warm-start seed (previous recommendation) remained the cheapest configuration within budget"
	default:
		rep.Winner = fmt.Sprintf(
			"relaxed configuration reached after %d steps won: cheapest of %d evaluated configurations that fit the budget",
			len(lineage), len(res.Frontier))
	}

	// Index every lineage transformation by the structures it touched.
	touched := map[string][]DecisionEvent{}
	removal := map[string]DecisionEvent{}
	creation := map[string]DecisionEvent{}
	record := func(key string, ev DecisionEvent, m map[string]DecisionEvent) {
		touched[key] = append(touched[key], ev)
		if _, dup := m[key]; !dup {
			m[key] = ev
		}
	}
	for _, n := range lineage {
		tf := n.applied
		ev := DecisionEvent{
			Iteration:       n.iteration,
			Action:          tf.Kind.String(),
			Detail:          tf.String(),
			RealizedPenalty: n.realizedPenalty,
		}
		// A transformation's product can be identical to one of its
		// inputs (e.g. merging a narrow index into a wider one whose
		// key already covers it). Such a structure is neither removed
		// nor created — it survived as the transformation target.
		produced := map[string]bool{}
		for _, ix := range tf.NewIdx {
			produced["i:"+ix.ID()] = true
		}
		for _, ix := range tf.Promoted {
			produced["i:"+ix.ID()] = true
		}
		if tf.VM != nil {
			produced["v:"+tf.VM.Name] = true
		}
		for _, id := range tf.RemovedIndexIDs() {
			key := "i:" + id
			if produced[key] {
				delete(produced, key)
				touched[key] = append(touched[key], ev)
				continue
			}
			record(key, ev, removal)
		}
		for _, vn := range tf.RemovedViewNames() {
			key := "v:" + vn
			if produced[key] {
				delete(produced, key)
				touched[key] = append(touched[key], ev)
				continue
			}
			record(key, ev, removal)
		}
		for key := range produced {
			record(key, ev, creation)
		}
	}

	best := res.Best.Config
	optimal := res.Optimal.Config

	addIndex := func(ix *physical.Index, inOptimal bool) {
		key := "i:" + ix.ID()
		sd := StructureDecision{
			ID:         ix.ID(),
			Kind:       "index",
			DemandedBy: t.demandedBy[key],
			Events:     touched[key],
		}
		decideOutcome(&sd, key, inOptimal, best.HasIndex(ix.ID()), ix.Required,
			len(lineage), removal, creation, source)
		rep.Structures = append(rep.Structures, sd)
	}
	addView := func(name string, inOptimal bool) {
		key := "v:" + name
		sd := StructureDecision{
			ID:         name,
			Kind:       "view",
			DemandedBy: t.demandedBy[key],
			Events:     touched[key],
		}
		decideOutcome(&sd, key, inOptimal, best.View(name) != nil, false,
			len(lineage), removal, creation, source)
		rep.Structures = append(rep.Structures, sd)
	}

	seen := map[string]bool{}
	for _, ix := range optimal.Indexes() {
		seen["i:"+ix.ID()] = true
		addIndex(ix, true)
	}
	for _, v := range optimal.Views() {
		seen["v:"+v.Name] = true
		addView(v.Name, true)
	}
	// Structures the relaxation introduced (merge/split/prefix products).
	for _, ix := range best.Indexes() {
		if !seen["i:"+ix.ID()] {
			addIndex(ix, false)
		}
	}
	for _, v := range best.Views() {
		if !seen["v:"+v.Name] {
			addView(v.Name, false)
		}
	}

	sort.Slice(rep.Structures, func(i, j int) bool {
		a, b := rep.Structures[i], rep.Structures[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.ID < b.ID
	})
	return rep
}

// decideOutcome classifies one structure given where it appears and
// which lineage transformations touched it.
func decideOutcome(sd *StructureDecision, key string, inOptimal, inBest, required bool,
	steps int, removal, creation map[string]DecisionEvent, source string) {
	switch {
	case required:
		sd.Outcome = "required"
		sd.Detail = "constraint-enforcing index from the base configuration; never a transformation target"
	case inOptimal && inBest:
		sd.Outcome = "kept"
		if n := len(sd.Events); n > 0 {
			sd.Detail = fmt.Sprintf("retained as the surviving target of %d transformation(s)", n)
		} else {
			sd.Detail = fmt.Sprintf("survived %d relaxation steps untouched", steps)
		}
		if len(sd.DemandedBy) > 0 {
			sd.Detail += "; demanded by " + joinCapped(sd.DemandedBy, 5)
		}
	case inOptimal && !inBest:
		if ev, ok := removal[key]; ok {
			sd.Outcome = outcomeForAction(ev.Action)
			sd.Detail = fmt.Sprintf("step %d: %s (realized penalty %.3g)", ev.Iteration, ev.Detail, ev.RealizedPenalty)
		} else {
			sd.Outcome = "dropped"
			switch {
			case source == explainSourceWarmStart:
				sd.Detail = "not part of the selected warm-start configuration"
			case source == explainSourceInitial:
				sd.Detail = "only in the optimal configuration, which exceeded the space budget"
			default:
				sd.Detail = "absent from the selected configuration"
			}
		}
	default: // created during relaxation
		sd.Outcome = "created"
		if ev, ok := creation[key]; ok {
			sd.Detail = fmt.Sprintf("step %d: introduced by %s", ev.Iteration, ev.Detail)
		} else {
			sd.Detail = "introduced during relaxation"
		}
	}
}

// outcomeForAction maps a transformation kind to the fate of a structure
// it removed.
func outcomeForAction(action string) string {
	switch action {
	case "merge-indexes", "merge-views":
		return "merged"
	case "split-indexes":
		return "split"
	case "prefix-index":
		return "prefixed"
	case "promote-clustered":
		return "promoted"
	case "remove-index", "remove-view":
		return "removed"
	default:
		return "transformed"
	}
}

func joinCapped(items []string, n int) string {
	if len(items) <= n {
		return strings.Join(items, ", ")
	}
	return strings.Join(items[:n], ", ") + fmt.Sprintf(", … (%d total)", len(items))
}

// WriteText renders the report for terminals (relaxtune --explain).
func (r *ExplainReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Recommendation source: %s\n%s\n", r.Source, r.Winner)
	if r.Steps > 0 {
		fmt.Fprintf(w, "Winning lineage: %d relaxation step(s)\n", r.Steps)
	}
	fmt.Fprintln(w)
	for _, sd := range r.Structures {
		fmt.Fprintf(w, "%-7s %-9s %s\n", sd.Outcome, sd.Kind, sd.ID)
		fmt.Fprintf(w, "        %s\n", sd.Detail)
		if len(sd.DemandedBy) > 0 && sd.Outcome != "kept" {
			fmt.Fprintf(w, "        demanded by: %s\n", joinCapped(sd.DemandedBy, 5))
		}
		for _, ev := range sd.Events {
			// Skip the event already quoted in the one-line detail.
			if strings.Contains(sd.Detail, ev.Detail) {
				continue
			}
			fmt.Fprintf(w, "        step %d: %s %s\n", ev.Iteration, ev.Action, ev.Detail)
		}
	}
	if r.Calibration != nil {
		fmt.Fprintf(w, "\nCost-model calibration (realized ΔT / estimated §3.3.2 bound):\n")
		r.Calibration.WriteText(w)
	}
}
