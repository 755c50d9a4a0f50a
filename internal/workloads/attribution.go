package workloads

import "sort"

// SignatureGroup aggregates a workload's statements under one canonical
// signature: how many distinct statements share the shape, their joint
// weight and weight share, the share of the workload's weighted cost they
// carry, and the physical structures their plans demanded.
type SignatureGroup struct {
	Signature  string  `json:"signature"`
	Statements int     `json:"statements"`
	Updates    int     `json:"updates,omitempty"`
	Weight     float64 `json:"weight"`
	// WeightShare is Weight / total workload weight; CostShare the
	// group's fraction of the total weighted cost (0 when no costs were
	// supplied or the workload has not been priced).
	WeightShare float64 `json:"weight_share"`
	CostShare   float64 `json:"cost_share,omitempty"`
	// Structures lists the structure IDs the group's statements demanded
	// in the winning configuration, sorted.
	Structures []string `json:"structures,omitempty"`
	// ExampleSQL is the heaviest statement of the group.
	ExampleSQL string `json:"example_sql,omitempty"`
}

// AttributeSignatures groups w's statements by signature, heaviest group
// first. costs, when non-nil, must align with w.Queries (per-statement
// unweighted cost, as the evaluated configuration reports); demanded, when
// non-nil, maps query IDs to the structure IDs their plans demanded.
func AttributeSignatures(w *Workload, costs []float64, demanded map[string][]string) []SignatureGroup {
	total := w.TotalWeight()
	weightedCost := 0.0
	if costs != nil {
		for i, q := range w.Queries {
			if i < len(costs) {
				weightedCost += q.Weight * costs[i]
			}
		}
	}
	groups := map[string]*SignatureGroup{}
	exampleWeight := map[string]float64{}
	structSeen := map[string]map[string]bool{}
	for i, q := range w.Queries {
		sig := q.Signature()
		g := groups[sig]
		if g == nil {
			g = &SignatureGroup{Signature: sig}
			groups[sig] = g
			structSeen[sig] = map[string]bool{}
		}
		g.Statements++
		if q.IsUpdate() {
			g.Updates++
		}
		g.Weight += q.Weight
		if q.Weight >= exampleWeight[sig] {
			exampleWeight[sig] = q.Weight
			g.ExampleSQL = q.SQL
		}
		if costs != nil && i < len(costs) && weightedCost > 0 {
			g.CostShare += q.Weight * costs[i] / weightedCost
		}
		for _, id := range demanded[q.ID] {
			if !structSeen[sig][id] {
				structSeen[sig][id] = true
				g.Structures = append(g.Structures, id)
			}
		}
	}
	out := make([]SignatureGroup, 0, len(groups))
	for _, g := range groups {
		if total > 0 {
			g.WeightShare = g.Weight / total
		}
		sort.Strings(g.Structures)
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Signature < out[j].Signature
	})
	return out
}
