package core

import (
	"encoding/json"
	"io"
	"time"

	"repro/internal/physical"
)

// Report is a serializable summary of one tuning session, suitable for
// archiving recommendations or diffing runs.
type Report struct {
	Paper       string        `json:"paper"`
	Database    string        `json:"database"`
	Workload    string        `json:"workload"`
	GeneratedAt time.Time     `json:"generated_at"`
	Budget      int64         `json:"space_budget_bytes,omitempty"`
	ViewsOn     bool          `json:"views_enabled"`
	Elapsed     time.Duration `json:"elapsed_ns"`

	Initial ConfigSummary `json:"initial"`
	Optimal ConfigSummary `json:"optimal"`
	Best    ConfigSummary `json:"best"`

	ImprovementPct float64 `json:"improvement_pct"`
	Iterations     int     `json:"iterations"`
	OptimizerCalls int64   `json:"optimizer_calls"`
	IndexRequests  int64   `json:"index_requests"`
	ViewRequests   int64   `json:"view_requests"`

	Frontier []FrontierPoint `json:"frontier,omitempty"`
	PerQuery []QueryReport   `json:"per_query"`
	// Explain is the per-structure decision log of the session.
	Explain *ExplainReport `json:"explain,omitempty"`
	// DDL is the executable script materializing the recommendation.
	DDL string `json:"ddl"`
}

// ConfigSummary captures one configuration's aggregates and structures.
type ConfigSummary struct {
	Cost      float64  `json:"cost"`
	SizeBytes int64    `json:"size_bytes"`
	Indexes   []string `json:"indexes"`
	Views     []string `json:"views,omitempty"`
}

// QueryReport is the per-query cost under the initial and recommended
// configurations.
type QueryReport struct {
	ID          string  `json:"id"`
	SQL         string  `json:"sql"`
	Weight      float64 `json:"weight"`
	InitialCost float64 `json:"initial_cost"`
	BestCost    float64 `json:"best_cost"`
	UsesViews   bool    `json:"uses_views,omitempty"`
}

// summarize renders a configuration's structures.
func summarize(ec *EvaluatedConfig) ConfigSummary {
	s := ConfigSummary{Cost: ec.Cost, SizeBytes: ec.SizeBytes}
	for _, ix := range ec.Config.Indexes() {
		s.Indexes = append(s.Indexes, ix.ID())
	}
	for _, v := range ec.Config.Views() {
		s.Views = append(s.Views, v.Name+" := "+v.SQL())
	}
	return s
}

// BuildReport assembles the report for a finished tuning session.
func (t *Tuner) BuildReport(workloadName string, res *Result) *Report {
	r := &Report{
		Paper:          "Bruno & Chaudhuri, Automatic Physical Database Tuning: A Relaxation-based Approach (SIGMOD 2005)",
		Database:       t.DB.Name,
		Workload:       workloadName,
		GeneratedAt:    time.Now().UTC(),
		Budget:         t.Options.SpaceBudget,
		ViewsOn:        !t.Options.NoViews,
		Elapsed:        res.Elapsed,
		Initial:        summarize(res.Initial),
		Optimal:        summarize(res.Optimal),
		Best:           summarize(res.Best),
		ImprovementPct: res.ImprovementPct(),
		Iterations:     res.Iterations,
		OptimizerCalls: res.OptimizerCalls,
		IndexRequests:  res.IndexRequests,
		ViewRequests:   res.ViewRequests,
		Frontier:       res.Frontier,
		Explain:        res.Explain,
		DDL:            physical.ConfigurationDDL(res.Best.Config),
	}
	for i, tq := range t.Queries {
		qr := QueryReport{
			ID:          tq.Query.ID,
			SQL:         tq.Query.SQL,
			Weight:      tq.Query.Weight,
			InitialCost: res.Initial.Results[i].TotalCost(),
			BestCost:    res.Best.Results[i].TotalCost(),
		}
		if p := res.Best.Results[i].Plan; p != nil && len(p.UsedViews) > 0 {
			qr.UsesViews = true
		}
		r.PerQuery = append(r.PerQuery, qr)
	}
	return r
}

// WriteJSON encodes the report with indentation.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
