package core

import (
	"fmt"
	"strings"

	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/physical"
	"repro/internal/sqlx"
)

// ParseConfigurationScript builds a what-if configuration from a SQL
// script of CREATE INDEX / CREATE VIEW statements, layered on top of the
// session's base configuration. Views must precede the indexes defined
// over them; every referenced table and column is validated against the
// catalog (or the view's output columns).
func (t *Tuner) ParseConfigurationScript(script string) (*physical.Configuration, error) {
	stmts, err := sqlx.ParseScript(script)
	if err != nil {
		return nil, fmt.Errorf("core: parsing configuration script: %w", err)
	}
	cfg := t.Base.Clone()
	// User-assigned view names map to the canonical generated names.
	viewNames := map[string]string{}
	for i, stmt := range stmts {
		switch s := stmt.(type) {
		case *sqlx.CreateViewStmt:
			bound, err := optimizer.Bind(t.DB, s.Select)
			if err != nil {
				return nil, fmt.Errorf("core: view %s: %w", s.Name, err)
			}
			def, err := t.Opt.ViewDefinition(bound)
			if err != nil {
				return nil, fmt.Errorf("core: view %s: %w", s.Name, err)
			}
			v := cfg.AddView(def)
			viewNames[strings.ToLower(s.Name)] = v.Name
		case *sqlx.CreateIndexStmt:
			target := s.Table
			if canon, ok := viewNames[strings.ToLower(s.Table)]; ok {
				target = canon
			}
			ix, err := t.buildWhatIfIndex(cfg, target, s)
			if err != nil {
				return nil, fmt.Errorf("core: statement %d (%s): %w", i+1, s.Name, err)
			}
			cfg.AddIndex(ix)
		default:
			return nil, fmt.Errorf("core: statement %d: configuration scripts accept only CREATE INDEX / CREATE VIEW, got %s", i+1, stmt.SQL())
		}
	}
	// Every view needs a clustered index to be materialized; add one per
	// view the script left bare.
	for _, v := range cfg.Views() {
		if cfg.ClusteredOn(v.Name) == nil {
			keys := v.AllColumnNames()
			cfg.AddIndex(physical.NewIndex(v.Name, keys[:1], keys[1:], true))
		}
	}
	return cfg, nil
}

// buildWhatIfIndex validates column references against a base table or a
// view already present in cfg and spells them as the catalog or the view
// does. View indexes may name columns either by the view-local name or by
// the base "table.column" the view exposes; like every identifier in the
// script, either is matched case-insensitively.
func (t *Tuner) buildWhatIfIndex(cfg *physical.Configuration, target string, s *sqlx.CreateIndexStmt) (*physical.Index, error) {
	if v := cfg.View(target); v != nil {
		mapCol := func(name string) (string, error) {
			for _, c := range v.Cols {
				if strings.EqualFold(c.Name, strings.ReplaceAll(name, ".", "_")) {
					return c.Name, nil
				}
			}
			return "", fmt.Errorf("view %s has no column %q", v.Name, name)
		}
		keys := make([]string, 0, len(s.Keys))
		for _, k := range s.Keys {
			m, err := mapCol(k)
			if err != nil {
				return nil, err
			}
			keys = append(keys, m)
		}
		var suffix []string
		for _, k := range s.Include {
			m, err := mapCol(k)
			if err != nil {
				return nil, err
			}
			suffix = append(suffix, m)
		}
		return physical.NewIndex(v.Name, keys, suffix, s.Clustered), nil
	}
	tb := t.DB.Table(target)
	if tb == nil {
		return nil, fmt.Errorf("unknown table or view %q", target)
	}
	check := func(cols []string) ([]string, error) {
		out := make([]string, 0, len(cols))
		for _, c := range cols {
			col := tb.Column(c)
			if col == nil {
				return nil, fmt.Errorf("table %s has no column %q", tb.Name, c)
			}
			out = append(out, col.Name)
		}
		return out, nil
	}
	keys, err := check(s.Keys)
	if err != nil {
		return nil, err
	}
	suffix, err := check(s.Include)
	if err != nil {
		return nil, err
	}
	if s.Clustered && cfg.ClusteredOn(tb.Name) != nil {
		return nil, fmt.Errorf("table %s already has a clustered index", tb.Name)
	}
	return physical.NewIndex(tb.Name, keys, suffix, s.Clustered), nil
}

// WhatIf evaluates the workload under a user-supplied configuration and
// reports its cost, size, and improvement over the base configuration —
// the classical what-if analysis built on the same machinery the tuner
// uses.
func (t *Tuner) WhatIf(cfg *physical.Configuration) (*WhatIfResult, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	endSpan := t.span("what-if")
	base, err := t.evaluate(t.Base)
	if err != nil {
		endSpan(obs.F{"error": err.Error()})
		return nil, err
	}
	target, err := t.evaluate(cfg)
	if err != nil {
		endSpan(obs.F{"error": err.Error()})
		return nil, err
	}
	endSpan(obs.F{
		"base_cost":       base.Cost,
		"target_cost":     target.Cost,
		"improvement_pct": Improvement(base.Cost, target.Cost),
	})
	res := &WhatIfResult{
		Base:           base,
		Target:         target,
		ImprovementPct: Improvement(base.Cost, target.Cost),
	}
	for i, tq := range t.Queries {
		res.PerQuery = append(res.PerQuery, QueryCostDelta{
			ID:         tq.Query.ID,
			SQL:        tq.Query.SQL,
			BaseCost:   base.Results[i].TotalCost(),
			TargetCost: target.Results[i].TotalCost(),
		})
	}
	return res, nil
}

// WhatIfResult is the outcome of evaluating one configuration.
type WhatIfResult struct {
	Base           *EvaluatedConfig
	Target         *EvaluatedConfig
	ImprovementPct float64
	PerQuery       []QueryCostDelta
}

// QueryCostDelta compares one query's cost under two configurations.
type QueryCostDelta struct {
	ID         string
	SQL        string
	BaseCost   float64
	TargetCost float64
}

// ImprovementPct is the per-query improvement.
func (d QueryCostDelta) ImprovementPct() float64 {
	return Improvement(d.BaseCost, d.TargetCost)
}
