package service

import (
	"fmt"
	"time"

	"repro/internal/obs"
)

// MonitorOptions configure the service's self-monitoring subsystem: a
// metrics-history sampler scraping the Prometheus registry on an
// interval and an SLO alert engine evaluating declarative rules over
// that history on every tick. A zero HistoryInterval disables the whole
// subsystem — the service then carries nil sampler/engine pointers,
// which every call site treats as free no-ops.
type MonitorOptions struct {
	// HistoryInterval is the sampling and evaluation cadence; 0 disables
	// self-monitoring entirely.
	HistoryInterval time.Duration
	// HistoryWindow is how much metric history is retained for
	// GET /metrics/history and rate/absent predicates (0 = 15m).
	HistoryWindow time.Duration
	// Rules is the evaluated alert ruleset (nil = obs.DefaultAlertRules).
	// An explicitly empty non-nil slice runs the sampler without alerts.
	Rules []obs.AlertRule
	// AlertLogPath, when set, persists alert transitions as JSONL
	// (creating the file and its directory) so "what fired last night"
	// survives a restart: GET /alerts serves the logged transitions
	// from boot.
	AlertLogPath string
}

// HealthStatus is the shared GET /healthz payload — the same shape in
// single-tenant and fleet mode, so probes and dashboards parse one
// schema. Mode distinguishes the two; Tenants is only present in fleet
// mode (a pointer so an empty fleet still renders "tenants": 0).
type HealthStatus struct {
	Status        string  `json:"status"`
	Mode          string  `json:"mode"`
	Database      string  `json:"database,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Ready         bool    `json:"ready"`
	HasRec        bool    `json:"has_recommendation"`
	Sessions      int     `json:"sessions"`
	Tenants       *int    `json:"tenants,omitempty"`
	AlertsFiring  int     `json:"alerts_firing"`
}

// initMonitor wires the history sampler and the alert engine, with its
// transition log, according to opts.Monitor. Called from New after the
// registry and gauges exist; a zero HistoryInterval leaves every field
// nil.
func (s *Service) initMonitor() error {
	m := s.opts.Monitor
	if m.HistoryInterval <= 0 {
		return nil
	}
	s.history = obs.NewHistory(s.promReg, obs.HistoryOptions{
		Window:   m.HistoryWindow,
		Interval: m.HistoryInterval,
		// Scrape-time gauges (window stats, cache counters, ...) are
		// refreshed exactly the way a Prometheus scrape refreshes them,
		// so the history and the exposition never disagree.
		BeforeSample: s.RefreshPromGauges,
	})
	rules := m.Rules
	if rules == nil {
		rules = obs.DefaultAlertRules()
	}
	if len(rules) > 0 {
		eng, err := obs.NewAlertEngine(s.history, obs.AlertEngineOptions{
			Rules:        rules,
			Registry:     s.promReg,
			Origin:       s.opts.Tenant,
			OnTransition: s.onAlertTransition,
			LogPath:      m.AlertLogPath,
		})
		if err != nil {
			return fmt.Errorf("service: %w", err)
		}
		s.alerts = eng
	}
	return nil
}

// onAlertTransition surfaces each firing/resolution as a log line —
// firings through the alertable Warnf channel, resolutions through the
// ordinary log. Persistence happens in the engine's transition log.
func (s *Service) onAlertTransition(tr obs.AlertTransition) {
	series := ""
	if tr.Series != "" {
		series = "{" + tr.Series + "}"
	}
	if tr.To == obs.AlertStateFiring {
		s.warnf("service: alert %s%s firing (severity=%s value=%.4g threshold=%.4g): %s",
			tr.Rule, series, tr.Severity, tr.Value, tr.Threshold, tr.Summary)
		return
	}
	s.logf("service: alert %s%s resolved (value=%.4g threshold=%.4g)",
		tr.Rule, series, tr.Value, tr.Threshold)
}

// monitorWorker ticks the sampler and the alert engine until the
// service closes. One goroutine owns both, so every evaluation sees the
// sample taken in the same tick.
func (s *Service) monitorWorker() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.history.Interval())
	defer ticker.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case now := <-ticker.C:
			s.history.Sample(now)
			s.alerts.Evaluate(now)
		}
	}
}

// History exposes the metrics-history sampler (nil-safe no-op when
// self-monitoring is disabled).
func (s *Service) History() *obs.History { return s.history }

// Alerts exposes the SLO alert engine (nil-safe no-op when
// self-monitoring is disabled).
func (s *Service) Alerts() *obs.AlertEngine { return s.alerts }

// Ready reports whether the service is ready to serve recommendation
// traffic — the GET /readyz predicate. Liveness (GET /healthz) is
// "the process answers"; readiness additionally requires a completed
// retune, so a load balancer only routes clients here once
// /recommendation stopped answering 503.
func (s *Service) Ready() (bool, []string) {
	var reasons []string
	if s.Recommendation() == nil {
		reasons = append(reasons, "no completed retune yet")
	}
	return len(reasons) == 0, reasons
}

// Health assembles the shared /healthz payload.
func (s *Service) Health() HealthStatus {
	ready, _ := s.Ready()
	firing := 0
	for _, n := range s.alerts.FiringBySeverity() {
		firing += n
	}
	return HealthStatus{
		Status:        "ok",
		Mode:          "single-tenant",
		Database:      s.db.Name,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Ready:         ready,
		HasRec:        s.Recommendation() != nil,
		Sessions:      s.recorder.Len(),
		AlertsFiring:  firing,
	}
}
