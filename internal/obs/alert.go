package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// AlertDuration is a time.Duration that marshals as a Go duration
// string ("30s", "5m") and additionally accepts bare numbers (seconds)
// when unmarshaling — the forgiving form for hand-written rule files.
type AlertDuration time.Duration

// MarshalJSON renders the duration string.
func (d AlertDuration) MarshalJSON() ([]byte, error) {
	return []byte(strconv.Quote(time.Duration(d).String())), nil
}

// UnmarshalJSON accepts "5m"-style strings or numeric seconds.
func (d *AlertDuration) UnmarshalJSON(b []byte) error {
	s := strings.TrimSpace(string(b))
	if len(s) > 1 && s[0] == '"' {
		unq, err := strconv.Unquote(s)
		if err != nil {
			return err
		}
		dur, err := time.ParseDuration(unq)
		if err != nil {
			return err
		}
		*d = AlertDuration(dur)
		return nil
	}
	secs, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("obs: duration %s: want \"30s\"-style string or seconds", s)
	}
	*d = AlertDuration(time.Duration(secs * float64(time.Second)))
	return nil
}

// Alert rule predicate kinds.
const (
	AlertKindThreshold = "threshold" // compare the latest sample
	AlertKindRate      = "rate"      // compare the per-second change over the lookback
	AlertKindAbsent    = "absent"    // fire when no fresh sample exists
)

// Alert severities, mildest first.
const (
	SeverityInfo     = "info"
	SeverityWarning  = "warning"
	SeverityCritical = "critical"
)

// Alert instance states.
const (
	AlertStateInactive = "inactive"
	AlertStatePending  = "pending" // predicate true, waiting out `for`
	AlertStateFiring   = "firing"
)

// AlertRule is one declarative SLO rule, evaluated against the metrics
// history every sampling tick. Rules are plain JSON — tunerd loads them
// from -alert-rules — and reference series by metric name with an
// optional label selector (`tuner_phase_alloc_bytes_total` matches
// every phase series; `...{phase="search"}` exactly one). A rule whose
// series never appears is inert, never an error, so one default ruleset
// serves both single-tenant and fleet deployments.
type AlertRule struct {
	// Name identifies the rule (required, unique); it becomes the `rule`
	// label of the meta-series.
	Name string `json:"name"`
	// Severity is info, warning, or critical (default warning).
	Severity string `json:"severity,omitempty"`
	// Metric names the series the predicate reads (required), with an
	// optional {label="value"} selector.
	Metric string `json:"metric"`
	// Kind selects the predicate: threshold (latest value), rate
	// (per-second change over the Over lookback), or absent (no sample
	// within Over). Default threshold.
	Kind string `json:"kind,omitempty"`
	// Op compares the observed value against Value: one of > < >= <=
	// (ignored by absent rules; default >).
	Op string `json:"op,omitempty"`
	// Value is the comparison bound.
	Value float64 `json:"value,omitempty"`
	// Per, when set, divides the observed value by the same-kind
	// aggregate of this series (summed across its matches) — how a rule
	// expresses a ratio such as cache hits per miss or alloc bytes per
	// optimizer call. A zero or missing denominator makes the sample "no
	// data" rather than a division blow-up.
	Per string `json:"per,omitempty"`
	// Over is the lookback for rate and absent predicates (0 = the whole
	// retained window).
	Over AlertDuration `json:"over,omitempty"`
	// For is the hysteresis duration, applied symmetrically: the
	// predicate must hold For before the alert fires, and must fail For
	// before a firing alert resolves. 0 = transition immediately.
	For AlertDuration `json:"for,omitempty"`
	// IgnoreZero treats an exact-zero observation as "no data" — for
	// gauges like tuner_replay_speedup_ratio where 0 means "never
	// measured", not "infinitely slow".
	IgnoreZero bool `json:"ignore_zero,omitempty"`
	// Summary is the human line surfaced with firings.
	Summary string `json:"summary,omitempty"`
}

// DefaultAlertRules is the built-in SLO ruleset tunerd evaluates when
// no -alert-rules file overrides it. Every rule references series the
// tuner already exports; rules over fleet-only series (quota 429s) are
// inert in single-tenant mode.
func DefaultAlertRules() []AlertRule {
	return []AlertRule{
		{
			Name: "retune-p95-latency", Severity: SeverityWarning,
			Metric: "tuner_retune_duration_seconds_p95",
			Kind:   AlertKindThreshold, Op: ">", Value: 30,
			For:     AlertDuration(time.Minute),
			Summary: "p95 retune latency above 30s",
		},
		{
			Name: "bound-violation-rate", Severity: SeverityWarning,
			Metric: "tuner_bound_violations_total",
			Kind:   AlertKindRate, Op: ">", Value: 0.05,
			Over: AlertDuration(5 * time.Minute), For: AlertDuration(time.Minute),
			Summary: "§3.3.2 ΔT penalty bound violated more than 3x/min — penalty ranking may be misled",
		},
		{
			Name: "fragment-cache-collapse", Severity: SeverityWarning,
			Metric: "tuner_fragment_cache_hits_total", Per: "tuner_fragment_cache_misses_total",
			Kind: AlertKindRate, Op: "<", Value: 0.25,
			Over: AlertDuration(5 * time.Minute), For: AlertDuration(2 * time.Minute),
			Summary: "request-cache hit/miss ratio collapsed below 0.25 — warm starts are not warm",
		},
		{
			Name: "replay-regression", Severity: SeverityCritical,
			Metric: "tuner_replay_speedup_ratio",
			Kind:   AlertKindThreshold, Op: "<", Value: 1, IgnoreZero: true,
			For:     AlertDuration(30 * time.Second),
			Summary: "measured replay speedup below 1 — the recommendation regresses the incumbent",
		},
		{
			Name: "quota-429-rate", Severity: SeverityWarning,
			Metric: "tuner_fleet_quota_rejected_total",
			Kind:   AlertKindRate, Op: ">", Value: 1,
			Over: AlertDuration(time.Minute), For: AlertDuration(time.Minute),
			Summary: "tenants rejected by ingestion quota at more than 1 batch/s",
		},
		{
			Name: "progress-drops", Severity: SeverityInfo,
			Metric: "tuner_progress_events_dropped",
			Kind:   AlertKindRate, Op: ">", Value: 0,
			Over: AlertDuration(time.Minute), For: AlertDuration(time.Minute),
			Summary: "live progress subscribers are dropping events",
		},
		{
			Name: "alloc-creep", Severity: SeverityWarning,
			Metric: "tuner_phase_alloc_bytes_total", Per: "tuner_optimizer_calls_total",
			Kind: AlertKindRate, Op: ">", Value: 4e6,
			Over: AlertDuration(10 * time.Minute), For: AlertDuration(5 * time.Minute),
			Summary: "per-optimizer-call allocation creep above 4MB in one phase",
		},
	}
}

// ParseAlertRules decodes a rule file: either a bare JSON array of
// rules or an object {"rules": [...]}, told apart by the first non-space
// byte so a decode error names what is wrong in the form used. Every
// rule is validated.
func ParseAlertRules(data []byte) ([]AlertRule, error) {
	var rules []AlertRule
	var err error
	if trimmed := bytes.TrimLeft(data, " \t\r\n"); len(trimmed) > 0 && trimmed[0] == '{' {
		var wrapped struct {
			Rules []AlertRule `json:"rules"`
		}
		err = json.Unmarshal(data, &wrapped)
		rules = wrapped.Rules
	} else {
		err = json.Unmarshal(data, &rules)
	}
	if err != nil {
		return nil, fmt.Errorf("obs: alert rules: %w", err)
	}
	if len(rules) == 0 {
		return nil, errors.New("obs: alert rules: no rules defined")
	}
	if _, err := compileRules(rules); err != nil {
		return nil, err
	}
	return rules, nil
}

// compileRules validates a ruleset: every rule compiles and no two share
// a name.
func compileRules(rules []AlertRule) ([]*compiledRule, error) {
	out := make([]*compiledRule, 0, len(rules))
	seen := make(map[string]bool, len(rules))
	for _, r := range rules {
		cr, err := compileRule(r)
		if err != nil {
			return nil, err
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("obs: alert rules: duplicate rule %q", r.Name)
		}
		seen[r.Name] = true
		out = append(out, cr)
	}
	return out, nil
}

// compiledRule is a validated rule with its selectors pre-parsed.
type compiledRule struct {
	rule    AlertRule
	name    string
	sel     map[string]string
	perName string
	perSel  map[string]string
	forDur  time.Duration
	over    time.Duration
}

func compileRule(r AlertRule) (*compiledRule, error) {
	if r.Name == "" {
		return nil, errors.New("obs: alert rule: name is required")
	}
	if r.Metric == "" {
		return nil, fmt.Errorf("obs: alert rule %s: metric is required", r.Name)
	}
	if r.Severity == "" {
		r.Severity = SeverityWarning
	}
	switch r.Severity {
	case SeverityInfo, SeverityWarning, SeverityCritical:
	default:
		return nil, fmt.Errorf("obs: alert rule %s: unknown severity %q", r.Name, r.Severity)
	}
	if r.Kind == "" {
		r.Kind = AlertKindThreshold
	}
	switch r.Kind {
	case AlertKindThreshold, AlertKindRate, AlertKindAbsent:
	default:
		return nil, fmt.Errorf("obs: alert rule %s: unknown kind %q", r.Name, r.Kind)
	}
	if r.Op == "" {
		r.Op = ">"
	}
	switch r.Op {
	case ">", "<", ">=", "<=":
	default:
		return nil, fmt.Errorf("obs: alert rule %s: unknown op %q", r.Name, r.Op)
	}
	if r.Per != "" && r.Kind == AlertKindAbsent {
		return nil, fmt.Errorf("obs: alert rule %s: per does not apply to absent rules", r.Name)
	}
	if r.For < 0 || r.Over < 0 {
		return nil, fmt.Errorf("obs: alert rule %s: negative duration (for %s, over %s)",
			r.Name, time.Duration(r.For), time.Duration(r.Over))
	}
	cr := &compiledRule{rule: r, forDur: time.Duration(r.For), over: time.Duration(r.Over)}
	var err error
	if cr.name, cr.sel, err = parseMetricSelector(r.Metric); err != nil {
		return nil, fmt.Errorf("obs: alert rule %s: %w", r.Name, err)
	}
	if r.Per != "" {
		if cr.perName, cr.perSel, err = parseMetricSelector(r.Per); err != nil {
			return nil, fmt.Errorf("obs: alert rule %s: per: %w", r.Name, err)
		}
	}
	return cr, nil
}

// parseMetricSelector splits `name{a="x",b="y"}` into the metric name
// and a label map (nil when unlabeled).
func parseMetricSelector(s string) (string, map[string]string, error) {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return s, nil, nil
	}
	if !strings.HasSuffix(s, "}") {
		return "", nil, fmt.Errorf("bad metric selector %q", s)
	}
	name := s[:open]
	body := s[open+1 : len(s)-1]
	sel, err := parseLabelPairs(body)
	if err != nil {
		return "", nil, fmt.Errorf("bad metric selector %q: %w", s, err)
	}
	if len(sel) == 0 {
		return "", nil, fmt.Errorf("bad metric selector %q", s)
	}
	return name, sel, nil
}

func (cr *compiledRule) compare(v float64) bool {
	switch cr.rule.Op {
	case ">":
		return v > cr.rule.Value
	case "<":
		return v < cr.rule.Value
	case ">=":
		return v >= cr.rule.Value
	default:
		return v <= cr.rule.Value
	}
}

// AlertTransition is one state change worth reporting: an alert started
// firing or resolved. Transitions are surfaced in GET /alerts, counted
// in the tuner_alert_transitions_total meta-series, handed to the
// OnTransition hook (the service logs them), and — with a log path set —
// persisted as JSONL so firings survive restarts.
type AlertTransition struct {
	Time      time.Time `json:"time"`
	Origin    string    `json:"origin,omitempty"` // tenant ID in fleet mode
	Rule      string    `json:"rule"`
	Severity  string    `json:"severity"`
	Series    string    `json:"series,omitempty"` // label pairs of the instance
	From      string    `json:"from"`
	To        string    `json:"to"` // "firing" or "resolved"
	Value     float64   `json:"value"`
	Threshold float64   `json:"threshold"`
	Summary   string    `json:"summary,omitempty"`
}

// AlertEngineOptions configure an alert engine.
type AlertEngineOptions struct {
	// Rules is the evaluated ruleset (obs.DefaultAlertRules for the
	// built-in SLOs). Invalid rules fail NewAlertEngine.
	Rules []AlertRule
	// Registry, when set, receives the meta-series
	// tuner_alerts_firing{rule,severity} and
	// tuner_alert_transitions_total{rule,to}.
	Registry *Registry
	// Origin stamps transitions (the tenant ID in fleet mode).
	Origin string
	// OnTransition receives each firing/resolved transition after the
	// evaluation tick completes (never called re-entrantly under the
	// engine lock).
	OnTransition func(AlertTransition)
	// LogPath, when set, persists transitions as JSONL (creating the
	// file and its directory), so the transitions of an earlier process
	// stay visible in Status. Empty keeps them in memory only.
	LogPath string
}

const (
	// alertLogLimit bounds the transitions an engine retains, in memory
	// and in its log file.
	alertLogLimit = 512
	// recentTransitions is how many of them Status reports.
	recentTransitions = 128
)

// AlertEngine evaluates declarative SLO rules over a metrics History.
// Evaluation is single-threaded by contract (the monitor worker ticks
// it); the public read surface is concurrency-safe. A nil *AlertEngine
// is a valid no-op engine.
type AlertEngine struct {
	hist    *History
	rules   []*compiledRule
	origin  string
	onTrans func(AlertTransition)

	firingVec *GaugeVec2
	transVec  *CounterVec2

	mu          sync.Mutex
	states      map[string]*alertState
	log         *jsonlStore[AlertTransition] // every retained transition
	evaluatedAt time.Time
	evals       int64
}

type alertState struct {
	rule       *compiledRule
	series     string
	state      string
	since      time.Time // entered pending/firing
	clearSince time.Time // firing predicate last went false
	lastValue  float64
}

// NewAlertEngine validates rules, opens the transition log, and builds
// an engine reading hist.
func NewAlertEngine(hist *History, opts AlertEngineOptions) (*AlertEngine, error) {
	rules, err := compileRules(opts.Rules)
	if err != nil {
		return nil, err
	}
	log, err := openStore[AlertTransition](opts.LogPath, alertLogLimit, nil)
	if err != nil {
		return nil, err
	}
	e := &AlertEngine{
		hist:    hist,
		rules:   rules,
		origin:  opts.Origin,
		onTrans: opts.OnTransition,
		states:  map[string]*alertState{},
		log:     log,
	}
	if opts.Registry != nil {
		e.firingVec = opts.Registry.NewGaugeVec2("tuner_alerts_firing",
			"Alert instances currently firing, by rule and severity (0 = healthy).", "rule", "severity")
		e.transVec = opts.Registry.NewCounterVec2("tuner_alert_transitions_total",
			"Alert state transitions since start, by rule and destination state.", "rule", "to")
		// Seed every rule at zero so the series exist before anything
		// fires — dashboards and the fleet's tenant-labeled merge see a
		// stable series set from the first scrape.
		for _, cr := range e.rules {
			e.firingVec.Set(cr.rule.Name, cr.rule.Severity, 0)
			e.transVec.Add(cr.rule.Name, "firing", 0)
			e.transVec.Add(cr.rule.Name, "resolved", 0)
		}
	}
	return e, nil
}

// Close closes the transition log. An engine evaluated after Close
// keeps alerting and retains its transitions in memory only.
func (e *AlertEngine) Close() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.log.close()
}

// Enabled reports whether the engine exists.
func (e *AlertEngine) Enabled() bool { return e != nil }

// Rules returns the configured ruleset.
func (e *AlertEngine) Rules() []AlertRule {
	if e == nil {
		return nil
	}
	out := make([]AlertRule, len(e.rules))
	for i, cr := range e.rules {
		out[i] = cr.rule
	}
	return out
}

// Evaluations returns the number of completed evaluation ticks.
func (e *AlertEngine) Evaluations() int64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.evals
}

// observation is one (series, value) the predicate saw this tick.
type observation struct {
	series string // rendered label pairs ("" for unlabeled)
	value  float64
	ok     bool // false = no data (missing, stale, reset, zero denominator)
}

// Evaluate runs one tick: every rule's predicate over the current
// history, the `for` hysteresis state machines, the meta-series, and
// transition dispatch. The caller supplies the clock, which makes the
// engine a pure function of (samples, now) — replayable and
// deterministic under any tuner parallelism.
func (e *AlertEngine) Evaluate(now time.Time) {
	if e == nil {
		return
	}
	var fired []AlertTransition
	e.mu.Lock()
	e.evaluatedAt = now
	e.evals++
	for _, cr := range e.rules {
		var obsvs []observation
		if cr.rule.Kind == AlertKindAbsent {
			obsvs = []observation{e.observeAbsent(cr, now)}
		} else {
			obsvs = e.observeValued(cr, now)
		}
		seen := map[string]bool{}
		for _, o := range obsvs {
			seen[o.series] = true
			breach := o.ok && cr.compare(o.value)
			if cr.rule.Kind == AlertKindAbsent {
				breach = o.ok // for absent rules, ok means "is absent"
			}
			if tr, changed := e.step(cr, o.series, o.value, breach, now); changed {
				fired = append(fired, tr)
			}
		}
		// Instances whose series produced nothing this tick decay as
		// "predicate false" — a vanished signal resolves after `for`.
		// Keys are sorted so transition order never depends on map
		// iteration order.
		var decayed []string
		for key, st := range e.states {
			if st.rule == cr && !seen[st.series] {
				decayed = append(decayed, key)
			}
		}
		sort.Strings(decayed)
		for _, key := range decayed {
			st := e.states[key]
			if tr, changed := e.step(cr, st.series, st.lastValue, false, now); changed {
				fired = append(fired, tr)
			}
		}
	}
	// Refresh the firing meta-series to the post-tick counts.
	if e.firingVec != nil {
		counts := map[string]int{}
		for _, st := range e.states {
			if st.state == AlertStateFiring {
				counts[st.rule.rule.Name]++
			}
		}
		for _, cr := range e.rules {
			e.firingVec.Set(cr.rule.Name, cr.rule.Severity, float64(counts[cr.rule.Name]))
		}
	}
	for i := range fired {
		// Persistence is best-effort: a write error never stops alerting,
		// and the transition stays retained in memory either way.
		_ = e.log.append(&fired[i])
		if e.transVec != nil {
			e.transVec.Add(fired[i].Rule, fired[i].To, 1)
		}
	}
	e.mu.Unlock()

	// The hook runs outside the lock: it may scrape the engine (slog
	// handlers, recorders) without deadlocking.
	if e.onTrans != nil {
		for _, tr := range fired {
			e.onTrans(tr)
		}
	}
}

// observeValued computes the predicate input for each matching series.
func (e *AlertEngine) observeValued(cr *compiledRule, now time.Time) []observation {
	var out []observation
	e.hist.lockedView(cr.name, cr.sel, func(r *seriesRing) {
		v, ok := cr.extract(r, now)
		out = append(out, observation{series: r.labels, value: v, ok: ok})
	})
	if cr.rule.Per == "" || len(out) == 0 {
		return out
	}
	denom, denomOK := 0.0, false
	e.hist.lockedView(cr.perName, cr.perSel, func(r *seriesRing) {
		if v, ok := cr.extract(r, now); ok {
			denom += v
			denomOK = true
		}
	})
	for i := range out {
		if !out[i].ok {
			continue
		}
		if !denomOK || denom <= 0 {
			out[i].ok = false
			continue
		}
		out[i].value /= denom
	}
	return out
}

// observeAbsent reports whether the rule's series has any fresh sample;
// ok=true means "absent" (the breach condition).
func (e *AlertEngine) observeAbsent(cr *compiledRule, now time.Time) observation {
	cutoff := int64(0)
	if cr.over > 0 {
		cutoff = now.Add(-cr.over).UnixMilli()
	}
	present := false
	e.hist.lockedView(cr.name, cr.sel, func(r *seriesRing) {
		if t, _, ok := r.last(); ok && t >= cutoff {
			present = true
		}
	})
	return observation{ok: !present}
}

// extract computes one series' predicate input: the latest sample for
// threshold rules, the per-second change over the lookback for rate
// rules. Counter resets (negative deltas) and IgnoreZero zeros read as
// "no data".
func (cr *compiledRule) extract(r *seriesRing, now time.Time) (float64, bool) {
	switch cr.rule.Kind {
	case AlertKindRate:
		cutoff := int64(0)
		if cr.over > 0 {
			cutoff = now.Add(-cr.over).UnixMilli()
		}
		firstT, firstV := int64(-1), 0.0
		lastT, lastV := int64(-1), 0.0
		for i := 0; i < r.n; i++ {
			t, v := r.at(i)
			if t < cutoff {
				continue
			}
			if firstT < 0 {
				firstT, firstV = t, v
			}
			lastT, lastV = t, v
		}
		if firstT < 0 || lastT <= firstT {
			return 0, false
		}
		delta := lastV - firstV
		if delta < 0 {
			return 0, false // counter reset mid-window
		}
		return delta / (float64(lastT-firstT) / 1000.0), true
	default: // threshold
		_, v, ok := r.last()
		if !ok {
			return 0, false
		}
		if cr.rule.IgnoreZero && v == 0 {
			return 0, false
		}
		return v, true
	}
}

// step advances one instance's hysteresis state machine; the returned
// transition is meaningful only when changed is true. The `for`
// duration is symmetric: breach must hold that long before firing, and
// must stay clear that long before a firing instance resolves.
func (e *AlertEngine) step(cr *compiledRule, series string, value float64, breach bool, now time.Time) (AlertTransition, bool) {
	key := cr.rule.Name + "|" + series
	st := e.states[key]
	if st == nil {
		st = &alertState{rule: cr, series: series, state: AlertStateInactive}
		e.states[key] = st
	}
	st.lastValue = value
	mk := func(from, to string) AlertTransition {
		return AlertTransition{
			Time: now, Origin: e.origin,
			Rule: cr.rule.Name, Severity: cr.rule.Severity, Series: series,
			From: from, To: to,
			Value: value, Threshold: cr.rule.Value, Summary: cr.rule.Summary,
		}
	}
	switch st.state {
	case AlertStateInactive:
		if !breach {
			return AlertTransition{}, false
		}
		st.since = now
		if cr.forDur > 0 {
			st.state = AlertStatePending
			return AlertTransition{}, false
		}
		st.state = AlertStateFiring
		st.clearSince = time.Time{}
		return mk(AlertStateInactive, AlertStateFiring), true
	case AlertStatePending:
		if !breach {
			st.state = AlertStateInactive
			st.since = time.Time{}
			return AlertTransition{}, false
		}
		if now.Sub(st.since) >= cr.forDur {
			st.state = AlertStateFiring
			st.since = now
			st.clearSince = time.Time{}
			return mk(AlertStatePending, AlertStateFiring), true
		}
		return AlertTransition{}, false
	default: // firing
		if breach {
			st.clearSince = time.Time{}
			return AlertTransition{}, false
		}
		if st.clearSince.IsZero() {
			st.clearSince = now
		}
		if now.Sub(st.clearSince) >= cr.forDur {
			st.state = AlertStateInactive
			st.since = time.Time{}
			st.clearSince = time.Time{}
			return mk(AlertStateFiring, "resolved"), true
		}
		return AlertTransition{}, false
	}
}

// AlertInstance is one (rule, series) state row in GET /alerts.
type AlertInstance struct {
	Series string    `json:"series,omitempty"`
	State  string    `json:"state"`
	Value  float64   `json:"value"`
	Since  time.Time `json:"since"`
}

// AlertRuleStatus is one rule's row in GET /alerts: the rule, its worst
// instance state, and every non-inactive instance.
type AlertRuleStatus struct {
	Rule      AlertRule       `json:"rule"`
	State     string          `json:"state"`
	Instances []AlertInstance `json:"instances,omitempty"`
}

// AlertStatus is the GET /alerts payload.
type AlertStatus struct {
	EvaluatedAt time.Time         `json:"evaluated_at"`
	Evaluations int64             `json:"evaluations"`
	Firing      int               `json:"firing"`
	Pending     int               `json:"pending"`
	Rules       []AlertRuleStatus `json:"rules"`
	Transitions []AlertTransition `json:"recent_transitions"`
}

// Status snapshots every rule's state plus the recent transitions.
func (e *AlertEngine) Status() AlertStatus {
	if e == nil {
		return AlertStatus{Rules: []AlertRuleStatus{}, Transitions: []AlertTransition{}}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	recent := e.log.newest(recentTransitions)
	st := AlertStatus{
		EvaluatedAt: e.evaluatedAt,
		Evaluations: e.evals,
		Rules:       make([]AlertRuleStatus, 0, len(e.rules)),
		Transitions: make([]AlertTransition, len(recent)),
	}
	for i, tr := range recent {
		st.Transitions[i] = *tr
	}
	for _, cr := range e.rules {
		row := AlertRuleStatus{Rule: cr.rule, State: AlertStateInactive}
		var keys []string
		for key, inst := range e.states {
			if inst.rule == cr && inst.state != AlertStateInactive {
				keys = append(keys, key)
			}
		}
		sort.Strings(keys)
		for _, key := range keys {
			inst := e.states[key]
			row.Instances = append(row.Instances, AlertInstance{
				Series: inst.series, State: inst.state, Value: inst.lastValue, Since: inst.since,
			})
			switch inst.state {
			case AlertStateFiring:
				st.Firing++
				row.State = AlertStateFiring
			case AlertStatePending:
				st.Pending++
				if row.State != AlertStateFiring {
					row.State = AlertStatePending
				}
			}
		}
		st.Rules = append(st.Rules, row)
	}
	return st
}

// FiringBySeverity counts firing instances per severity — the fleet's
// per-tenant rollup row.
func (e *AlertEngine) FiringBySeverity() map[string]int {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var out map[string]int
	for _, st := range e.states {
		if st.state != AlertStateFiring {
			continue
		}
		if out == nil {
			out = map[string]int{}
		}
		out[st.rule.rule.Severity]++
	}
	return out
}

// WriteText renders the status as the table served by
// GET /alerts?format=text.
func (s *AlertStatus) WriteText(w io.Writer) {
	fmt.Fprintf(w, "alerts: %d firing, %d pending (%d rules, %d evaluations)\n",
		s.Firing, s.Pending, len(s.Rules), s.Evaluations)
	fmt.Fprintf(w, "%-24s %-9s %-8s %-12s %s\n", "RULE", "SEVERITY", "STATE", "VALUE", "SERIES")
	for _, r := range s.Rules {
		if len(r.Instances) == 0 {
			fmt.Fprintf(w, "%-24s %-9s %-8s %-12s %s\n", r.Rule.Name, r.Rule.Severity, r.State, "-", "")
			continue
		}
		for _, inst := range r.Instances {
			fmt.Fprintf(w, "%-24s %-9s %-8s %-12.4g %s\n", r.Rule.Name, r.Rule.Severity, inst.State, inst.Value, inst.Series)
		}
	}
	if len(s.Transitions) > 0 {
		fmt.Fprintf(w, "\nrecent transitions (oldest first):\n")
		for _, tr := range s.Transitions {
			series := ""
			if tr.Series != "" {
				series = "{" + tr.Series + "}"
			}
			fmt.Fprintf(w, "  %s %s%s -> %s (value %.4g, threshold %.4g)\n",
				tr.Time.Format(time.RFC3339), tr.Rule, series, tr.To, tr.Value, tr.Threshold)
		}
	}
}
