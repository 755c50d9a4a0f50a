package obs

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// newAlertFixture builds a registry + history + engine trio with a
// 1-second sampling cadence and the given rules.
func newAlertFixture(t *testing.T, rules []AlertRule, opts AlertEngineOptions) (*Registry, *History, *AlertEngine) {
	t.Helper()
	reg := NewRegistry()
	hist := NewHistory(reg, HistoryOptions{Window: time.Minute, Interval: time.Second})
	opts.Rules = rules
	eng, err := NewAlertEngine(hist, opts)
	if err != nil {
		t.Fatal(err)
	}
	return reg, hist, eng
}

func TestAlertThresholdHysteresis(t *testing.T) {
	rules := []AlertRule{{
		Name: "depth-high", Metric: "t_depth",
		Kind: AlertKindThreshold, Op: ">", Value: 5,
		For: AlertDuration(2 * time.Second), Severity: SeverityCritical,
		Summary: "depth too high",
	}}
	var transitions []AlertTransition
	reg, hist, eng := newAlertFixture(t, rules, AlertEngineOptions{
		Registry:     reg0(t),
		OnTransition: func(tr AlertTransition) { transitions = append(transitions, tr) },
	})
	metaReg := engineRegistry(eng)
	g := reg.NewGauge("t_depth", "Depth.")

	tick := func(i int, v float64) {
		g.Set(v)
		now := histT0.Add(time.Duration(i) * time.Second)
		hist.Sample(now)
		eng.Evaluate(now)
	}

	// Below threshold: inactive.
	tick(0, 1)
	if st := eng.Status(); st.Firing != 0 || st.Pending != 0 {
		t.Fatalf("healthy tick: firing=%d pending=%d", st.Firing, st.Pending)
	}

	// Breach — pending until `for` elapses.
	tick(1, 10)
	if st := eng.Status(); st.Pending != 1 || st.Firing != 0 {
		t.Fatalf("first breach: firing=%d pending=%d, want pending", st.Firing, st.Pending)
	}
	tick(2, 10)
	tick(3, 10) // 2s since pending began → fires
	st := eng.Status()
	if st.Firing != 1 {
		t.Fatalf("after for-duration: firing=%d, want 1", st.Firing)
	}
	if st.Rules[0].State != AlertStateFiring {
		t.Errorf("rule state = %s, want firing", st.Rules[0].State)
	}
	if len(transitions) != 1 || transitions[0].To != AlertStateFiring || transitions[0].Rule != "depth-high" {
		t.Fatalf("transitions = %+v, want one →firing", transitions)
	}
	if v := metaReg.firing.Value("depth-high", SeverityCritical); v != 1 {
		t.Errorf("tuner_alerts_firing = %v, want 1", v)
	}
	if v := metaReg.trans.Value("depth-high", "firing"); v != 1 {
		t.Errorf("tuner_alert_transitions_total{to=firing} = %v, want 1", v)
	}

	// Clears, but must stay clear `for` before resolving.
	tick(4, 2)
	if st := eng.Status(); st.Firing != 1 {
		t.Fatalf("immediately after clear: firing=%d, want still 1 (hysteresis)", st.Firing)
	}
	tick(5, 2)
	tick(6, 2) // 2s clear → resolves
	if st := eng.Status(); st.Firing != 0 || st.Pending != 0 {
		t.Fatalf("after clear-duration: firing=%d pending=%d, want 0/0", st.Firing, st.Pending)
	}
	if len(transitions) != 2 || transitions[1].To != "resolved" {
		t.Fatalf("transitions = %+v, want firing then resolved", transitions)
	}
	if v := metaReg.firing.Value("depth-high", SeverityCritical); v != 0 {
		t.Errorf("tuner_alerts_firing after resolve = %v, want 0", v)
	}
	if v := metaReg.trans.Value("depth-high", "resolved"); v != 1 {
		t.Errorf("transitions_total{to=resolved} = %v, want 1", v)
	}

	// A flap shorter than `for` never fires.
	tick(7, 10)
	tick(8, 2)
	if st := eng.Status(); st.Firing != 0 {
		t.Fatalf("one-tick flap fired: %+v", st)
	}
	if len(transitions) != 2 {
		t.Fatalf("flap produced transitions: %+v", transitions)
	}
}

func TestAlertRateAndPerPredicates(t *testing.T) {
	rules := []AlertRule{
		{
			Name: "err-rate", Metric: "t_errors_total",
			Kind: AlertKindRate, Op: ">", Value: 0.5,
			Over: AlertDuration(10 * time.Second),
		},
		{
			Name: "hit-ratio", Metric: "t_hits_total", Per: "t_misses_total",
			Kind: AlertKindRate, Op: "<", Value: 0.25,
			Over: AlertDuration(10 * time.Second),
		},
	}
	reg, hist, eng := newAlertFixture(t, rules, AlertEngineOptions{})
	errs := reg.NewCounter("t_errors_total", "E.")
	hits := reg.NewCounter("t_hits_total", "H.")
	misses := reg.NewCounter("t_misses_total", "M.")

	tick := func(i int) {
		now := histT0.Add(time.Duration(i) * time.Second)
		hist.Sample(now)
		eng.Evaluate(now)
	}

	// Slow error rate, healthy hit ratio: nothing fires.
	for i := 0; i < 4; i++ {
		errs.Add(0.2) // 0.2/s < 0.5
		hits.Add(10)
		misses.Add(1)
		tick(i)
	}
	if st := eng.Status(); st.Firing != 0 {
		t.Fatalf("healthy rates fired: %+v", st.Rules)
	}

	// Error burst: 2/s > 0.5 → err-rate fires (For=0, immediate).
	for i := 4; i < 7; i++ {
		errs.Add(2)
		hits.Add(10)
		misses.Add(1)
		tick(i)
	}
	st := eng.Status()
	if ruleState(st, "err-rate") != AlertStateFiring {
		t.Fatalf("err-rate = %s, want firing; rules=%+v", ruleState(st, "err-rate"), st.Rules)
	}
	if ruleState(st, "hit-ratio") != AlertStateInactive {
		t.Fatalf("hit-ratio = %s, want inactive", ruleState(st, "hit-ratio"))
	}

	// Cache collapse: hits stall while misses surge. Run long enough
	// that the whole 10s lookback lies inside the collapse.
	for i := 7; i < 22; i++ {
		hits.Add(0.1)
		misses.Add(10)
		tick(i)
	}
	st = eng.Status()
	if ruleState(st, "hit-ratio") != AlertStateFiring {
		t.Fatalf("hit-ratio = %s, want firing after collapse; rules=%+v", ruleState(st, "hit-ratio"), st.Rules)
	}
}

func TestAlertRateCounterResetIsNoData(t *testing.T) {
	rules := []AlertRule{{
		Name: "r", Metric: "t_c_total",
		Kind: AlertKindRate, Op: ">", Value: 0,
		Over: AlertDuration(10 * time.Second),
	}}
	reg, hist, eng := newAlertFixture(t, rules, AlertEngineOptions{})
	c := reg.NewCounter("t_c_total", "C.")
	c.Add(100)
	hist.Sample(histT0)
	eng.Evaluate(histT0)
	// Simulate a restart reset by registering a fresh counter value below
	// the prior sample: inject via a second registry is overkill — a
	// negative delta can only appear through process restart, which the
	// ring sees as last < first. Emulate by pushing a smaller value
	// directly.
	hist.mu.Lock()
	hist.series["t_c_total"].push(histT0.Add(time.Second).UnixMilli(), 5)
	hist.mu.Unlock()
	eng.Evaluate(histT0.Add(time.Second))
	if st := eng.Status(); st.Firing != 0 || st.Pending != 0 {
		t.Fatalf("counter reset treated as breach: %+v", st.Rules)
	}
}

func TestAlertAbsentAndIgnoreZero(t *testing.T) {
	rules := []AlertRule{
		{
			Name: "heartbeat-absent", Metric: "t_beat",
			Kind: AlertKindAbsent, Over: AlertDuration(3 * time.Second),
		},
		{
			Name: "speedup-low", Metric: "t_speedup",
			Kind: AlertKindThreshold, Op: "<", Value: 1, IgnoreZero: true,
		},
	}
	reg, hist, eng := newAlertFixture(t, rules, AlertEngineOptions{})
	speedup := reg.NewGauge("t_speedup", "S.")

	// t_beat never registered → absent fires immediately (For=0).
	// t_speedup is 0 → IgnoreZero keeps speedup-low quiet.
	hist.Sample(histT0)
	eng.Evaluate(histT0)
	st := eng.Status()
	if ruleState(st, "heartbeat-absent") != AlertStateFiring {
		t.Fatalf("absent rule = %s, want firing", ruleState(st, "heartbeat-absent"))
	}
	if ruleState(st, "speedup-low") != AlertStateInactive {
		t.Fatalf("ignore_zero breached on zero: %+v", st.Rules)
	}

	// The series appears and is fresh → absent resolves. A real sub-1
	// speedup now breaches.
	beat := reg.NewGauge("t_beat", "B.")
	beat.Set(1)
	speedup.Set(0.8)
	now := histT0.Add(time.Second)
	hist.Sample(now)
	eng.Evaluate(now)
	st = eng.Status()
	if ruleState(st, "heartbeat-absent") != AlertStateInactive {
		t.Fatalf("absent rule after series appeared = %s, want inactive", ruleState(st, "heartbeat-absent"))
	}
	if ruleState(st, "speedup-low") != AlertStateFiring {
		t.Fatalf("speedup 0.8 did not fire: %+v", st.Rules)
	}

	// The series goes stale past Over → absent fires again.
	now = histT0.Add(10 * time.Second)
	eng.Evaluate(now)
	if st := eng.Status(); ruleState(st, "heartbeat-absent") != AlertStateFiring {
		t.Fatalf("stale series did not re-fire absent rule: %+v", st.Rules)
	}
}

func TestAlertLabeledInstancesAndDecay(t *testing.T) {
	rules := []AlertRule{{
		Name: "phase-alloc", Metric: `t_alloc{phase="search"}`,
		Kind: AlertKindThreshold, Op: ">", Value: 100,
	}}
	reg, hist, eng := newAlertFixture(t, rules, AlertEngineOptions{})
	gv := reg.NewGaugeVec("t_alloc", "A.", "phase")
	gv.Set("search", 500)
	gv.Set("eval", 500) // does not match the selector
	hist.Sample(histT0)
	eng.Evaluate(histT0)
	st := eng.Status()
	if st.Firing != 1 {
		t.Fatalf("selector matched %d instances, want 1: %+v", st.Firing, st.Rules)
	}
	if got := st.Rules[0].Instances[0].Series; got != `phase="search"` {
		t.Errorf("instance series = %q, want phase=\"search\"", got)
	}
}

func TestAlertEngineDeterminism(t *testing.T) {
	run := func() []AlertTransition {
		rules := []AlertRule{
			{Name: "a", Metric: "t_x", Op: ">", Value: 1},
			{Name: "b", Metric: "t_y", Op: ">", Value: 1},
			{Name: "c", Metric: "t_z", Kind: AlertKindAbsent},
		}
		reg, hist, eng := newAlertFixture(t, rules, AlertEngineOptions{})
		x := reg.NewGauge("t_x", "X.")
		y := reg.NewGauge("t_y", "Y.")
		for i := 0; i < 10; i++ {
			x.Set(float64(i % 4))
			y.Set(float64((i + 2) % 4))
			now := histT0.Add(time.Duration(i) * time.Second)
			hist.Sample(now)
			eng.Evaluate(now)
		}
		return eng.Status().Transitions
	}
	first := run()
	if len(first) == 0 {
		t.Fatal("determinism fixture produced no transitions")
	}
	for i := 0; i < 5; i++ {
		if again := run(); !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d diverged:\n%+v\nvs\n%+v", i, again, first)
		}
	}
}

func TestAlertStatusTextRendering(t *testing.T) {
	rules := []AlertRule{{Name: "depth", Metric: "t_d", Op: ">", Value: 1, Summary: "deep"}}
	reg, hist, eng := newAlertFixture(t, rules, AlertEngineOptions{})
	reg.NewGauge("t_d", "D.").Set(5)
	hist.Sample(histT0)
	eng.Evaluate(histT0)
	var sb strings.Builder
	st := eng.Status()
	st.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"1 firing", "depth", "firing", "recent transitions"} {
		if !strings.Contains(out, want) {
			t.Errorf("text status missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultAlertRulesCompile(t *testing.T) {
	rules := DefaultAlertRules()
	if len(rules) < 7 {
		t.Fatalf("default ruleset has %d rules, want >= 7", len(rules))
	}
	_, _, eng := newAlertFixture(t, rules, AlertEngineOptions{})
	if n := len(eng.Rules()); n != len(rules) {
		t.Fatalf("engine kept %d of %d default rules", n, len(rules))
	}
	// Inert over an empty history: evaluating must not fire anything
	// except rules that are absent-kind (the defaults have none).
	eng.Evaluate(histT0)
	if st := eng.Status(); st.Firing != 0 || st.Pending != 0 {
		t.Fatalf("default rules fired on empty history: %+v", st.Rules)
	}
}

// TestParseAlertRulesExampleFile keeps the committed example rule file
// valid: it must parse, compile, and carry at least one rule of each
// documented kind.
func TestParseAlertRulesExampleFile(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "alert-rules.json"))
	if err != nil {
		t.Fatalf("reading example rule file: %v", err)
	}
	rules, err := ParseAlertRules(data)
	if err != nil {
		t.Fatalf("example rule file does not parse: %v", err)
	}
	kinds := map[string]bool{}
	for _, r := range rules {
		kinds[r.Kind] = true
	}
	if len(rules) < 3 || !kinds[AlertKindThreshold] || !kinds[AlertKindRate] || !kinds[AlertKindAbsent] {
		t.Fatalf("example rules lost coverage: %d rules, kinds %v", len(rules), kinds)
	}
	if _, err := NewAlertEngine(NewHistory(NewRegistry(), HistoryOptions{Interval: time.Second}),
		AlertEngineOptions{Rules: rules}); err != nil {
		t.Fatalf("example rules do not compile: %v", err)
	}
}

func TestParseAlertRulesForms(t *testing.T) {
	bare := `[{"name":"r1","metric":"t_x","op":">","value":3,"for":"30s"}]`
	rules, err := ParseAlertRules([]byte(bare))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 1 || time.Duration(rules[0].For) != 30*time.Second {
		t.Fatalf("bare array parse = %+v", rules)
	}

	wrapped := `{"rules":[{"name":"r1","metric":"t_x","value":1,"for":15,"over":"2m"}]}`
	rules, err = ParseAlertRules([]byte(wrapped))
	if err != nil {
		t.Fatal(err)
	}
	if time.Duration(rules[0].For) != 15*time.Second || time.Duration(rules[0].Over) != 2*time.Minute {
		t.Fatalf("numeric-seconds / string durations parse = %+v", rules[0])
	}

	bad := []string{
		`[]`,                 // empty
		`[{"metric":"t_x"}]`, // no name
		`[{"name":"r"}]`,     // no metric
		`[{"name":"r","metric":"t_x","op":"!="}]`,                   // bad op
		`[{"name":"r","metric":"t_x","kind":"avg"}]`,                // bad kind
		`[{"name":"r","metric":"t_x","severity":"fatal"}]`,          // bad severity
		`[{"name":"r","metric":"t_x{"}]`,                            // bad selector
		`[{"name":"r","metric":"t_x"},{"name":"r","metric":"t_y"}]`, // dupe
		`[{"name":"r","metric":"t_x","kind":"absent","per":"t_y"}]`, // per on absent
		`[{"name":"r","metric":"t_x","for":"soon"}]`,                // bad duration
		`[{"name":"r","metric":"t_x","for":"-1m"}]`,                 // negative for
		`[{"name":"r","metric":"t_x","kind":"rate","over":"-5m"}]`,  // negative over
	}
	for _, src := range bad {
		if _, err := ParseAlertRules([]byte(src)); err == nil {
			t.Errorf("ParseAlertRules(%s) accepted invalid input", src)
		}
	}
	if _, err := ParseAlertRules([]byte(`[{"name":"neg","metric":"t_x","for":"-1m","over":"-5m"}]`)); err == nil ||
		!strings.Contains(err.Error(), "neg") {
		t.Errorf("negative durations: error %v does not name the rule", err)
	}

	// An object-form file reports the object form's error, naming the
	// field at fault — not the bare-array attempt's.
	for _, src := range []string{
		`{"rules":[{"name":"r","metric":"m","value":"x"}]}`,
		" \n\t" + `{"rules":[{"name":"r","metric":"m","value":"x"}]}`,
	} {
		_, err := ParseAlertRules([]byte(src))
		if err == nil || !strings.Contains(err.Error(), "value") {
			t.Errorf("ParseAlertRules(%q) error = %v, want it to name value", src, err)
		}
	}
}

// TestAlertLogPersistence: transitions written to the log reload in a
// new process — from the store and through an engine, which also keeps
// appending to the file it was handed. The log's directory need not
// exist yet.
func TestAlertLogPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state", "alerts.jsonl")

	log1, err := openStore[AlertTransition](path, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := AlertTransition{
		Time: histT0, Rule: "depth-high", Severity: SeverityWarning,
		From: AlertStatePending, To: AlertStateFiring, Value: 9, Threshold: 5,
	}
	log1.append(&tr)
	log1.append(&AlertTransition{Time: histT0.Add(time.Minute), Rule: "depth-high", To: "resolved"})
	if err := log1.close(); err != nil {
		t.Fatal(err)
	}

	// A new process sees the previous transitions…
	log2, err := openStore[AlertTransition](path, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := log2.newest(0)
	log2.close()
	if len(got) != 2 || got[0].Rule != "depth-high" || got[0].To != AlertStateFiring || got[1].To != "resolved" {
		t.Fatalf("reloaded transitions = %+v", got)
	}

	// …and an engine logging to the file exposes them in Status, then
	// appends its own.
	rules := []AlertRule{{Name: "depth-high", Metric: "t_d", Value: 5}}
	reg, hist, eng := newAlertFixture(t, rules, AlertEngineOptions{LogPath: path})
	if trs := eng.Status().Transitions; len(trs) != 2 {
		t.Fatalf("engine seeded %d transitions from log, want 2", len(trs))
	}
	reg.NewGauge("t_d", "D.").Set(9)
	hist.Sample(histT0.Add(2 * time.Minute))
	eng.Evaluate(histT0.Add(2 * time.Minute))
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, eng2 := newAlertFixture(t, rules, AlertEngineOptions{LogPath: path})
	defer eng2.Close()
	trs := eng2.Status().Transitions
	if len(trs) != 3 || trs[2].From != AlertStateInactive || trs[2].To != AlertStateFiring || trs[2].Value != 9 {
		t.Fatalf("restarted engine transitions = %+v, want the two logged plus its predecessor's firing", trs)
	}
}

func TestAlertLogCorruptLineAndCompaction(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "alerts.jsonl")
	seed := `{"time":"2026-01-02T03:04:05Z","rule":"ok","severity":"info","from":"inactive","to":"firing","value":1,"threshold":0}
{torn garbage
{"time":"2026-01-02T03:05:05Z","rule":"ok","severity":"info","from":"firing","to":"resolved","value":0,"threshold":0}
`
	if err := os.WriteFile(path, []byte(seed), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, eng := newAlertFixture(t, []AlertRule{{Name: "ok", Metric: "t_ok"}}, AlertEngineOptions{LogPath: path})
	if trs := eng.Status().Transitions; len(trs) != 2 {
		t.Fatalf("engine over a corrupt line serves %d transitions, want 2", len(trs))
	}
	eng.Close()

	log, err := openStore[AlertTransition](path, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.recs) != 2 {
		t.Fatalf("corrupt-line load kept %d entries, want 2", len(log.recs))
	}

	// Push past 2x the limit to force a compaction.
	for i := 0; i < 20; i++ {
		log.append(&AlertTransition{Time: histT0.Add(time.Duration(i) * time.Second), Rule: "flood", To: "firing"})
	}
	log.close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(string(data)), "\n") + 1
	if lines > 8 {
		t.Fatalf("compaction left %d lines for limit 4", lines)
	}
	log2, err := openStore[AlertTransition](path, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.close()
	recent := log2.newest(0)
	if len(recent) != 4 || recent[3].Rule != "flood" {
		t.Fatalf("post-compaction tail = %+v", recent)
	}
}

// TestNilAlertEngineAndLog: a nil engine is a no-op, and a log without a
// path keeps its records in memory and touches no file.
func TestNilAlertEngineAndLog(t *testing.T) {
	var e *AlertEngine
	e.Evaluate(histT0)
	if e.Enabled() || e.Rules() != nil || e.Evaluations() != 0 || e.FiringBySeverity() != nil {
		t.Error("nil engine should report zero values")
	}
	if st := e.Status(); len(st.Rules) != 0 || len(st.Transitions) != 0 {
		t.Error("nil engine status should be empty, not nil-panicking")
	}
	if e.Close() != nil {
		t.Error("nil engine Close should be a no-op")
	}
	l, err := openStore[AlertTransition]("", 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.append(&AlertTransition{Rule: "r"}); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.newest(0)) != 2 || l.enc != nil || l.close() != nil {
		t.Error("memory-only log should retain its limit, encode nothing, and close cleanly")
	}
}

// ruleState finds one rule's aggregate state in a status payload.
func ruleState(st AlertStatus, name string) string {
	for _, r := range st.Rules {
		if r.Rule.Name == name {
			return r.State
		}
	}
	return "<missing>"
}

// reg0 returns a fresh registry for engine meta-series.
func reg0(t *testing.T) *Registry {
	t.Helper()
	return NewRegistry()
}

// engineRegistry exposes the engine's meta-series for assertions.
type metaSeries struct {
	firing *GaugeVec2
	trans  *CounterVec2
}

func engineRegistry(e *AlertEngine) metaSeries {
	return metaSeries{firing: e.firingVec, trans: e.transVec}
}
