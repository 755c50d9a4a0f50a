package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sqlx"
	"repro/internal/workloads"
)

// flagValues are the values tunerd's flags took in one daemon: the defaults
// the binary itself prints with -h, overridden by the flags it was started
// with. The in-process replay configures its service from them, so a changed
// default in cmd/tunerd changes the replay with the daemon.
type flagValues struct {
	vals map[string]string
	err  error // the first flag that was missing or did not parse
}

// daemonFlagValues asks bin for its usage text and applies flags, which
// must be written "-name value" or "-name=value" (tunerd's boolean flags
// always the latter here).
func daemonFlagValues(bin string, flags []string) (*flagValues, error) {
	usage, _ := exec.Command(bin, "-h").CombinedOutput() // -h prints the usage and exits
	f := &flagValues{vals: flagDefaults(string(usage))}
	if len(f.vals) == 0 {
		return nil, fmt.Errorf("bench: %s -h printed no flags:\n%s", bin, usage)
	}
	for i := 0; i < len(flags); i++ {
		name, val, hasValue := strings.Cut(strings.TrimLeft(flags[i], "-"), "=")
		if !hasValue {
			if i++; i == len(flags) {
				return nil, fmt.Errorf("bench: daemon flag -%s has no value", name)
			}
			val = flags[i]
		}
		f.get(name) // a flag tunerd does not have is an error
		f.vals[name] = val
	}
	return f, f.err
}

// flagDefaults reads every flag and its default from the usage text Go's
// flag package prints: "  -name type" and, on the lines below it, the
// description ending in "(default X)" unless the default is the zero value.
func flagDefaults(usage string) map[string]string {
	vals := map[string]string{}
	name := ""
	for _, line := range strings.Split(usage, "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			name, _, _ = strings.Cut(rest, " ")
			vals[name] = ""
		} else if i := strings.LastIndex(line, "(default "); i >= 0 && name != "" && strings.HasSuffix(line, ")") {
			vals[name] = strings.Trim(line[i+len("(default "):len(line)-1], `"`)
		}
	}
	return vals
}

func (f *flagValues) fail(name string, err error) {
	if f.err == nil {
		f.err = fmt.Errorf("bench: tunerd flag -%s: %v", name, err)
	}
}

func (f *flagValues) get(name string) string {
	v, ok := f.vals[name]
	if !ok {
		f.fail(name, fmt.Errorf("no such flag"))
	}
	return v
}

func (f *flagValues) float(name string) float64 {
	s := f.get(name)
	if s == "" {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		f.fail(name, err)
	}
	return v
}

func (f *flagValues) int(name string) int { return int(f.float(name)) }

func (f *flagValues) bool(name string) bool {
	s := f.get(name)
	if s == "" {
		return false
	}
	v, err := strconv.ParseBool(s)
	if err != nil {
		f.fail(name, err)
	}
	return v
}

func (f *flagValues) duration(name string) time.Duration {
	s := f.get(name)
	if s == "" || s == "0" {
		return 0
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		f.fail(name, err)
	}
	return v
}

// serviceOptions assembles the service.Options cmd/tunerd builds from its
// flags, for a single-tenant daemon without tracing, replay or files.
func serviceOptions(f *flagValues, db *catalog.Database) (service.Options, error) {
	recorder, _ := obs.NewRecorder("", 0) // memory-only never fails
	opts := service.Options{
		DB: db,
		Tuning: core.Options{
			SpaceBudget:   int64(f.float("budget") * (1 << 20)),
			NoViews:       !f.bool("views"),
			MaxIterations: f.int("iters"),
			TimeBudget:    f.duration("tune-time"),
			Parallelism:   f.int("parallel"),
		},
		Window: workloads.WindowOptions{
			MaxObservations: f.int("window"),
			MaxUnique:       f.int("max-unique"),
			HalfLife:        f.int("half-life"),
			SketchSize:      f.int("sketch-size"),
		},
		Drift: service.DriftOptions{
			MinStatements:  f.int("drift-min"),
			ShapeThreshold: f.float("drift-shape"),
			CostThreshold:  f.float("drift-cost"),
		},
		DriftCheckInterval: f.duration("drift-interval"),
		AutoRetune:         f.bool("auto-retune"),
		Monitor: service.MonitorOptions{
			HistoryInterval: f.duration("history-interval"),
			HistoryWindow:   f.duration("history-window"),
		},
		Recorder: recorder,
	}
	return opts, f.err
}

// inproc is an in-process copy of what the daemon serves: a service and
// the handler tunerd mounts over it, access log included.
type inproc struct {
	svc     *service.Service
	handler http.Handler
}

func newInproc(opts service.Options) (*inproc, error) {
	svc, err := service.New(opts)
	if err != nil {
		return nil, err
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	return &inproc{svc: svc, handler: service.AccessLog(quiet, service.NewHandler(svc))}, nil
}

// serve runs one request through the handler and returns the recorder.
func (p *inproc) serve(method, path string, body []byte) *httptest.ResponseRecorder {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	rec := httptest.NewRecorder()
	p.handler.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
	return rec
}

// replay drives the layers under the daemon's requests in-process, each
// through its own public entry point:
//
//	http     handler.ServeHTTP             on the one service copy
//	service  svc.Ingest / Retune / ...     on the same copy
//	window   win.Observe, Snapshot, Stats  on a bare window fed the same input
//	sqlx     sqlx.Parse, Statement.SQL; workloads.SignatureOf   (stateless)
//
// A request that changes state can be given to the service only once, so
// such requests alternate: one goes through the handler, the next straight
// into the service. The two populations see the same service in the same
// state, and the handler's own share is the difference between them. A read
// changes nothing and is timed both ways on every round.
type replay struct {
	db  *catalog.Database
	svc *inproc
	win *workloads.SlidingWindow

	stmts        int // statements whose layers were timed
	parseErrors  int
	inserts      int    // of them, how many the window inserted as new entries
	allocBytes   uint64 // heap allocated by Parse and SQL over stmts
	parsed       []sqlx.Statement
	promBytes    int    // size of the last Prometheus exposition rendered
	retuneAlloc  uint64 // heap allocated by the last retune
	batchInserts int    // entries the window inserted for the last batch observed
}

func newReplay(db *catalog.Database, opts service.Options) (*replay, error) {
	p, err := newInproc(opts)
	if err != nil {
		return nil, err
	}
	return &replay{db: db, svc: p, win: workloads.NewSlidingWindow(db.Name, opts.Window)}, nil
}

func (r *replay) close() { _ = r.svc.svc.Close() }

// ingestBody is the POST /ingest body for stmts; statements never hold a
// character JSON escapes.
func ingestBody(stmts []string) []byte {
	n := len(`{"statements":[""]}`)
	for _, s := range stmts {
		n += len(s) + 3
	}
	b := make([]byte, 0, n)
	b = append(b, `{"statements":["`...)
	for i, s := range stmts {
		if i > 0 {
			b = append(b, `","`...)
		}
		b = append(b, s...)
	}
	return append(b, `"]}`...)
}

// ingestRoot gives the service one batch, through the handler when body is
// set and straight into Service.Ingest otherwise. A nil tracer is the
// untraced pass.
func (r *replay) ingestRoot(t *tracer, req int, stmts []string, body []byte) int {
	if body != nil {
		return t.time("http.ingest", rootSpan, req, func() { r.svc.serve("POST", "/ingest", body) })
	}
	return t.time("service.ingest", rootSpan, req, func() { r.svc.svc.Ingest(stmts) })
}

// observeBelow times, as a child of the batch's root span, the window's
// work under Service.Ingest on the same statements, and returns the span
// and how many entries the window inserted. Untraced, it only keeps the
// window in step.
func (r *replay) observeBelow(t *tracer, root, req int, stmts []string) (observe, inserts int) {
	if t == nil {
		observeAll(r.win, stmts)
		return rootSpan, 0
	}
	before := r.win.Stats()
	observe = t.time("workloads.observe", root, req, func() { observeAll(r.win, stmts) })
	after := r.win.Stats()
	// An entry that aged out of the window during the batch hides one
	// insert; that is rare enough to leave uncounted.
	inserts = max(0, (after.Unique-before.Unique)+int(after.EvictedUnique-before.EvictedUnique))
	r.stmts += len(stmts)
	r.inserts += inserts
	return observe, inserts
}

// statementsBelow times, as children of the batch's window span, what
// Observe does per statement: parse, render, and for a statement it
// inserts (inserts of them in this batch) the signature.
func (r *replay) statementsBelow(t *tracer, observe, req int, stmts []string, inserts int) {
	if t == nil {
		return
	}
	r.parsed = r.parsed[:0]
	alloc0 := obs.HeapAllocBytes()
	t.time("sqlx.parse", observe, req, func() {
		for _, s := range stmts {
			stmt, err := sqlx.Parse(s)
			if err != nil {
				r.parseErrors++
				continue
			}
			r.parsed = append(r.parsed, stmt)
		}
	})
	t.time("sqlx.render", observe, req, func() {
		for _, stmt := range r.parsed {
			_ = stmt.SQL()
		}
	})
	r.allocBytes += obs.HeapAllocBytes() - alloc0
	sig := t.time("workloads.signature", observe, req, func() {
		for _, stmt := range r.parsed {
			_ = workloads.SignatureOf(stmt)
		}
	})
	if len(r.parsed) > 0 {
		t.setShare(sig, float64(inserts)/float64(len(r.parsed)))
	}
}

// observeAll feeds stmts to a window; a malformed statement is rejected
// there as it is in the daemon.
func observeAll(w *workloads.SlidingWindow, stmts []string) {
	for _, s := range stmts {
		_ = w.Observe(s)
	}
}

// probeWindow times the window's two read paths, outside the wall
// partition.
func (r *replay) probeWindow(t *tracer, req int) {
	t.time("workloads.stats", detachedSpan, req, func() { _ = r.win.Stats() })
	t.time("workloads.snapshot", detachedSpan, req, func() { _ = r.win.Snapshot() })
}

// perCall is total/n in the given unit, and 0 when nothing was counted.
func perCall(total time.Duration, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(unit) / float64(n)
}

// selfMedian is the median self time, in unit, of the spans called name,
// and how many there were. A self time is a difference of two measurements;
// where noise makes it negative the layer's share is below what the run can
// resolve, and 0 is reported.
func selfMedian(spans []span, name string, unit time.Duration) (float64, int) {
	s := selfSamples(spans, name)
	return math.Max(0, s.median()*float64(time.Millisecond)/float64(unit)), len(s)
}

// tracePasses accounts the root calls of the untraced and the traced
// blocks a replay alternates between.
type tracePasses struct {
	wall [2]time.Duration // 0 untraced, 1 traced
	n    [2]int
}

func (p *tracePasses) add(traced bool, d time.Duration) {
	i := 0
	if traced {
		i = 1
	}
	p.wall[i] += d
	p.n[i]++
}

// overheadPct is by how much a root call is slower with spans recorded
// around it than without, over every block of the replay.
func (p *tracePasses) overheadPct() float64 {
	if p.n[0] == 0 || p.n[1] == 0 {
		return 0
	}
	plain := p.wall[0].Seconds() / float64(p.n[0])
	return 100 * (p.wall[1].Seconds()/float64(p.n[1]) - plain) / plain
}

// ingestLayerMetrics turns the replay's spans and window state into the
// sqlx, workloads, service and http per-layer metrics of the ingest path.
// daemonBatchMs is the daemon's median round trip for the same batches.
func (r *replay) ingestLayerMetrics(out *outcome, spans []span, daemonBatchMs float64) {
	tot, cnt := totals(spans), counts(spans)
	parsed := r.stmts - r.parseErrors
	out.set("sqlx.parse_ns_per_stmt", perCall(tot["sqlx.parse"], r.stmts, time.Nanosecond), r.stmts)
	out.set("sqlx.render_ns_per_stmt", perCall(tot["sqlx.render"], parsed, time.Nanosecond), parsed)
	if r.stmts > 0 {
		out.set("sqlx.alloc_b_per_stmt", float64(r.allocBytes)/float64(r.stmts), r.stmts)
	}
	out.set("sqlx.parse_errors", float64(r.parseErrors), 0)
	out.set("workloads.signature_ns_per_stmt", perCall(tot["workloads.signature"], parsed, time.Nanosecond), parsed)
	// The median batch, so that the batch which found the caches cold
	// after a retune does not set the figure.
	observeSelf, nObserve := selfMedian(spans, "workloads.observe", time.Nanosecond)
	if nObserve > 0 {
		out.set("workloads.observe_self_ns_per_stmt", observeSelf/(float64(r.stmts)/float64(nObserve)), r.stmts)
	}
	if parsed > 0 {
		// Every accepted statement either inserted an entry or hit one.
		out.set("workloads.dup_hit_ratio", 1-float64(r.inserts)/float64(parsed), parsed)
	}
	st := r.win.Stats()
	out.set("workloads.evicted_unique", float64(st.EvictedUnique), 0)
	out.set("workloads.evicted_oldest", float64(st.EvictedOldest), 0)
	out.set("workloads.sketch_evictions", float64(st.SketchEvictions), 0)
	out.set("workloads.window_unique", float64(st.Unique), 0)
	out.set("workloads.snapshot_us", perCall(tot["workloads.snapshot"], cnt["workloads.snapshot"], time.Microsecond), cnt["workloads.snapshot"])
	out.set("workloads.stats_us", perCall(tot["workloads.stats"], cnt["workloads.stats"], time.Microsecond), cnt["workloads.stats"])

	// A batch sent straight into the service: Ingest minus the window's
	// work on the same statements. A batch sent through the handler: the
	// same plus decoding the body and encoding the acknowledgement.
	direct, nDirect := selfMedian(spans, "service.ingest", time.Microsecond)
	viaHandler, nHandler := selfMedian(spans, "http.ingest", time.Microsecond)
	out.set("service.ingest_self_us_per_batch", direct, nDirect)
	out.set("http.ingest_codec_us_per_batch", math.Max(0, viaHandler-direct), nHandler)
	handler := durations(spans, "http.ingest")
	out.set("http.ingest_wire_us_per_batch", 1000*(daemonBatchMs-handler.median()), len(handler))
}
