package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workloads"
	"repro/tuner"
)

// serve-mixed sizing. Twelve signatures x two literal variants are live at
// a time and roundReplaced of them is swapped for a new draw every round.
// With -window 1000 (two rounds of ingest) a retired statement ages out
// within three rounds, so the window holds 24 to 27 distinct statements and
// never reaches serveMaxUnique. A serial retune over it takes about 0.09 s
// here and the open-loop schedule beside it 0.1 s, so a run collects some
// 250 retunes, twice what a p90 needs. The issue's
// shape (48 statements, the default 4096-observation window, free-ranging
// literals) gave retunes of 92 to 240 ms within one run, as statements
// drifted in and out of the window with the mix, and run medians 15 % apart
// between seeds; with this one seeds agree within 5 %.
const (
	serveVariants  = 2
	serveWindow    = 1000
	serveMaxUnique = 40
	roundBatches   = 10 // POST /ingest per round, on the open-loop connection
	roundBatchSize = 50
	roundReplaced  = 1  // statements swapped for new literal draws per round
	driftPeriod    = 40 // rounds for the template mix to rotate once
	openLoopOffset = 5 * time.Millisecond
	openLoopGap    = 7 * time.Millisecond
)

// readEndpoints are cycled by the open-loop connection, one of each per
// round; the name is the suffix of the per-endpoint metrics.
var readEndpoints = []string{"recommendation", "workload", "metrics", "sessions", "drift"}

var readPaths = map[string]string{
	"recommendation": "/recommendation",
	"workload":       "/workload",
	"metrics":        "/metrics?format=prometheus",
	"sessions":       "/sessions",
	"drift":          "/drift",
}

// A round's open-loop schedule: ingest, ingest, read, five times over.
const roundSlots = roundBatches + 5

func slotIsRead(k int) bool { return k%3 == 2 }

// servePlan is the seeded input of serve-mixed: the statements loaded
// before the first retune and, per round, the batches the open-loop
// connection ingests. The template mix rotates slowly and each round
// swaps a few statements for new literal draws, so every retune sees a
// window that moved a little: mostly cached statements, a few new ones.
type servePlan struct {
	rng       *rand.Rand
	templates []*template
	active    [][]string   // [signature][variant], as of the last round generated
	preload   []string     // the statements loaded before the first retune
	rounds    [][][]string // rounds generated so far
}

func newServePlan(seed int64) *servePlan {
	p := &servePlan{
		rng:       rand.New(rand.NewSource(seed*1000003 + 777)),
		templates: serveTemplates,
	}
	for t, tpl := range p.templates {
		variants := distinctPool(seed+int64(t)*31, []*template{tpl}, serveVariants)
		p.active = append(p.active, variants)
		p.preload = append(p.preload, variants...)
	}
	return p
}

// round returns round r's batches, generating rounds in order as needed.
func (p *servePlan) round(r int) [][]string {
	for len(p.rounds) <= r {
		p.rounds = append(p.rounds, p.generate(len(p.rounds)))
	}
	return p.rounds[r]
}

func (p *servePlan) generate(r int) [][]string {
	weights := make([]float64, len(p.templates))
	total := 0.0
	for t := range weights {
		weights[t] = 1 + 0.5*math.Sin(2*math.Pi*(float64(r)/driftPeriod+float64(t)/float64(len(weights))))
		total += weights[t]
	}
	pick := func() int {
		x := p.rng.Float64() * total
		for t, w := range weights {
			if x -= w; x < 0 {
				return t
			}
		}
		return len(weights) - 1
	}
	var buf []byte
	for i := 0; i < roundReplaced; i++ {
		t := pick()
		buf = p.templates[t].render(buf[:0], p.rng, false, 0)
		p.active[t][p.rng.Intn(serveVariants)] = string(buf)
	}
	batches := make([][]string, roundBatches)
	for b := range batches {
		batches[b] = make([]string, roundBatchSize)
		for i := range batches[b] {
			batches[b][i] = p.active[pick()][p.rng.Intn(serveVariants)]
		}
	}
	return batches
}

// thirdBudget is base + (optimal - base)/3 for the statements: a third of
// the way from the indexes the schema requires to everything the workload
// could use, which forces the search to relax.
func thirdBudget(db *catalog.Database, name string, sqls []string) (int64, error) {
	w, err := tuner.WorkloadFromStatements(name, db.Name, sqls)
	if err != nil {
		return 0, err
	}
	s, err := tuner.NewSession(db, w, tuner.Options{})
	if err != nil {
		return 0, err
	}
	opt, err := s.OptimalConfiguration()
	if err != nil {
		return 0, err
	}
	optimal, err := s.Evaluate(opt)
	if err != nil {
		return 0, err
	}
	base, err := s.Evaluate(s.Base)
	if err != nil {
		return 0, err
	}
	return base.SizeBytes + (optimal.SizeBytes-base.SizeBytes)/3, nil
}

// readClient is what a connection measured of the read endpoints.
type readClient struct {
	read    samples            // every read, pooled
	readBy  map[string]samples // by endpoint
	bytesBy map[string]samples // response sizes in bytes, by endpoint
}

func (rc *readClient) record(name string, latency time.Duration, body []byte) {
	if rc.readBy == nil {
		rc.readBy, rc.bytesBy = map[string]samples{}, map[string]samples{}
	}
	ms := float64(latency) / float64(time.Millisecond)
	rc.read = append(rc.read, ms)
	rc.readBy[name] = append(rc.readBy[name], ms)
	rc.bytesBy[name] = append(rc.bytesBy[name], float64(len(body)))
}

// setReadMetrics reports the traced run's client-side view of the reads.
func (rc *readClient) setReadMetrics(out *outcome) {
	out.set("client.read_p50_ms", rc.read.median(), len(rc.read))
	out.set("client.read_p95_ms", rc.read.percentile(95), len(rc.read))
	for name, lat := range rc.readBy {
		out.set("http.read_"+name+"_p50_ms", lat.median(), len(lat))
		out.set("http.resp_bytes_"+name, rc.bytesBy[name].median(), len(lat))
	}
}

// serveClient is what the two connections measured over a phase.
type serveClient struct {
	retune, ingest, lag samples
	side                samples // every open-loop request, ingest and reads pooled
	rate                samples // statements tuned per second of retune, by round
	hostFactor          float64 // how much slower than the reference the host ran
	readClient
	polls int // GET /profile sent while waiting for a retune to get under way
	stmts int // statements ingested beside the retunes
	tuned int // statements in the windows the retunes tuned
	statusCounts
	cost, initial float64 // summed over rounds
	recs          []*service.Recommendation
}

// decodes checks that a read endpoint's body is what the endpoint serves.
func decodes(name string, body []byte) error {
	switch name {
	case "metrics":
		if !bytes.Contains(body, []byte("# TYPE ")) {
			return fmt.Errorf("no # TYPE line in %d bytes", len(body))
		}
		return nil
	case "recommendation":
		return json.Unmarshal(body, &service.Recommendation{})
	case "workload":
		return json.Unmarshal(body, &service.WorkloadReport{})
	case "sessions":
		return json.Unmarshal(body, &struct {
			Sessions []obs.SessionSummary `json:"sessions"`
		}{})
	default:
		return json.Unmarshal(body, &service.DriftReport{})
	}
}

// retuneOnce posts /retune and decodes the recommendation.
func retuneOnce(c *conn) (*service.Recommendation, int, time.Duration, error) {
	t0 := time.Now()
	status, resp, err := c.do("POST", "/retune", nil)
	lat := time.Since(t0)
	if err != nil || status != http.StatusOK {
		return nil, status, lat, fmt.Errorf("status %d err %v body %.200s", status, err, resp)
	}
	var rr struct {
		Recommendation *service.Recommendation `json:"recommendation"`
	}
	if err := json.Unmarshal(resp, &rr); err != nil || rr.Recommendation == nil {
		return nil, status, lat, fmt.Errorf("decoding: %v", err)
	}
	return rr.Recommendation, status, lat, nil
}

// checkRecommendation applies the output checks every retune has to pass.
// want is the window the retune must have tuned.
func checkRecommendation(out *outcome, round int, rec *service.Recommendation, want *workloads.Workload, budget int64) {
	out.check(rec.Statements == len(want.Queries) && rec.TotalWeight == want.TotalWeight(),
		"round %d raced: retuned %d statements of weight %g, window held %d of weight %g",
		round, rec.Statements, rec.TotalWeight, len(want.Queries), want.TotalWeight())
	out.check(rec.SizeBytes <= budget, "round %d: recommendation takes %d bytes, budget %d", round, rec.SizeBytes, budget)
	out.check(rec.Cost <= rec.InitialCost && rec.Cost > 0, "round %d: cost %g against initial %g", round, rec.Cost, rec.InitialCost)
}

// phasesProfiled reads GET /profile and returns how many phases the
// daemon's profiler has seen end, and -1 when the read fails.
func phasesProfiled(c *conn) int64 {
	status, body, err := c.do("GET", "/profile", nil)
	var rep obs.ProfileReport
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &rep) != nil {
		return -1
	}
	var n int64
	for _, p := range rep.Phases {
		n += p.Count
	}
	return n
}

// serveRound runs one round against the daemon: POST /retune on a and the
// open-loop schedule on b, which starts openLoopOffset after the daemon has
// reported the retune under way. It returns when both are done, so the
// window the next retune sees is the same on every run.
//
// The retune tunes the window as it stands when the daemon gets to it. On a
// busy host that can be many milliseconds after the request was sent, and
// an ingest sent by the clock alone would now and then slip in ahead of it.
// So b first polls /profile until a phase of this retune has ended, which is
// after the snapshot was taken.
func serveRound(a, b *conn, r int, batches [][]string, sc *serveClient, out *outcome) *service.Recommendation {
	idle := phasesProfiled(b)
	out.check(idle >= 0, "round %d: GET /profile failed", r)
	var wg sync.WaitGroup
	var rec *service.Recommendation
	var retuneErr error
	var retuneStatus int
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		var lat time.Duration
		rec, retuneStatus, lat, retuneErr = retuneOnce(a)
		sc.retune.add(lat) // only this goroutine writes retune during the round
	}()
	for underWay := false; !underWay; {
		select {
		case <-done:
			underWay = true // and over
		default:
			underWay = phasesProfiled(b) != idle
			sc.polls++
		}
	}
	start := time.Now()

	due := dueTimes(roundSlots, openLoopOffset, openLoopGap)
	batch, read := 0, 0
	for k := 0; k < roundSlots; k++ {
		dueAt := start.Add(due[k])
		if wait := time.Until(dueAt); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		if slotIsRead(k) {
			name := readEndpoints[read]
			read++
			status, body, err := b.do("GET", readPaths[name], nil)
			lat, lag := openLoopTiming(dueAt, sent, time.Now())
			sc.record(name, lat, body)
			sc.side.add(lat)
			sc.lag.add(lag)
			sc.statusCounts.add(status)
			if err == nil && status == http.StatusOK {
				err = decodes(name, body)
			}
			out.check(err == nil && status == http.StatusOK, "round %d GET %s: status %d err %v", r, readPaths[name], status, err)
			continue
		}
		stmts := batches[batch]
		batch++
		status, body, err := b.do("POST", "/ingest", ingestBody(stmts))
		lat, lag := openLoopTiming(dueAt, sent, time.Now())
		sc.ingest.add(lat)
		sc.side.add(lat)
		sc.lag.add(lag)
		sc.statusCounts.add(status)
		var res service.IngestResult
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(body, &res)
		}
		sc.stmts += res.Accepted + res.Rejected
		out.check(err == nil && status == http.StatusOK && res.Accepted == len(stmts),
			"round %d POST /ingest: status %d err %v accepted %d of %d", r, status, err, res.Accepted, len(stmts))
	}
	wg.Wait()
	sc.statusCounts.add(retuneStatus)
	if !out.check(retuneErr == nil, "round %d POST /retune: %v", r, retuneErr) {
		return nil
	}
	sc.cost += rec.Cost
	sc.initial += rec.InitialCost
	sc.tuned += rec.Statements
	return rec
}

// serveEnv is a booted, preloaded, once-retuned daemon and the harness
// state that goes with it.
type serveEnv struct {
	bin    string
	d      *daemon
	db     *catalog.Database
	plan   *servePlan
	budget int64
	shadow *workloads.SlidingWindow // fed what the daemon is fed, for the expected window
	a, b   *conn
}

func (e *serveEnv) close() {
	e.a.close()
	e.b.close()
	e.d.stop()
}

func setupServe(seed int64) (*serveEnv, error) {
	bin, err := buildTunerd()
	if err != nil {
		return nil, err
	}
	e := &serveEnv{bin: bin, db: tuner.TPCH(tpchScale), plan: newServePlan(seed)}
	third, err := thirdBudget(e.db, "preload", e.plan.preload)
	if err != nil {
		return nil, err
	}
	flag, budget := budgetFlag(third)
	e.budget = budget
	e.d, err = startDaemon(bin, "-window", fmt.Sprint(serveWindow), "-max-unique", fmt.Sprint(serveMaxUnique), "-budget", flag)
	if err != nil {
		return nil, err
	}
	e.a, e.b = newConn(e.d.base), newConn(e.d.base)
	e.shadow = workloads.NewSlidingWindow("tpch", workloads.WindowOptions{MaxObservations: serveWindow, MaxUnique: serveMaxUnique})
	observeAll(e.shadow, e.plan.preload)
	status, _, err := e.a.do("POST", "/ingest", ingestBody(e.plan.preload))
	if err == nil && status == http.StatusOK {
		_, _, _, err = retuneOnce(e.a) // the cold retune; every measured one is warm
	}
	if err != nil || status != http.StatusOK {
		e.close()
		return nil, fmt.Errorf("bench: preloading the daemon: status %d err %v", status, err)
	}
	return e, nil
}

// recommendationKey is what has to repeat exactly when a round is run
// again on the same seed.
func recommendationKey(rec *service.Recommendation) string {
	if rec == nil {
		return "none"
	}
	return fmt.Sprintf("%d statements of weight %g: cost %g of %g, %d bytes, indexes %v, views %v",
		rec.Statements, rec.TotalWeight, rec.Cost, rec.InitialCost, rec.SizeBytes, rec.Indexes, rec.Views)
}

// warmRounds are run before timing starts: the first warm retunes still
// grow the daemon's heap and its caches.
const warmRounds = 3

// runServePhase runs warmRounds rounds against the daemon and then, metered,
// rounds until length has passed, probing the host after every other one.
func runServePhase(e *serveEnv, length time.Duration, out *outcome) (*serveClient, phaseCost, error) {
	sc, warm := &serveClient{}, &serveClient{}
	probe := newHostProbe()
	r := 0
	round := func(into *serveClient) {
		want := e.shadow.Snapshot()
		batches := e.plan.round(r)
		rec := serveRound(e.a, e.b, r, batches, into, out)
		if r%2 == 1 {
			probe.run()
		}
		if rec != nil {
			into.rate = append(into.rate, float64(rec.Statements)/(into.retune[len(into.retune)-1]/1000))
			checkRecommendation(out, r, rec, want, e.budget)
			out.check(rec.WarmStart, "round %d: retune was not warm-started", r)
		}
		into.recs = append(into.recs, rec)
		out.repeatable["recommendation by round"] = append(out.repeatable["recommendation by round"], recommendationKey(rec))
		for _, b := range batches {
			observeAll(e.shadow, b)
		}
		r++
	}
	for r < warmRounds {
		round(warm)
	}
	cost, err := e.d.meter(func() {
		for deadline := time.Now().Add(length); len(sc.retune) == 0 || time.Now().Before(deadline); {
			round(sc)
		}
	})
	sc.hostFactor = probe.factor()
	sc.recs = append(warm.recs, sc.recs...) // by round, for the replay to compare with
	return sc, cost, err
}

// serveCostRatioCeiling is the quality a run has to reach: the summed estimated
// cost of what the retunes recommended over the summed cost of the initial
// configuration. Over 68 seeds the ratio lay between 0.80 and 0.96; the
// ceiling catches a search that still fits the budget but has stopped
// finding the structures that pay.
const serveCostRatioCeiling = 0.98

func runServe(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var e *serveEnv
	setupS, teardown, err := setupMedian(cfg.setups, func() (func(), error) {
		var err error
		if e, err = setupServe(cfg.seed); err != nil {
			return nil, err
		}
		return e.close, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	out.daemonFlags = e.d.flags

	length := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		length = length * 3 / 10
	}
	sc, cost, err := runServePhase(e, length, out)
	if err != nil {
		return nil, err
	}
	hwm, err := pidStatusMB(e.d.pid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	costRatio := 0.0
	if sc.initial > 0 {
		costRatio = sc.cost / sc.initial
	}
	out.check(costRatio > 0 && costRatio <= serveCostRatioCeiling,
		"cost ratio %g over %d rounds is not within (0, %g]", costRatio, len(sc.retune), serveCostRatioCeiling)

	tail := tailPercentiles[serveMixed]
	if !cfg.trace {
		f := sc.hostFactor
		out.set("setup_s", setupS/f, cfg.setups)
		out.set("op_p50_ms", sc.retune.median()/f, len(sc.retune))
		out.set("op_tail_ms", sc.retune.percentile(tail.op)/f, len(sc.retune))
		out.set("side_p50_ms", sc.side.median()/f, len(sc.side))
		out.set("side_tail_ms", sc.side.percentile(tail.side)/f, len(sc.side))
		// Statements tuned per second of retune time. The ingest rate is
		// no measure here: the open-loop schedule fixes it.
		out.set("stmts_per_s", sc.rate.median()*f, len(sc.rate))
		out.set("cpu_ms_per_kstmt", 1000*cost.daemonCPU/(float64(sc.tuned)/1000)/f, 0)
		out.set("peak_rss_mb", hwm, 0)
		out.extra["host_factor"] = f
		out.extra["retune_p50_ms"] = sc.retune.median()
		out.extra["retune_p90_ms"] = sc.retune.percentile(90)
		out.extra["ingest_batch_p50_ms"] = sc.ingest.median()
		out.extra["ingest_batch_p95_ms"] = sc.ingest.percentile(95)
		out.extra["read_p50_ms"] = sc.read.median()
		out.extra["read_p95_ms"] = sc.read.percentile(95)
		out.extra["cost_ratio"] = costRatio
		out.extra["open_loop_lag_p95_ms"] = sc.lag.percentile(95)
		out.extra["profile_polls_per_round"] = float64(sc.polls) / float64(len(sc.retune))
		out.extra["generator_cpu_pct"] = cost.generatorCPUPct()
		out.samples["ingest_batch_p50_ms"], out.samples["read_p50_ms"] = len(sc.ingest), len(sc.read)
		return out, nil
	}

	out.set("client.ingest_stmts_per_s", float64(sc.stmts)/cost.wall.Seconds(), len(sc.ingest))
	out.set("client.ingest_batch_p50_ms", sc.ingest.median(), len(sc.ingest))
	out.set("client.ingest_batch_p95_ms", sc.ingest.percentile(95), len(sc.ingest))
	out.set("client.retune_p50_ms", sc.retune.median(), len(sc.retune))
	out.set("client.retune_p90_ms", sc.retune.percentile(90), len(sc.retune))
	out.set("client.cost_ratio", costRatio, len(sc.retune))
	sc.setReadMetrics(out)
	out.set("http.ingest_batch_p99_ms", sc.ingest.percentile(99), len(sc.ingest))
	out.set("http.ingest_batch_max_ms", sc.ingest.max(), len(sc.ingest))
	out.set("http.open_loop_lag_p95_ms", sc.lag.percentile(95), len(sc.lag))
	out.set("bench.host_factor", sc.hostFactor, len(sc.retune))
	if err := e.d.setProcessMetrics(out, cost, sc.statusCounts); err != nil {
		return nil, err
	}
	teardown() // the replay gets the machine to itself

	flags, err := daemonFlagValues(e.bin, e.d.flags)
	if err != nil {
		return nil, err
	}
	opts, err := serviceOptions(flags, e.db)
	if err != nil {
		return nil, err
	}
	rest := time.Duration(cfg.seconds*float64(time.Second)) - length
	if err := replayServe(e, sc, opts, rest, out); err != nil {
		return nil, err
	}
	out.set("client.failed_ops_pct", 100*float64(out.failed)/float64(out.attempted), out.attempted)
	return out, nil
}
