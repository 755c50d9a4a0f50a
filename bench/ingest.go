package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/service"
	"repro/internal/workloads"
	"repro/tuner"
)

const (
	// The ingest workloads are one closed loop on one connection:
	// generator and daemon take turns, so the run keeps one core busy and
	// leaves the other to the daemon's collector. More connections than
	// that and the run measures how the host schedules four threads on two
	// shared cores.
	ingestBatch     = 100 // statements per POST /ingest
	malformedShare  = 0.01
	ingestWindow    = 4096 // tunerd's default -window
	ingestMaxUnique = 512  // tunerd's default -max-unique
	repeatPool      = 200  // distinct statements ingest-repeat draws from
	repeatZipf      = 1.1
	// warmBatches are sent before timing starts: they fill the window and
	// let the daemon's heap reach its working size.
	warmBatches = 100
	// The timed phase is cut into blocks of blockBatches batches. A block
	// is long enough for a p90 with ten samples beyond it (0.3 to 0.7 s).
	// Each block is followed by a probe of the host and blockSweeps sweeps
	// of the read endpoints, so all three sample the whole run.
	blockBatches = 100
	blockSweeps  = 3
	// A run ends with tailBatches batches whose statements are also fed to
	// a shadow window here, so that the final window can be checked: after
	// ingestWindow accepted statements nothing older is left in either.
	tailBatches = 50
	// replaySweeps is how many sweeps the in-process replay times.
	replaySweeps = 60
)

// sweepEndpoints is what one sweep reads. /recommendation is not among
// them: nothing is tuned on the ingest workloads, so there is none.
var sweepEndpoints = []string{"workload", "metrics", "sessions", "drift"}

// ingestStreams builds the stream the connection sends and the one the
// tail draws from.
func ingestStreams(seed int64, distinct bool) (load, tail *stream) {
	var pool []string
	if !distinct {
		pool = distinctPool(seed, tpchTemplates, repeatPool)
	}
	streams := [2]*stream{}
	for i := range streams {
		streams[i] = newStream(seed, i, len(streams), tpchTemplates, distinct, malformedShare)
		if pool != nil {
			streams[i].withPool(pool, repeatZipf)
		}
	}
	return streams[0], streams[1]
}

// ingestClient is what the connection sent and got back.
type ingestClient struct {
	lat                samples
	accepted, rejected int
	acks               []string // "accepted/rejected" per batch, in order
	statusCounts
}

// post sends one batch of n statements, checks the acknowledgement and
// returns how long the daemon took to give it.
func (ic *ingestClient) post(c *conn, body []byte, n int, out *outcome) time.Duration {
	t0 := time.Now()
	status, resp, err := c.do("POST", "/ingest", body)
	lat := time.Since(t0)
	ic.lat.add(lat)
	var res service.IngestResult
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(resp, &res)
	}
	ic.statusCounts.add(status)
	ic.accepted += res.Accepted
	ic.rejected += res.Rejected
	ic.acks = append(ic.acks, fmt.Sprintf("%d/%d", res.Accepted, res.Rejected))
	out.check(err == nil && status == http.StatusOK && res.Accepted+res.Rejected == n,
		"POST /ingest: status %d err %v accepted %d rejected %d of %d", status, err, res.Accepted, res.Rejected, n)
	return lat
}

// ingestPhase is one measured phase against a daemon.
type ingestPhase struct {
	ingestClient // every timed batch, as measured
	phaseCost    // of the blocks, the sweeps between them left out
	// Per block: the median and the tail batch, and statements
	// acknowledged per second.
	p50, tail, rate samples
	sweep           samples // one sweep of sweepEndpoints
	readClient              // the sweeps' single reads
	hostFactor      float64 // how much slower than the reference the host ran
}

// runIngestPhase runs one closed loop against d: an untimed block to warm
// up, then for length timed blocks of batches with the host probed and the
// read endpoints swept after each, then the tail. It checks the
// daemon's counters and final window against what was sent.
func runIngestPhase(d *daemon, load, tail *stream, cfg runConfig, length time.Duration, out *outcome) (*ingestPhase, error) {
	distinct := cfg.workload == ingestDistinct
	block := blockBatches
	if cfg.smoke {
		block = 10
	}
	c := newConn(d.base)
	defer c.close()
	var body []byte
	var warm ingestClient
	for i := 0; i < block; i++ {
		body = load.batch(body[:0], ingestBatch)
		warm.post(c, body, ingestBatch, out)
	}

	ph := &ingestPhase{}
	probe := newHostProbe()
	for deadline := time.Now().Add(length); len(ph.p50) == 0 || time.Now().Before(deadline); {
		var lat samples
		before := ph.accepted + ph.rejected
		cost, err := d.meter(func() {
			for i := 0; i < block; i++ {
				body = load.batch(body[:0], ingestBatch)
				lat.add(ph.post(c, body, ingestBatch, out))
			}
		})
		if err != nil {
			return nil, err
		}
		probe.run()
		ph.phaseCost.add(cost)
		ph.p50 = append(ph.p50, lat.median())
		ph.tail = append(ph.tail, lat.percentile(tailPercentiles[cfg.workload].op))
		ph.rate = append(ph.rate, float64(ph.accepted+ph.rejected-before)/cost.wall.Seconds())

		// What an operator looks at during a load: the signature report,
		// the Prometheus exposition, the session list and the drift
		// report, over the window as the ingest keeps it.
		for i := 0; i < blockSweeps; i++ {
			t0 := time.Now()
			for _, name := range sweepEndpoints {
				t1 := time.Now()
				status, body, err := c.do("GET", readPaths[name], nil)
				ph.record(name, time.Since(t1), body)
				ph.statusCounts.add(status)
				if err == nil && status == http.StatusOK {
					err = decodes(name, body)
				}
				out.check(err == nil && status == http.StatusOK, "GET %s: status %d err %v", readPaths[name], status, err)
			}
			ph.sweep.add(time.Since(t0))
		}
	}
	ph.hostFactor = probe.factor()
	out.repeatable["acks"] = append(warm.acks, ph.acks...)

	// A shadow window fed the tail's statements ends in the daemon's
	// final state.
	shadow := workloads.NewSlidingWindow("tpch", workloads.WindowOptions{MaxObservations: ingestWindow, MaxUnique: ingestMaxUnique})
	var tailClient ingestClient
	for i := 0; i < tailBatches; i++ {
		stmts := tail.statements(ingestBatch)
		tailClient.post(c, ingestBody(stmts), ingestBatch, out)
		observeAll(shadow, stmts)
	}
	out.repeatable["acks of the tail"] = tailClient.acks

	sent, bad := load.sent+tail.sent, load.bad+tail.bad
	accepted := warm.accepted + ph.accepted + tailClient.accepted
	rejected := warm.rejected + ph.rejected + tailClient.rejected
	out.check(accepted+rejected == sent, "acknowledged %d+%d statements, sent %d", accepted, rejected, sent)
	out.check(rejected == bad, "daemon rejected %d statements, %d were malformed", rejected, bad)

	status, resp, err := c.do("GET", "/metrics", nil)
	var m service.MetricsSnapshot
	if err == nil && status == http.StatusOK {
		err = json.Unmarshal(resp, &m)
	}
	if out.check(err == nil && status == http.StatusOK, "GET /metrics: status %d err %v", status, err) {
		want := shadow.Stats()
		out.check(m.StatementsIngested == int64(sent) && m.ParseErrors == int64(bad),
			"daemon counted %d statements and %d parse errors, sent %d and %d", m.StatementsIngested, m.ParseErrors, sent, bad)
		out.check(m.WindowObservations == int64(want.InWindow) && m.WindowUnique == int64(want.Unique),
			"final window holds %d observations of %d statements, expected %d of %d",
			m.WindowObservations, m.WindowUnique, want.InWindow, want.Unique)
		out.repeatable["final window"] = []string{fmt.Sprintf("%d observations of %d statements", m.WindowObservations, m.WindowUnique)}
		// Every statement of the distinct stream inserts an entry and all
		// but the last max-unique are evicted again; the repeat stream's
		// pool fits the window, so nothing is evicted for room.
		wantEvicted := int64(0)
		if distinct {
			wantEvicted = int64(accepted - ingestMaxUnique)
		}
		out.check(m.WindowEvictedUnique == wantEvicted, "daemon evicted %d distinct statements, expected %d", m.WindowEvictedUnique, wantEvicted)
	}
	return ph, nil
}

func runIngest(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	distinct := cfg.workload == ingestDistinct
	var d *daemon
	var bin string
	var load, tail *stream
	setupS, teardown, err := setupMedian(cfg.setups, func() (func(), error) {
		var err error
		if bin, err = buildTunerd(); err != nil {
			return nil, err
		}
		load, tail = ingestStreams(cfg.seed, distinct)
		if d, err = startDaemon(bin); err != nil {
			return nil, err
		}
		return d.stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer teardown()
	out.daemonFlags = d.flags

	length := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		length = length * 3 / 10
	}
	ph, err := runIngestPhase(d, load, tail, cfg, length, out)
	if err != nil {
		return nil, err
	}
	hwm, err := pidStatusMB(d.pid(), "VmHWM")
	if err != nil {
		return nil, err
	}
	kstmt := float64(ph.accepted+ph.rejected) / 1000
	n := len(ph.lat)
	if !cfg.trace {
		f := ph.hostFactor
		out.set("setup_s", setupS/f, cfg.setups)
		out.set("op_p50_ms", ph.p50.median()/f, n)
		out.set("op_tail_ms", ph.tail.median()/f, n)
		out.set("side_p50_ms", ph.sweep.median()/f, len(ph.sweep))
		out.set("side_tail_ms", ph.sweep.percentile(tailPercentiles[cfg.workload].side)/f, len(ph.sweep))
		out.set("stmts_per_s", ph.rate.median()*f, n)
		out.set("cpu_ms_per_kstmt", 1000*ph.daemonCPU/kstmt/f, 0)
		out.set("peak_rss_mb", hwm, 0)
		out.extra["host_factor"] = f
		out.extra["ingest_stmts_per_s"] = float64(ph.accepted+ph.rejected) / ph.wall.Seconds()
		out.extra["ingest_batch_p50_ms"] = ph.lat.median()
		out.extra["ingest_batch_p95_ms"] = ph.lat.percentile(95)
		out.extra["generator_cpu_pct"] = ph.generatorCPUPct()
		out.samples["blocks"] = len(ph.p50)
		return out, nil
	}

	out.set("client.ingest_stmts_per_s", float64(ph.accepted+ph.rejected)/ph.wall.Seconds(), n)
	out.set("client.ingest_batch_p50_ms", ph.lat.median(), n)
	out.set("client.ingest_batch_p95_ms", ph.lat.percentile(95), n)
	ph.setReadMetrics(out)
	out.set("http.ingest_batch_p99_ms", ph.lat.percentile(99), n)
	out.set("http.ingest_batch_max_ms", ph.lat.max(), n)
	out.set("bench.host_factor", ph.hostFactor, len(ph.p50))
	if err := d.setProcessMetrics(out, ph.phaseCost, ph.statusCounts); err != nil {
		return nil, err
	}
	teardown() // the replay gets the machine to itself

	flags, err := daemonFlagValues(bin, d.flags)
	if err != nil {
		return nil, err
	}
	opts, err := serviceOptions(flags, tuner.TPCH(tpchScale))
	if err != nil {
		return nil, err
	}
	rest := time.Duration(cfg.seconds*float64(time.Second)) - length
	if err := replayIngest(cfg.seed, distinct, opts, rest, ph.lat.median(), out); err != nil {
		return nil, err
	}
	out.set("client.failed_ops_pct", 100*float64(out.failed)/float64(out.attempted), out.attempted)
	return out, nil
}

// replayBlock is how many batches a replay sends before it switches
// between recording spans and not: short enough that a change in the
// host's speed falls on both kinds alike.
const replayBlock = 20

// replayIngest replays the run's seeded stream in-process for length,
// alternating untraced and traced blocks of batches.
func replayIngest(seed int64, distinct bool, opts service.Options, length time.Duration, daemonBatchMs float64, out *outcome) error {
	load, _ := ingestStreams(seed, distinct)
	tr := newTracer()
	r, err := newReplay(opts.DB, opts)
	if err != nil {
		return err
	}
	defer r.close()

	var passes tracePasses
	var batches [replayBlock][]string
	var bodies [replayBlock][]byte
	var roots, observes, inserts [replayBlock]int
	deadline := time.Now().Add(length)
	for block := 0; block < 2 || time.Now().Before(deadline); block++ {
		t := tr
		if block%2 == 0 {
			t = nil
		}
		for i := range batches {
			batches[i] = load.statements(ingestBatch)
			bodies[i] = nil
			if i%2 == 0 { // even batches go through the handler
				bodies[i] = ingestBody(batches[i])
			}
		}
		// The root calls of a block run back to back under one
		// stopwatch; the layers below them are timed afterwards.
		t0 := time.Now()
		for i := range batches {
			roots[i] = r.ingestRoot(t, block*replayBlock+i, batches[i], bodies[i])
		}
		passes.add(t != nil, time.Since(t0))
		// Likewise the window's share of every batch, then the
		// statements': each loop runs as hot as the one it is compared to.
		for i := range batches {
			observes[i], inserts[i] = r.observeBelow(t, roots[i], block*replayBlock+i, batches[i])
		}
		for i := range batches {
			r.statementsBelow(t, observes[i], block*replayBlock+i, batches[i], inserts[i])
		}
		if t != nil {
			r.probeWindow(t, block)
		}
	}

	// The reads of the closing sweeps, over the window the replay built.
	for i := 0; i < replaySweeps; i++ {
		for _, name := range sweepEndpoints {
			root := tr.time("http.read."+name, rootSpan, i, func() { r.svc.serve("GET", readPaths[name], nil) })
			r.readBelow(tr, root, i, name)
		}
	}

	r.ingestLayerMetrics(out, tr.spans, daemonBatchMs)
	r.readLayerMetrics(out, tr.spans)
	out.set("bench.trace_overhead_pct", passes.overheadPct(), (passes.n[0]+passes.n[1])*replayBlock)
	out.set("bench.self_time_coverage_pct", coveragePct(tr.spans), len(tr.spans))
	out.spans = tr.spans
	return nil
}
