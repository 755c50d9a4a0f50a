// Command tunerd runs the online tuning service as an HTTP/JSON daemon:
// clients stream observed SQL statements at it, the service keeps a
// compressed sliding window of the workload, detects drift, and retunes
// incrementally — warm-starting from the previous recommendation so
// repeat statements cost zero extra optimizer calls.
//
// Usage:
//
//	tunerd -db tpch -sf 0.01 -budget 64 -addr :8347
//
// Endpoints:
//
//	POST /ingest          {"statements": ["SELECT ...", ...]}
//	GET  /recommendation  current physical design advice
//	GET  /explain         per-structure decision log of the last retune
//	GET  /profile         per-phase performance profile across retunes
//	POST /retune          tune the current window now (optional body
//	                      {"budget_mb": N} overrides the budget once)
//	GET  /progress        live per-iteration search events (SSE;
//	                      ?timeout=30s / ?max=N bound the stream)
//	GET  /workload        workload introspection: the window grouped by
//	                      statement signature with weight/cost shares,
//	                      demanded structures, sketch state, and the
//	                      latest drift movers (?format=text for a table)
//	GET  /sessions        flight-recorder session history
//	GET  /sessions/{id}   one recorded session in full
//	GET  /diff            structural delta between two sessions
//	                      (?from=&to=; defaults to the two most recent)
//	GET  /drift           assess workload drift
//	GET  /calibration     cost-model calibration of the last retune
//	                      (?ground_truth=1 runs an execution-backed
//	                      replay first; requires -replay)
//	GET  /metrics         activity counters (JSON; Prometheus text with
//	                      Accept: text/plain or ?format=prometheus)
//	GET  /metrics/history windowed metric time series sampled every
//	                      -history-interval (?series=a,b&points=N&since=5m)
//	GET  /alerts          SLO alert engine state: rules, firing/pending
//	                      instances, recent transitions (?format=text)
//	GET  /healthz         liveness (shared single-tenant/fleet shape)
//	GET  /readyz          readiness: 503 + Retry-After until the first
//	                      retune completes
//
// Quickstart:
//
//	curl -s -XPOST localhost:8347/ingest -d '{"statements": ["SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderdate >= 9131 GROUP BY o_orderpriority"]}'
//	curl -s -XPOST localhost:8347/retune
//	curl -s localhost:8347/recommendation
//	curl -sN 'localhost:8347/progress?timeout=30s' &
//	curl -s localhost:8347/sessions
//	curl -s 'localhost:8347/diff?from=s-000001&to=s-000002'
//	curl -s -H 'Accept: text/plain' localhost:8347/metrics
//
// Fleet mode (-fleet) turns the daemon multi-tenant: tenants register at
// runtime and each gets the full API above scoped under its own prefix,
// while retunes run on a shared worker pool and per-statement caches are
// shared across tenants with identical catalogs:
//
//	tunerd -fleet -fleet-workers 4 -quota-rate 500
//
//	POST   /tenants                register {"id": "t1", "database": "tpch", ...}
//	GET    /tenants                list tenants with live status
//	GET    /tenants/{id}           one tenant's status
//	DELETE /tenants/{id}           deregister (drains its retune first)
//	ANY    /tenants/{id}/...       the single-tenant API, tenant-scoped
//	                               (ingest is quota-gated: 429 + Retry-After)
//	GET    /fleet                  fleet-wide status snapshot
//	GET    /metrics                fleet counters + per-tenant series with a
//	                               tenant label (Prometheus) or per-tenant
//	                               snapshots (JSON)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/service"
	"repro/internal/workloads"
)

func main() {
	var (
		addr       = flag.String("addr", ":8347", "listen address")
		debugAddr  = flag.String("debug-addr", "", "listen address for net/http/pprof profiling (empty = off)")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		tracePath  = flag.String("trace", "", "write search trace events (JSONL) to this file")
		dbName     = flag.String("db", "tpch", "database: tpch, ds1, or bench")
		sf         = flag.Float64("sf", 0.001, "database scale factor")
		budgetMB   = flag.Float64("budget", 0, "storage budget in MB, fractions allowed (0 = unconstrained; under 2^43)")
		views      = flag.Bool("views", true, "consider materialized views")
		iters      = flag.Int("iters", 120, "maximum relaxation iterations per retune")
		tuneTime   = flag.Duration("tune-time", 0, "per-retune time budget (0 = unbounded)")
		windowObs  = flag.Int("window", 4096, "sliding window size in observations")
		maxUnique  = flag.Int("max-unique", 512, "max distinct statements kept in the window")
		halfLife   = flag.Int("half-life", 0, "statement weight half-life in observations (0 = no decay)")
		sketchSize = flag.Int("sketch-size", 0, "top-k signature sketch capacity for GET /workload (0 = default 128, negative = disable)")
		driftEvery = flag.Duration("drift-interval", 30*time.Second, "background drift check interval (0 = off)")
		driftMin   = flag.Int("drift-min", 8, "minimum window statements before drift can trigger")
		driftShape = flag.Float64("drift-shape", 0.5, "shape-histogram L1 distance threshold")
		driftCost  = flag.Float64("drift-cost", 1.25, "cost inflation ratio threshold")
		autoRetune = flag.Bool("auto-retune", true, "retune automatically when drift is detected")
		parallel   = flag.Int("parallel", 0, "evaluation-engine workers per retune (0 = all cores, 1 = exact serial algorithm)")
		replayOn   = flag.Bool("replay", false, "enable execution-backed ground-truth replay (GET /calibration?ground_truth=1); materializes the database at -sf lazily on first use")
		replayEach = flag.Bool("replay-each-retune", false, "run a ground-truth replay after every retune (implies -replay)")

		historyPath  = flag.String("history", "", "persist the session flight recorder to this JSONL file (empty = in-memory only)")
		historyLimit = flag.Int("history-limit", 0, "sessions retained by the flight recorder (0 = default 256)")

		monInterval = flag.Duration("history-interval", 10*time.Second, "self-monitoring sample/evaluation interval for GET /metrics/history and GET /alerts (0 = disable self-monitoring)")
		monWindow   = flag.Duration("history-window", 15*time.Minute, "metric history retained for GET /metrics/history and alert lookbacks")
		alertRules  = flag.String("alert-rules", "", "JSON alert rule file evaluated by the SLO engine (empty = built-in default ruleset)")
		alertLog    = flag.String("alert-log", "", "persist alert transitions to this JSONL file so firings survive restarts (empty = in-memory only)")

		fleetMode    = flag.Bool("fleet", false, "serve a multi-tenant fleet (tenants register via POST /tenants; -db/-sf become per-tenant)")
		fleetWorkers = flag.Int("fleet-workers", 0, "retune worker pool size in fleet mode (0 = half of GOMAXPROCS)")
		quotaRate    = flag.Float64("quota-rate", 0, "default per-tenant ingestion quota in statements/sec (0 = unlimited)")
		quotaBurst   = flag.Int("quota-burst", 0, "default per-tenant ingestion burst (0 = ceil of -quota-rate)")
	)
	flag.Parse()

	logger, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fatal := func(msg string, err error) {
		logger.Error(msg, "error", err)
		os.Exit(1)
	}

	var traceSink obs.Sink
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatal("tunerd: creating trace file", err)
		}
		traceSink = obs.NewJSONLSink(f)
		logger.Info("tunerd: tracing retunes", "path", *tracePath)
	}

	budget, err := service.BudgetBytes(*budgetMB)
	if err != nil {
		fatal("tunerd: -budget", err)
	}
	// baseOpts is the single-tenant configuration and, in fleet mode,
	// the template every registered tenant starts from.
	baseOpts := service.Options{
		Tuning: core.Options{
			SpaceBudget:   budget,
			NoViews:       !*views,
			MaxIterations: *iters,
			TimeBudget:    *tuneTime,
			Parallelism:   *parallel,
		},
		Window: workloads.WindowOptions{
			MaxObservations: *windowObs,
			MaxUnique:       *maxUnique,
			HalfLife:        *halfLife,
			SketchSize:      *sketchSize,
		},
		Drift: service.DriftOptions{
			MinStatements:  *driftMin,
			ShapeThreshold: *driftShape,
			CostThreshold:  *driftCost,
		},
		DriftCheckInterval: *driftEvery,
		AutoRetune:         *autoRetune,
		Logf: func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		},
		Warnf: func(format string, args ...any) {
			logger.Warn(fmt.Sprintf(format, args...))
		},
		TraceSink:        traceSink,
		ReplayEachRetune: *replayEach,
		Monitor: service.MonitorOptions{
			HistoryInterval: *monInterval,
			HistoryWindow:   *monWindow,
			AlertLogPath:    *alertLog,
		},
	}
	if *replayEach {
		*replayOn = true
	}
	if *alertRules != "" {
		data, err := os.ReadFile(*alertRules)
		if err != nil {
			fatal("tunerd: reading -alert-rules", err)
		}
		rules, err := obs.ParseAlertRules(data)
		if err != nil {
			fatal("tunerd: bad -alert-rules", err)
		}
		baseOpts.Monitor.Rules = rules
		logger.Info("tunerd: alert rules loaded", "path", *alertRules, "rules", len(rules))
	}

	var (
		handler  http.Handler
		shutdown func() error
	)
	if *fleetMode {
		if *historyPath != "" {
			logger.Warn("tunerd: -history is ignored in fleet mode; tenant histories are in-memory")
		}
		if *alertLog != "" {
			logger.Warn("tunerd: -alert-log is ignored in fleet mode; tenant alert transitions are in-memory")
			baseOpts.Monitor.AlertLogPath = ""
		}
		fleetOpts := fleet.Options{
			Workers:      *fleetWorkers,
			Catalog:      datagen.ByName,
			Defaults:     baseOpts,
			DefaultQuota: fleet.QuotaSpec{RatePerSec: *quotaRate, Burst: *quotaBurst},
			Logf: func(format string, args ...any) {
				logger.Info(fmt.Sprintf(format, args...))
			},
		}
		if *replayOn {
			fleetOpts.ReplaySource = datagen.DataByName
		}
		reg, err := fleet.New(fleetOpts)
		if err != nil {
			fatal("tunerd: starting fleet", err)
		}
		handler = fleet.NewHandler(reg)
		shutdown = reg.Close
		logger.Info("tunerd: fleet mode", "workers", reg.Pool().Workers(), "quota_rate", *quotaRate)
	} else {
		db, err := datagen.ByName(*dbName, *sf)
		if err != nil {
			fatal("tunerd: bad -db", err)
		}
		recorder, err := obs.NewRecorder(*historyPath, *historyLimit)
		if err != nil {
			fatal("tunerd: opening -history", err)
		}
		if *historyPath != "" {
			logger.Info("tunerd: session history", "path", *historyPath, "loaded", recorder.Len())
		}
		baseOpts.DB = db
		baseOpts.Recorder = recorder
		if *replayOn {
			name, scale := *dbName, *sf
			baseOpts.Replay = &replay.Source{Build: func() (*catalog.Database, *exec.Store, error) {
				return datagen.DataByName(name, scale)
			}}
			logger.Info("tunerd: ground-truth replay enabled", "each_retune", *replayEach)
		}
		svc, err := service.New(baseOpts)
		if err != nil {
			fatal("tunerd: starting service", err)
		}
		handler = service.NewHandler(svc)
		shutdown = svc.Close
		logger.Info("tunerd: single-tenant mode", "db", db.Name, "sf", *sf)
	}

	srv := newServer(*addr, service.AccessLog(logger, handler))
	go func() {
		logger.Info("tunerd: serving", "addr", *addr, "fleet", *fleetMode)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal("tunerd: listen", err)
		}
	}()

	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = newServer(*debugAddr, pprofMux())
		go func() {
			logger.Info("tunerd: pprof", "addr", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("tunerd: pprof listen", "error", err)
			}
		}()
	}

	// Graceful shutdown: stop accepting requests, then drain any
	// in-flight tuning session.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	logger.Info("tunerd: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("tunerd: http shutdown", "error", err)
	}
	if debugSrv != nil {
		_ = debugSrv.Shutdown(ctx)
	}
	if err := shutdown(); err != nil {
		logger.Error("tunerd: service close", "error", err)
	}
	logger.Info("tunerd: bye")
}

// newLogger builds the process logger in the requested format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("tunerd: unknown -log-format %q (want text or json)", format)
}

// Both listeners drop a client that does not finish its request headers
// or that sits idle on a kept-alive connection. There is no write
// timeout: /progress streams SSE for as long as the client stays, and a
// retune answers only when its search is done.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func newServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// pprofMux exposes net/http/pprof on a dedicated mux, so profiling never
// shares a listener with the service API.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
