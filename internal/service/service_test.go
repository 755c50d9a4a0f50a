package service

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/workloads"
)

var phase1 = []string{
	`SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderdate >= 9131 AND o_orderdate < 9496 GROUP BY o_orderpriority`,
	`SELECT c_name, o_orderkey FROM customer, orders WHERE c_custkey = o_custkey AND o_totalprice > 400000`,
	`SELECT l_shipmode, SUM(l_extendedprice) FROM lineitem WHERE l_shipdate BETWEEN 9131 AND 9496 GROUP BY l_shipmode`,
}

var phase2 = []string{
	`SELECT s_name, s_acctbal FROM supplier WHERE s_acctbal > 5000`,
	`SELECT p_type, COUNT(*) FROM part WHERE p_size > 40 GROUP BY p_type`,
	`SELECT l_returnflag, SUM(l_quantity) FROM lineitem WHERE l_discount > 0.05 GROUP BY l_returnflag`,
}

func testTuning() core.Options {
	return core.Options{SpaceBudget: 2 << 20, MaxIterations: 40}
}

func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	if opts.DB == nil {
		opts.DB = datagen.TPCH(0.001)
	}
	if opts.Tuning == (core.Options{}) {
		opts.Tuning = testTuning()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// repeat replays each statement the given number of times, interleaved
// the way a client stream would.
func repeat(sqls []string, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, sqls...)
	}
	return out
}

// TestServiceRetuneMatchesBatch: the online path (stream with duplicates
// → window compression → retune) must produce exactly the recommendation
// of the batch path (replicated workload → Compress → core.Tuner.Tune).
func TestServiceRetuneMatchesBatch(t *testing.T) {
	db := datagen.TPCH(0.001)
	const copies = 5
	s := newTestService(t, Options{DB: db})

	res := s.Ingest(repeat(phase1, copies))
	if res.Rejected != 0 || res.Accepted != copies*len(phase1) {
		t.Fatalf("ingest: %+v", res)
	}
	if res.WindowUnique != len(phase1) {
		t.Fatalf("window kept %d unique statements, want %d (dedupe failed)", res.WindowUnique, len(phase1))
	}
	rec, err := s.Retune()
	if err != nil {
		t.Fatalf("retune: %v", err)
	}

	batchRaw, err := workloads.FromStatements("batch", db.Name, repeat(phase1, copies))
	if err != nil {
		t.Fatalf("batch workload: %v", err)
	}
	batch := workloads.Compress(batchRaw)
	tn, err := core.NewTuner(db, batch, testTuning())
	if err != nil {
		t.Fatalf("batch tuner: %v", err)
	}
	want, err := tn.Tune()
	if err != nil {
		t.Fatalf("batch tune: %v", err)
	}

	if math.Abs(rec.Cost-want.Best.Cost) > 1e-9 {
		t.Errorf("online cost %.6f != batch cost %.6f", rec.Cost, want.Best.Cost)
	}
	if rec.Config.Fingerprint() != want.Best.Config.Fingerprint() {
		t.Errorf("online recommendation differs from batch:\n%s\nvs\n%s", rec.Config, want.Best.Config)
	}
	if rec.WarmStart {
		t.Errorf("first retune should be cold")
	}
}

// TestWarmRetuneSavesOptimizerCalls: on a repeat-heavy stream, the warm
// retune must issue strictly fewer optimizer calls than a cold tune of
// the same window (cached fragments + warm start), while recommending a
// design at least as good.
func TestWarmRetuneSavesOptimizerCalls(t *testing.T) {
	db := datagen.TPCH(0.001)
	s := newTestService(t, Options{DB: db})
	s.Ingest(repeat(phase1, 4))
	if _, err := s.Retune(); err != nil {
		t.Fatalf("first retune: %v", err)
	}

	// More of the same statements plus one newcomer: the stream is
	// repeat-heavy, so almost all fragments come from the cache.
	s.Ingest(repeat(phase1, 3))
	newcomer := `SELECT s_name, s_acctbal FROM supplier WHERE s_acctbal > 5000`
	s.Ingest([]string{newcomer})
	second, err := s.Retune()
	if err != nil {
		t.Fatalf("second retune: %v", err)
	}

	// The cold equivalent: tuning the identical window workload from
	// scratch, no cache, no warm start.
	coldRaw, err := workloads.FromStatements("cold", db.Name,
		append(repeat(phase1, 7), newcomer))
	if err != nil {
		t.Fatalf("cold workload: %v", err)
	}
	coldTn, err := core.NewTuner(db, workloads.Compress(coldRaw), testTuning())
	if err != nil {
		t.Fatalf("cold tuner: %v", err)
	}
	cold, err := coldTn.Tune()
	if err != nil {
		t.Fatalf("cold tune: %v", err)
	}

	if !second.WarmStart {
		t.Errorf("second retune should be warm")
	}
	t.Logf("warm retune: %d calls, cost %.2f; cold: %d calls, cost %.2f",
		second.OptimizerCalls, second.Cost, cold.OptimizerCalls, cold.Best.Cost)
	if second.OptimizerCalls >= cold.OptimizerCalls {
		t.Errorf("warm retune did not save optimizer calls: %d >= %d",
			second.OptimizerCalls, cold.OptimizerCalls)
	}
	if second.Cost > cold.Best.Cost+1e-9 {
		t.Errorf("warm recommendation worse than cold: %.3f > %.3f", second.Cost, cold.Best.Cost)
	}
	m := s.MetricsSnapshot()
	if m.OptimizerCallsSaved <= 0 {
		t.Errorf("metrics report no optimizer calls saved: %+v", m)
	}
	if m.WarmRetunes != 1 || m.Retunes != 2 {
		t.Errorf("retune counters: warm=%d total=%d, want 1/2", m.WarmRetunes, m.Retunes)
	}
	if m.LastRetuneCalls != second.OptimizerCalls {
		t.Errorf("last retune calls %d != %d", m.LastRetuneCalls, second.OptimizerCalls)
	}
}

func TestDriftDetection(t *testing.T) {
	s := newTestService(t, Options{Drift: DriftOptions{MinStatements: 6, ShapeThreshold: 0.5}})

	// Too few observations: no drift yet.
	s.Ingest(phase1)
	if rep := s.CheckDrift(); rep.Drifted {
		t.Errorf("drifted below MinStatements: %+v", rep)
	}
	// Enough observations, never tuned: drift.
	s.Ingest(phase1)
	if rep := s.CheckDrift(); !rep.Drifted {
		t.Errorf("expected never-tuned drift: %+v", rep)
	}
	if _, err := s.Retune(); err != nil {
		t.Fatalf("retune: %v", err)
	}
	// Same workload shape right after tuning: no drift.
	s.Ingest(phase1)
	if rep := s.CheckDrift(); rep.Drifted {
		t.Errorf("drift immediately after retune: %+v", rep)
	}
	// Flood the window with a different workload: shape drift.
	s.Ingest(repeat(phase2, 12))
	rep := s.CheckDrift()
	if !rep.Drifted {
		t.Errorf("expected shape drift: %+v", rep)
	}
	if rep.ShapeDistance < 0.5 {
		t.Errorf("shape distance %.3f too small", rep.ShapeDistance)
	}
	m := s.MetricsSnapshot()
	if m.DriftChecks != 4 || m.DriftEvents != 2 {
		t.Errorf("drift counters: checks=%d events=%d, want 4/2", m.DriftChecks, m.DriftEvents)
	}
}

func TestAutoRetuneOnDrift(t *testing.T) {
	s := newTestService(t, Options{
		AutoRetune:      true,
		DriftCheckEvery: 6,
		Drift:           DriftOptions{MinStatements: 6},
	})
	s.Ingest(repeat(phase1, 2)) // crosses the 6-statement boundary → drift (never tuned) → async retune
	deadline := time.Now().Add(10 * time.Second)
	for s.Recommendation() == nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	rec := s.Recommendation()
	if rec == nil {
		t.Fatal("auto retune never produced a recommendation")
	}
	if m := s.MetricsSnapshot(); m.DriftEvents < 1 || m.Retunes < 1 {
		t.Errorf("metrics after auto retune: %+v", m)
	}
}

// TestCloseDrainsInflightRetune: Close must wait for an in-flight async
// retune instead of panicking or racing.
func TestCloseDrainsInflightRetune(t *testing.T) {
	s := newTestService(t, Options{})
	s.Ingest(repeat(phase1, 3))
	s.TriggerRetune()
	time.Sleep(time.Millisecond) // let the worker pick it up
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Idempotent.
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestRetuneEmptyWindow(t *testing.T) {
	s := newTestService(t, Options{})
	if _, err := s.Retune(); err != ErrEmptyWindow {
		t.Fatalf("got %v, want ErrEmptyWindow", err)
	}
}

// panicSink panics on the first relaxation-step event it sees while
// armed — a bug in a sink of the event stream, raised on the main line
// of core.Tuner.Tune in the middle of a session.
type panicSink struct{ armed atomic.Bool }

func (p *panicSink) Emit(e obs.Event) {
	if p.armed.Load() && e.Type == obs.EvIteration {
		panic("sink exploded")
	}
}

func (p *panicSink) Close() error { return nil }

// TestRetunePanicBecomesError: a panic under Tune fails that retune with
// an error and leaves the service serving — the next retune succeeds,
// ingest still works, and no session was recorded for the failed one.
func TestRetunePanicBecomesError(t *testing.T) {
	sink := &panicSink{}
	s := newTestService(t, Options{TraceSink: sink})
	s.Ingest(repeat(phase1, 3))

	sink.armed.Store(true)
	rec, err := s.Retune()
	if err == nil {
		t.Fatalf("Retune() = %+v, want the panic reported as an error", rec)
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "service: retune: ") || !strings.Contains(msg, "sink exploded") {
		t.Errorf("error %q does not carry the retune prefix and the panic value", msg)
	}
	if s.Recommendation() != nil || len(s.Sessions()) != 0 {
		t.Error("the failed retune installed a recommendation or recorded a session")
	}

	sink.armed.Store(false)
	rec, err = s.Retune()
	if err != nil {
		t.Fatalf("retune after the recovered panic: %v", err)
	}
	if rec.WarmStart || len(rec.Indexes) == 0 {
		t.Errorf("second retune should be a cold, non-empty recommendation: %+v", rec)
	}
	if res := s.Ingest(phase2); res.Accepted != len(phase2) {
		t.Errorf("ingest after the recovered panic accepted %d of %d", res.Accepted, len(phase2))
	}
}

// TestRetuneWorkerOnlyWithoutScheduler: a service whose retunes an
// outside scheduler runs (a fleet tenant) parks no retune worker of its
// own; one that schedules itself runs exactly one until Close.
func TestRetuneWorkerOnlyWithoutScheduler(t *testing.T) {
	// expectWorkers waits for the number of live retune workers to be
	// want: a worker that has signalled Close's WaitGroup may still be
	// unwinding for a moment.
	expectWorkers := func(want int, what string) {
		t.Helper()
		got := -1
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			buf := make([]byte, 1<<20)
			if got = strings.Count(string(buf[:runtime.Stack(buf, true)]), "service.(*Service).retuneWorker("); got == want {
				return
			}
		}
		t.Fatalf("%s: %d retune workers, want %d", what, got, want)
	}
	expectWorkers(0, "before any service")
	scheduled := 0
	fleetTenant := newTestService(t, Options{RetuneScheduler: func(string) { scheduled++ }})
	expectWorkers(0, "a service with a RetuneScheduler")
	fleetTenant.TriggerRetune()
	if scheduled != 1 {
		t.Fatalf("TriggerRetune reached the scheduler %d times, want 1", scheduled)
	}
	own := newTestService(t, Options{})
	expectWorkers(1, "a self-scheduling service")
	own.Close()
	expectWorkers(0, "after Close")
}

// A retune parses and binds only the statements its predecessor did not:
// the others keep their bindings (and the view blocks memoized on them),
// and the set holds the last retune's statements only, so statements the
// window evicted leave it.
func TestRetuneReusesBindings(t *testing.T) {
	sqls := workloads.TPCH22SQL()
	s := newTestService(t, Options{Window: workloads.WindowOptions{MaxUnique: 12}})
	retune := func(batch []string) map[string]*optimizer.BoundQuery {
		t.Helper()
		s.Ingest(batch)
		if _, err := s.Retune(); err != nil {
			t.Fatal(err)
		}
		s.tuneMu.Lock()
		defer s.tuneMu.Unlock()
		return maps.Clone(s.bound)
	}
	keys := func(batch []string) []string {
		w, err := workloads.FromStatements("want", "tpch", batch)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(w.Queries))
		for i, q := range w.Queries {
			out[i] = q.SQL
		}
		return out
	}
	first := retune(sqls[:10])
	// 5..9 arrive again and 10, 11 are new: twelve entries, none evicted.
	second := retune(sqls[5:12])
	// 12..15 are new and evict the lightest, the first observed among
	// equals: 0..3.
	third := retune(sqls[12:16])
	for _, tc := range []struct {
		name        string
		prev, cur   map[string]*optimizer.BoundQuery
		kept, fresh []string
	}{
		{"second", first, second, keys(sqls[:10]), keys(sqls[10:12])},
		{"third", second, third, keys(sqls[4:12]), keys(sqls[12:16])},
	} {
		if len(tc.cur) != len(tc.kept)+len(tc.fresh) {
			t.Errorf("%s retune keeps %d bindings, want %d", tc.name, len(tc.cur), len(tc.kept)+len(tc.fresh))
		}
		for _, k := range tc.kept {
			if tc.cur[k] == nil || tc.cur[k] != tc.prev[k] {
				t.Errorf("%s retune bound %q again", tc.name, k)
			}
		}
		for _, k := range tc.fresh {
			if tc.cur[k] == nil || tc.prev[k] != nil {
				t.Errorf("%s retune: %q bound %v, before %v", tc.name, k, tc.cur[k] != nil, tc.prev[k] != nil)
			}
		}
	}
}

// The last retune's snapshot is read while the next retune runs: /workload
// signs its statements (with the sketch off, by parsing them on demand)
// and a ground-truth replay binds them. Under -race this checks that the
// on-demand parse shares nothing between readers.
func TestSnapshotReadersDuringRetune(t *testing.T) {
	builds := 0
	s := newTestService(t, Options{Window: workloads.WindowOptions{SketchSize: -1}, Replay: tpchSource(&builds)})
	s.Ingest(phase1)
	if _, err := s.Retune(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for _, read := range []func() error{
		func() error {
			if rep := s.WorkloadReport(); len(rep.Signatures) == 0 || rep.TunedSession == "" {
				return fmt.Errorf("workload report attributes nothing")
			}
			return nil
		},
		func() error {
			_, err := s.Calibration(true)
			return err
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := read(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for _, batch := range [][]string{phase2, phase1, phase2} {
		s.Ingest(batch)
		if _, err := s.Retune(); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}
