package core

import (
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// requireSameOutcome asserts the invariant the parallel engine promises:
// any Parallelism setting yields the same recommendation, cost,
// iteration count, and calibration trail as the serial algorithm.
func requireSameOutcome(t *testing.T, serial, parallel *Result) {
	t.Helper()
	if sfp, pfp := serial.Best.Config.Fingerprint(), parallel.Best.Config.Fingerprint(); sfp != pfp {
		t.Errorf("best fingerprint diverged: serial %s, parallel %s", sfp, pfp)
	}
	if serial.Best.Cost != parallel.Best.Cost {
		t.Errorf("best cost diverged: serial %v, parallel %v", serial.Best.Cost, parallel.Best.Cost)
	}
	if serial.Iterations != parallel.Iterations {
		t.Errorf("iterations diverged: serial %d, parallel %d", serial.Iterations, parallel.Iterations)
	}
	if len(serial.CalibSamples) != len(parallel.CalibSamples) {
		t.Fatalf("calibration samples diverged: serial %d, parallel %d",
			len(serial.CalibSamples), len(parallel.CalibSamples))
	}
	for i := range serial.CalibSamples {
		if serial.CalibSamples[i] != parallel.CalibSamples[i] {
			t.Errorf("calibration sample %d diverged: serial %+v, parallel %+v",
				i, serial.CalibSamples[i], parallel.CalibSamples[i])
		}
	}
}

// TestParallelTuneEquivalenceTPCH: the budget-constrained TPC-H session
// and the update+view bench session at Parallelism 2 and 8 must reproduce
// the serial recommendation exactly, at the serial session's economy —
// optimizer calls and §3.3.2 bounds alike.
func TestParallelTuneEquivalenceTPCH(t *testing.T) {
	spineBudget := runSpineSession(t, 1).budget
	sessions := map[string]func(Options) *Tuner{
		"tpch": func(o Options) *Tuner {
			o.NoViews, o.SpaceBudget, o.MaxIterations = true, spineBudget, 40
			return tpchTuner(t, o)
		},
		"update+view": func(o Options) *Tuner {
			o.MaxIterations = 60
			return benchTuner(t, updViewSeed, 0.35, o)
		},
	}
	for name, session := range sessions {
		run := func(parallelism int) (*Result, *obs.Profiler) {
			prof := obs.NewProfiler()
			res, err := session(Options{Parallelism: parallelism, Profile: prof}).Tune()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res, prof
		}
		serial, serialProf := run(1)
		if serial.ParallelWorkers != 1 {
			t.Errorf("%s: serial ParallelWorkers = %d, want 1", name, serial.ParallelWorkers)
		}
		if _, inherited := boundCounts(serialProf); inherited == 0 {
			t.Errorf("%s: no bound inherited", name)
		}
		for _, p := range []int{2, 8} {
			parallel, parallelProf := run(p)
			requireSameOutcome(t, serial, parallel)
			requireSameEconomy(t, serial, parallel, serialProf, parallelProf)
			if parallel.ParallelWorkers != p {
				t.Errorf("%s: ParallelWorkers = %d, want %d", name, parallel.ParallelWorkers, p)
			}
		}
	}
}

// requireSameEconomy asserts that a parallel session does the serial
// session's work: the same optimizer calls and requests, the same plans
// reused and re-optimized, the same bounds computed and inherited.
func requireSameEconomy(t *testing.T, serial, parallel *Result, serialProf, parallelProf *obs.Profiler) {
	t.Helper()
	type economy struct {
		Calls, IndexRequests, ViewRequests int64
		PlansReused, PlansReoptimized      int64
		BoundsComputed, BoundsInherited    int64
	}
	of := func(r *Result, prof *obs.Profiler) economy {
		computed, inherited := boundCounts(prof)
		return economy{
			r.OptimizerCalls, r.IndexRequests, r.ViewRequests,
			r.Economy.PlansReused, r.Economy.PlansReoptimized,
			computed, inherited,
		}
	}
	if s, p := of(serial, serialProf), of(parallel, parallelProf); s != p {
		t.Errorf("economy diverged at %d workers:\n serial   %+v\n parallel %+v", parallel.ParallelWorkers, s, p)
	}
}

// TestParallelTuneEquivalenceUpdates exercises the update path: skyline
// filtering, update-shell recosting, and the cutoff-free search loop all
// under the parallel engine.
func TestParallelTuneEquivalenceUpdates(t *testing.T) {
	db := datagen.TPCH(0.001)
	w, err := workloads.FromStatements("upd-par", "tpch", []string{
		"SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderdate >= 9131 GROUP BY o_orderpriority",
		"SELECT l_shipmode, SUM(l_extendedprice) FROM lineitem WHERE l_shipdate > 9131 GROUP BY l_shipmode",
		"UPDATE lineitem SET l_discount = l_discount + 0.01 WHERE l_shipdate >= 10400",
		"UPDATE orders SET o_totalprice = o_totalprice * 1.05 WHERE o_orderdate >= 10400",
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(parallelism int) *Result {
		tn, err := NewTuner(db, w, Options{NoViews: true, MaxIterations: 40, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		res, err := tn.Tune()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	requireSameOutcome(t, run(1), run(8))
}

// TestParallelEvaluateMatchesSerial: one full-configuration evaluation
// fanned over workers must reduce to the bit-identical weighted cost.
func TestParallelEvaluateMatchesSerial(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true, Parallelism: 1})
	optCfg, err := tn.OptimalConfiguration()
	if err != nil {
		t.Fatal(err)
	}
	serial, err := tn.Evaluate(optCfg)
	if err != nil {
		t.Fatal(err)
	}
	tnP := tpchTuner(t, Options{NoViews: true, Parallelism: 8})
	parallel, err := tnP.Evaluate(optCfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Cost != parallel.Cost {
		t.Errorf("cost diverged: serial %v, parallel %v", serial.Cost, parallel.Cost)
	}
	if serial.SizeBytes != parallel.SizeBytes {
		t.Errorf("size diverged: serial %d, parallel %d", serial.SizeBytes, parallel.SizeBytes)
	}
	if len(serial.Results) != len(parallel.Results) {
		t.Fatalf("result count diverged: %d vs %d", len(serial.Results), len(parallel.Results))
	}
	for i := range serial.Results {
		if serial.Results[i].TotalCost() != parallel.Results[i].TotalCost() {
			t.Errorf("query %d cost diverged: %v vs %v",
				i, serial.Results[i].TotalCost(), parallel.Results[i].TotalCost())
		}
	}
}

// skylineQuadratic is the O(n²) reference the sweep replaced; the
// property test below checks the sweep agrees with it on random inputs.
func skylineQuadratic(cands []candidate) []candidate {
	var out []candidate
	for i, c := range cands {
		dominated := false
		for j, d := range cands {
			if i == j {
				continue
			}
			if d.delta.DT <= c.delta.DT && d.delta.DS >= c.delta.DS &&
				(d.delta.DT < c.delta.DT || d.delta.DS > c.delta.DS) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		return cands
	}
	return out
}

// TestSkylineSweepMatchesQuadratic: random candidate sets — with exact
// ΔT/ΔS ties and duplicates to stress the strictness clause — must
// produce identical survivors in identical order from both filters.
func TestSkylineSweepMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf rankBuffers // reused across trials, as the search reuses it
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(40)
		cands := make([]candidate, n)
		for i := range cands {
			// Small integer-valued grids force frequent exact ties.
			cands[i].delta = Delta{
				DT: float64(rng.Intn(11) - 5),
				DS: int64(rng.Intn(9) - 4),
			}
		}
		want := skylineQuadratic(cands)
		got, pruned := buf.skyline(slices.Clone(cands), true)
		if len(got) != len(want) {
			t.Fatalf("trial %d: sweep kept %d, quadratic kept %d\ncands: %+v",
				trial, len(got), len(want), cands)
		}
		if len(got)+len(pruned) != n {
			t.Fatalf("trial %d: sweep kept %d and pruned %d of %d", trial, len(got), len(pruned), n)
		}
		for i := range want {
			if got[i].delta != want[i].delta {
				t.Fatalf("trial %d: survivor %d differs: sweep %+v, quadratic %+v",
					trial, i, got[i].delta, want[i].delta)
			}
		}
	}
}

// TestOptionsWorkers: the Parallelism knob resolves as documented.
func TestOptionsWorkers(t *testing.T) {
	if w := (Options{Parallelism: 3}).Workers(); w != 3 {
		t.Errorf("Parallelism 3 → %d workers", w)
	}
	if w := (Options{}).Workers(); w < 1 {
		t.Errorf("default workers = %d, want ≥ 1", w)
	}
	if w := (Options{Parallelism: 1}).Workers(); w != 1 {
		t.Errorf("Parallelism 1 → %d workers", w)
	}
}

// goroutineID reads the current goroutine's ID off its stack header
// ("goroutine 12 [running]:") — test-only, to tell inline execution from
// a spawned worker.
func goroutineID() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestFanOutVisitsEveryIndexOnce: whatever the worker count, every index
// is claimed exactly once, results land in the slot of their index, and
// no more than min(workers, n) workers take part.
func TestFanOutVisitsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 3, 8, 2000} {
			visits := make([]atomic.Int32, n)
			out := make([]int, n)
			var maxWorker atomic.Int32
			err := fanOut(nil, "test", workers, n, func(w, i int) bool {
				visits[i].Add(1)
				out[i] = i * i
				for {
					m := maxWorker.Load()
					if int32(w) <= m || maxWorker.CompareAndSwap(m, int32(w)) {
						return true
					}
				}
			})
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			for i := range visits {
				if v := visits[i].Load(); v != 1 {
					t.Errorf("n=%d workers=%d: index %d visited %d times", n, workers, i, v)
				}
				if out[i] != i*i {
					t.Errorf("n=%d workers=%d: out[%d] = %d", n, workers, i, out[i])
				}
			}
			if limit := max(min(workers, n), 1); int(maxWorker.Load()) >= limit {
				t.Errorf("n=%d workers=%d: saw worker %d, want < %d", n, workers, maxWorker.Load(), limit)
			}
		}
	}
}

// TestFanOutInlineAtOneWorker: with one worker or fewer nothing is
// spawned — fn runs on the calling goroutine, in index order. The plain
// int counter would also trip the race detector if that ever changed to
// several goroutines.
func TestFanOutInlineAtOneWorker(t *testing.T) {
	caller := goroutineID()
	for _, workers := range []int{-3, 0, 1} {
		calls := 0
		err := fanOut(nil, "test", workers, 50, func(w, i int) bool {
			if w != 0 || i != calls {
				t.Errorf("workers=%d: call %d got worker %d index %d", workers, calls, w, i)
			}
			if id := goroutineID(); id != caller {
				t.Errorf("workers=%d: fn ran on goroutine %s, caller is %s", workers, id, caller)
			}
			calls++
			return true
		})
		if err != nil || calls != 50 {
			t.Errorf("workers=%d: %d calls, err %v", workers, calls, err)
		}
	}
	// Several workers do leave the calling goroutine: worker 0 runs on it,
	// every other worker on a goroutine of its own. Worker 0 waits in its
	// calls until another worker has made one, which the caller would
	// otherwise race through all 50 indexes before.
	offCaller := make(chan struct{})
	var seen sync.Once
	if err := fanOut(nil, "test", 4, 50, func(w, _ int) bool {
		if on := goroutineID() == caller; on != (w == 0) {
			t.Errorf("4 workers: worker %d ran on the caller: %v", w, on)
		}
		if w != 0 {
			seen.Do(func() { close(offCaller) })
			return true
		}
		select {
		case <-offCaller:
		case <-time.After(10 * time.Second):
			t.Error("4 workers: no call left the calling goroutine")
			return false
		}
		return true
	}); err != nil {
		t.Errorf("4 workers: %v", err)
	}
}

// TestFanOutEarlyStop: fn returning false stops further claims; calls in
// flight finish, nothing is visited twice, and no error is reported.
func TestFanOutEarlyStop(t *testing.T) {
	calls := 0
	if err := fanOut(nil, "test", 1, 100, func(_, i int) bool { calls++; return i < 3 }); err != nil || calls != 4 {
		t.Errorf("inline: %d calls (want 4), err %v", calls, err)
	}
	const n = 1 << 20
	visits := make([]atomic.Int32, n)
	var total, active atomic.Int64
	err := fanOut(nil, "test", 4, n, func(_, i int) bool {
		active.Add(1)
		defer active.Add(-1)
		visits[i].Add(1)
		total.Add(1)
		return i != 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := total.Load(); got >= n {
		t.Errorf("stop at index 10 still visited all %d indices", got)
	}
	if active.Load() != 0 {
		t.Errorf("%d calls still running after fanOut returned", active.Load())
	}
	for i := range visits {
		if v := visits[i].Load(); v > 1 || (i <= 10 && v != 1) {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
}

// TestFanOutPanicBecomesError: a panic in a worker comes back as an
// error naming the phase and the panic value, the other workers stop
// claiming and are waited for, and the process survives — inline and
// spawned alike.
func TestFanOutPanicBecomesError(t *testing.T) {
	const n = 1 << 20
	for _, workers := range []int{1, 4} {
		var total, active atomic.Int64
		err := fanOut(nil, "search/penalty", workers, n, func(_, i int) bool {
			active.Add(1)
			defer active.Add(-1)
			total.Add(1)
			if i == 5 {
				panic("boom")
			}
			return true
		})
		if err == nil {
			t.Fatalf("workers=%d: panic was swallowed", workers)
		}
		if msg := err.Error(); !strings.Contains(msg, "boom") || !strings.Contains(msg, "search/penalty") {
			t.Errorf("workers=%d: error %q does not name the panic value and the phase", workers, msg)
		}
		if got := total.Load(); got >= n {
			t.Errorf("workers=%d: all %d indices visited after the panic", workers, got)
		}
		if active.Load() != 0 {
			t.Errorf("workers=%d: %d calls still running after fanOut returned", workers, active.Load())
		}
	}
}

// TestTuneSurvivesWorkerPanic: a panic inside an evaluation worker ends
// the session with an error from Tune instead of ending the process.
func TestTuneSurvivesWorkerPanic(t *testing.T) {
	tn := tpchTuner(t, Options{NoViews: true, Parallelism: 4})
	tn.Queries[3].Bound = nil // OptimizeFull dereferences it on a worker goroutine
	_, err := tn.Tune()
	if err == nil || !strings.Contains(err.Error(), "panic in evaluate worker") {
		t.Fatalf("Tune() error = %v, want the captured worker panic", err)
	}
}
