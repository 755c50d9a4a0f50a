package core

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/physical"
)

// This file is the parallel evaluation engine: one fan-out helper and
// the two search-loop call sites that use it (the third, the §2
// per-query derivation, lives with the rest of §2 in optimal.go). All
// three share one worker budget (Options.Parallelism) and do exactly
// the work the serial algorithm does — a parallel session makes the
// serial session's optimizer calls, spread over more goroutines.
//
//  1. per-query what-if optimization: evalQueriesParallel spreads the
//     workload's queries over the workers; the reentrant optimizer and
//     the mutex-guarded sizer are shared, the §3.3.2 plan-reuse counters
//     are atomic, and the weighted cost is reduced in query order so the
//     total is bit-identical to the serial loop.
//  2. §3.3.2 penalty estimation: precomputeDeltas bounds every untried
//     candidate's (ΔT, ΔS) concurrently — pure arithmetic except for
//     singleflighted CBV computations.
//
// Determinism argument: (1) per-query costs are non-negative, so the
// serial prefix-abort of §3.5 prunes a configuration iff the full
// in-order sum exceeds the cutoff — the parallel path computes all
// results, sums in query order (bit-identical float sequence), and
// applies the same predicate; the cooperative early abort uses a
// relative margin so it can only fire on configurations the
// deterministic check would prune anyway. It is also the one place the
// call economy may differ from the serial run: the serial loop stops at
// the query that crosses the cutoff, the workers stop at whichever
// queries were in flight when the running sum crossed it. (2) candidate
// deltas are independent math: computing them concurrently changes wall
// time, not values.

// fanOut calls fn(worker, i) once for every i in [0, n). Indices are
// claimed from a shared counter, so a worker that finishes early takes
// the next unclaimed index instead of idling behind a fixed chunk. At
// most min(workers, n) workers run: worker 0 on the calling goroutine and
// each other on a goroutine of its own, and fanOut returns when all have
// finished; with one worker or fewer fn runs in index order. fn returns
// false to stop the fan-out: no further index is claimed, calls already
// in flight finish. A panic in fn stops the fan-out the same way and
// comes back as the error — a caller-side recover cannot catch a panic on
// another goroutine, so without this one bad statement would take the
// whole process down. label names the phase in that error and, when
// profiling, in the per-worker "<label>/worker-<w>" phases.
func fanOut(prof *obs.Profiler, label string, workers, n int, fn func(worker, i int) bool) error {
	if workers > n {
		workers = n
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		panicked sync.Once
		err      error
	)
	run := func(w int) {
		defer func() {
			if r := recover(); r != nil {
				stop.Store(true)
				panicked.Do(func() { err = fmt.Errorf("core: panic in %s worker: %v", label, r) })
			}
		}()
		for !stop.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if !fn(w, i) {
				stop.Store(true)
			}
		}
	}
	if workers <= 1 {
		run(0)
		return err
	}
	profiled := func(w int) {
		if prof.Enabled() {
			defer prof.Since(label+"/worker-"+strconv.Itoa(w), time.Now())
		}
		run(w)
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			profiled(w)
		}(w)
	}
	profiled(0)
	wg.Wait()
	return err
}

// atomicFloat is a CAS-looped float64 accumulator for the cooperative
// §3.5 running cost.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) float64 {
	for {
		old := f.bits.Load()
		nv := math.Float64frombits(old) + v
		if f.bits.CompareAndSwap(old, math.Float64bits(nv)) {
			return nv
		}
	}
}

// shortcutMargin pads the cooperative abort threshold so the unordered
// running sum can only trigger a prune the deterministic in-order check
// would also make (float summation order changes the value by parts in
// 1e-13; the margin is orders of magnitude above that and orders of
// magnitude below any meaningful cost difference).
const shortcutMargin = 1e-9

// evalQueriesParallel fans the per-query optimization of one
// configuration over the workers. Result ordering, cost reduction
// order, and the §3.5 prune decision match evalQueriesSerial exactly.
func (t *Tuner) evalQueriesParallel(parent *EvaluatedConfig, cfg *physical.Configuration, removedIdx, removedViews []string, cutoff float64, workers int) (*EvaluatedConfig, bool, error) {
	n := len(t.Queries)
	ec := &EvaluatedConfig{Config: cfg, SizeBytes: t.Opt.Sizer().ConfigBytes(cfg)}
	shortcut := cutoff > 0 && !t.Options.DisableShortcut
	results := make([]*optimizer.QueryResult, n)
	errs := make([]error, n)
	var (
		running atomicFloat
		pruned  atomic.Bool
	)
	label := "evaluate"
	if parent != nil {
		label = "search/evaluate"
	}
	err := fanOut(t.Options.Profile, label, workers, n, func(_, i int) bool {
		res, err := t.evalOneQuery(i, parent, cfg, removedIdx, removedViews)
		if err != nil {
			errs[i] = err
			return false
		}
		results[i] = res
		// Cooperative §3.5 abort: once the running total clearly exceeds
		// the cutoff the remaining queries cannot rescue this
		// configuration.
		if shortcut && running.add(t.Queries[i].Query.Weight*res.TotalCost()) > cutoff*(1+shortcutMargin) {
			pruned.Store(true)
			return false
		}
		return true
	})
	if err != nil {
		return nil, false, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, false, err
		}
	}
	if pruned.Load() {
		return nil, false, nil
	}
	// Deterministic reduction: summing the weighted costs in query order
	// reproduces the serial float sequence bit for bit, and the prune
	// predicate below is exactly the serial one.
	for i, tq := range t.Queries {
		ec.Results = append(ec.Results, results[i])
		ec.Cost += tq.Query.Weight * results[i].TotalCost()
		if shortcut && ec.Cost > cutoff {
			return nil, false, nil
		}
	}
	return ec, true, nil
}

// precomputeDeltas bounds every untried candidate of node that does not
// yet carry a (ΔT, ΔS) estimate, spread across workers, and returns how
// many it bounded. Each worker writes the entries of node.deltas it
// bounds, and no two the same one. Candidates whose bound fails are marked
// tried, exactly as the serial loop does.
func (t *Tuner) precomputeDeltas(node *searchNode, workers int) (int, error) {
	var missing []int
	for i := range node.enum.Trans {
		if !node.tried[i] && !node.deltas[i].known {
			missing = append(missing, i)
		}
	}
	if len(missing) < 2 {
		return 0, nil
	}
	for len(t.scratch) < min(workers, len(missing)) {
		t.scratch = append(t.scratch, physical.NewConfiguration())
	}
	errs := make([]error, len(missing))
	err := fanOut(t.Options.Profile, "search/penalty", workers, len(missing), func(w, k int) bool {
		i := missing[k]
		d, err := t.boundDelta(w, node.eval, node.enum.Trans[i])
		if errs[k] = err; err == nil {
			node.deltas[i] = nodeDelta{d, true}
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	for k, i := range missing {
		if errs[k] != nil {
			node.markTried(i)
		}
	}
	return len(missing), nil
}
