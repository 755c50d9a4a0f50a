package workloads

import (
	"fmt"
	"math"
	"testing"
)

// lightestByScan is the linear scan the eviction heap replaced: the live
// entry with the smallest weight at sequence now, the first observed
// among equals. It is the oracle the heap's victims are checked against.
func lightestByScan(entries map[string]*windowEntry, now int64, decay float64) *windowEntry {
	var victim *windowEntry
	for _, e := range entries {
		if e.count == 0 {
			continue
		}
		ew := e.weightAt(now, decay)
		if victim == nil || ew < victim.weightAt(now, decay) ||
			(ew == victim.weightAt(now, decay) && e.firstAt < victim.firstAt) {
			victim = e
		}
	}
	return victim
}

// checkHeap asserts the eviction heap's invariants: it holds exactly the
// live entries, each knows its position, every parent orders before its
// children under (key, firstAt), and every key is the one its weight and
// lastUpd give.
func checkHeap(t testing.TB, w *SlidingWindow) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.heap) != len(w.entries) {
		t.Fatalf("heap holds %d entries, window %d", len(w.heap), len(w.entries))
	}
	for i, e := range w.heap {
		if e.hidx != i {
			t.Fatalf("heap[%d] %q records position %d", i, e.sql, e.hidx)
		}
		if w.entries[e.sql] != e {
			t.Fatalf("heap[%d] %q is not a live entry", i, e.sql)
		}
		want := e.weight
		if w.opts.HalfLife > 0 {
			want = math.Log2(e.weight) + float64(e.lastUpd)/float64(w.opts.HalfLife)
		}
		if e.key != want {
			t.Fatalf("heap[%d] %q: key %v, weight %v at %d gives %v", i, e.sql, e.key, e.weight, e.lastUpd, want)
		}
		if i > 0 {
			p := w.heap[(i-1)/2]
			if p.key > e.key || (p.key == e.key && p.firstAt > e.firstAt) {
				t.Fatalf("heap[%d] (key %v, first %d) orders after its child heap[%d] (key %v, first %d)",
					(i-1)/2, p.key, p.firstAt, i, e.key, e.firstAt)
			}
		}
	}
}

// evictionOracle checks every unique-eviction against lightestByScan over
// the window as it stood before the arrival. Without decay the heap must
// evict the scan's entry; with decay another entry is accepted only when
// it weighed the same as the scan's within 1e-12 relative — two keys a
// rounding apart — and counted in nearTies.
type evictionOracle struct {
	evictions, nearTies int
}

func (o *evictionOracle) arrive(t testing.TB, w *SlidingWindow, observe func()) {
	t.Helper()
	w.mu.Lock()
	now := w.seq + 1 // the arrival's sequence, at which its insert evicts
	scan := lightestByScan(w.entries, now, w.decay)
	var root *windowEntry
	var rootW, scanW float64
	if scan != nil {
		root = w.heap[0]
		rootW, scanW = root.weightAt(now, w.decay), scan.weightAt(now, w.decay)
	}
	before := w.evictedUnique
	w.mu.Unlock()

	observe()

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.evictedUnique == before {
		return
	}
	o.evictions++
	if root.count != 0 || w.entries[root.sql] == root {
		t.Fatalf("seq %d: a unique-eviction left the heap root %q live", now, root.sql)
	}
	if root == scan {
		return
	}
	if w.opts.HalfLife > 0 && math.Abs(rootW-scanW) <= 1e-12*math.Abs(scanW) {
		o.nearTies++
		return
	}
	t.Fatalf("seq %d: evicted %q (weight %v, first %d), the scan picks %q (weight %v, first %d)",
		now, root.sql, rootW, root.firstAt, scan.sql, scanW, scan.firstAt)
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// A new statement allocates no more with the eviction heap than it did
// under the scan: 49 allocations with the sketch off and 75 with it on,
// measured before the heap, on a full default window, with and without
// decay. A repeated one stays at zero (TestObserveDuplicateZeroAlloc).
func TestObserveDistinctAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool drops items at random, so fmt's printers are reallocated and the count is not the build's")
	}
	for _, tc := range []struct {
		sketch   int
		halfLife int
		max      float64
	}{{-1, 0, 49}, {-1, 64, 49}, {0, 0, 75}, {0, 64, 75}} {
		t.Run(fmt.Sprintf("sk%d-hl%d", tc.sketch, tc.halfLife), func(t *testing.T) {
			w, texts := warmDistinct(4096, WindowOptions{HalfLife: tc.halfLife, SketchSize: tc.sketch})
			i := 0
			allocs := testing.AllocsPerRun(2000, func() {
				_ = w.Observe(texts[i%len(texts)])
				i++
			})
			if allocs > tc.max {
				t.Errorf("distinct observe: %v allocs/run, want at most %v", allocs, tc.max)
			}
		})
	}
}
