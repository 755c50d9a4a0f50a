package workloads

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sqlx"
)

// With k at least the number of distinct signatures, the sketch is exact.
func TestSketchExactWithinCapacity(t *testing.T) {
	s := NewTopKSketch(8, 1)
	var now int64
	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		sig := fmt.Sprintf("sig-%d", i%5)
		now++
		s.Observe(sig, now)
		counts[sig]++
	}
	if s.Evictions() != 0 {
		t.Fatalf("evictions within capacity: %d", s.Evictions())
	}
	for _, item := range s.Items(now) {
		if item.Error != 0 {
			t.Errorf("%s: error bound %v without evictions", item.Signature, item.Error)
		}
		if want := float64(counts[item.Signature]); item.Weight != want {
			t.Errorf("%s: weight %v, want %v", item.Signature, item.Weight, want)
		}
	}
	if share := s.WeightShare(now); share != 1 {
		t.Errorf("weight share %v, want 1 within capacity", share)
	}
}

// Space-saving invariant: tracked weights never undercount the true
// frequency, and the error bound caps the overcount.
func TestSketchOverestimateBound(t *testing.T) {
	s := NewTopKSketch(4, 1)
	var now int64
	counts := map[string]int{}
	// A skewed stream: two heavy signatures, a churning tail.
	for i := 0; i < 2000; i++ {
		var sig string
		switch {
		case i%3 == 0:
			sig = "heavy-a"
		case i%3 == 1:
			sig = "heavy-b"
		default:
			sig = fmt.Sprintf("tail-%d", i%17)
		}
		now++
		s.Observe(sig, now)
		counts[sig]++
	}
	if s.Evictions() == 0 {
		t.Fatal("expected evictions at k=4 with 19 distinct signatures")
	}
	for _, item := range s.Items(now) {
		truth := float64(counts[item.Signature])
		if item.Weight < truth {
			t.Errorf("%s: weight %v undercounts true %v", item.Signature, item.Weight, truth)
		}
		if item.Weight-item.Error > truth {
			t.Errorf("%s: weight %v - error %v exceeds true %v", item.Signature, item.Weight, item.Error, truth)
		}
	}
	// The two heavy hitters must survive the churn.
	items := s.Items(now)
	if items[0].Signature != "heavy-a" && items[0].Signature != "heavy-b" {
		t.Errorf("heaviest tracked is %s", items[0].Signature)
	}
}

// Decay semantics match the window's: a signature last seen d arrivals ago
// weighs decay^d of its normalized weight.
func TestSketchDecay(t *testing.T) {
	const halfLife = 16
	decay := math.Exp2(-1.0 / halfLife)
	s := NewTopKSketch(8, decay)
	var now int64
	for i := 0; i < 8; i++ {
		now++
		s.Observe("old", now)
	}
	weightThen := s.Items(now)[0].Weight
	for i := 0; i < halfLife; i++ {
		now++
		s.Observe("new", now)
	}
	items := s.Items(now)
	var oldW float64
	for _, it := range items {
		if it.Signature == "old" {
			oldW = it.Weight
		}
	}
	if want := weightThen / 2; math.Abs(oldW-want) > 1e-9 {
		t.Errorf("decayed weight %v, want %v", oldW, want)
	}
}

// The window feeds the sketch and reports its counters through Stats.
func TestWindowSketchIntegration(t *testing.T) {
	w := NewSlidingWindow("tpch", WindowOptions{SketchSize: 4})
	sqls := []string{
		`SELECT l_quantity FROM lineitem WHERE l_partkey = %d`,
		`SELECT l_quantity FROM lineitem WHERE l_suppkey = %d`,
		`UPDATE lineitem SET l_quantity = %d WHERE l_orderkey = 1`,
	}
	for i := 0; i < 300; i++ {
		if err := w.Observe(fmt.Sprintf(sqls[i%3], i)); err != nil {
			t.Fatal(err)
		}
	}
	stats := w.Stats()
	if stats.SketchSignatures != 3 {
		t.Errorf("sketch signatures %d, want 3", stats.SketchSignatures)
	}
	if stats.SketchWeightShare != 1 {
		t.Errorf("weight share %v, want 1 (3 signatures, k=4)", stats.SketchWeightShare)
	}
	if stats.SketchEvictions != 0 {
		t.Errorf("evictions %d, want 0", stats.SketchEvictions)
	}
	if stats.ObservedSelects != 200 || stats.ObservedUpdates != 100 {
		t.Errorf("per-kind observed %d/%d, want 200/100", stats.ObservedSelects, stats.ObservedUpdates)
	}
	if stats.SelectsInWindow != 200 || stats.UpdatesInWindow != 100 {
		t.Errorf("per-kind in window %d/%d, want 200/100", stats.SelectsInWindow, stats.UpdatesInWindow)
	}
	items := w.SketchItems()
	if len(items) != 3 {
		t.Fatalf("got %d sketch items, want 3", len(items))
	}
	// 300 observations split 100/100/100 across three signatures.
	for _, it := range items {
		if it.Weight != 100 {
			t.Errorf("%s: weight %v, want 100", it.Signature, it.Weight)
		}
	}
}

// A disabled sketch keeps the window silent about signatures.
func TestWindowSketchDisabled(t *testing.T) {
	w := NewSlidingWindow("tpch", WindowOptions{SketchSize: -1})
	for i := 0; i < 10; i++ {
		if err := w.Observe(winStmtA); err != nil {
			t.Fatal(err)
		}
	}
	stats := w.Stats()
	if stats.SketchSignatures != 0 || stats.SketchEvictions != 0 || stats.SketchWeightShare != 0 {
		t.Errorf("disabled sketch reported activity: %+v", stats)
	}
	if w.SketchItems() != nil {
		t.Error("disabled sketch returned items")
	}
}

// Satellite: evictLightest + compactRing interaction under heavy duplicate
// churn. Total weight stays conserved against an exact recount, the ring
// head stays valid, and the sketch agrees with exact per-signature counts
// at small k.
func TestWindowChurnEvictionInvariants(t *testing.T) {
	const (
		maxObs    = 64
		maxUnique = 8
		churn     = 5000
	)
	w := NewSlidingWindow("tpch", WindowOptions{
		MaxObservations: maxObs,
		MaxUnique:       maxUnique,
		SketchSize:      4,
	})
	// 24 distinct statements over 3 signature shapes, revisited in a
	// skewed pattern so dedupe, unique-eviction, and ring eviction all
	// fire constantly.
	shapes := []string{
		`SELECT l_quantity FROM lineitem WHERE l_partkey = %d`,
		`SELECT l_quantity FROM lineitem WHERE l_suppkey > %d`,
		`UPDATE lineitem SET l_quantity = %d WHERE l_orderkey = 2`,
	}
	for i := 0; i < churn; i++ {
		shape := shapes[i%len(shapes)]
		lit := (i * i) % 8 // duplicates: only 8 literals per shape
		if err := w.Observe(fmt.Sprintf(shape, lit)); err != nil {
			t.Fatal(err)
		}

		if i%97 == 0 {
			stats := w.Stats()
			if stats.InWindow > maxObs {
				t.Fatalf("iter %d: %d observations in window, cap %d", i, stats.InWindow, maxObs)
			}
			if stats.Unique > maxUnique {
				t.Fatalf("iter %d: %d unique, cap %d", i, stats.Unique, maxUnique)
			}
			// Weight conservation: the reported total must equal the sum
			// over live entries of their decayed weights, recomputed via a
			// fresh snapshot (undecayed here, so weights are counts).
			snap := w.Snapshot()
			sum := 0.0
			for _, q := range snap.Queries {
				sum += q.Weight
			}
			if math.Abs(sum-stats.TotalWeight) > 1e-6 {
				t.Fatalf("iter %d: snapshot weight %v != stats weight %v", i, sum, stats.TotalWeight)
			}
			if stats.SelectsInWindow+stats.UpdatesInWindow > stats.InWindow {
				t.Fatalf("iter %d: per-kind counts %d+%d exceed in-window %d",
					i, stats.SelectsInWindow, stats.UpdatesInWindow, stats.InWindow)
			}
		}
	}

	// Ring head validity: every live observation must point at a live entry
	// and the window must still accept and surface new statements.
	if err := w.Observe(`SELECT l_tax FROM lineitem WHERE l_returnflag = 'R'`); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, q := range w.Snapshot().Queries {
		if q.SQL == `SELECT l_tax FROM lineitem WHERE l_returnflag = 'R'` {
			found = true
		}
	}
	if !found {
		t.Fatal("statement observed after churn missing from snapshot")
	}

	// Sketch vs exact: replay the same stream into an exact counter keyed
	// by signature. At k=4 with 4 live signatures the sketch's tracked
	// weights must match the exact cumulative counts (space-saving is
	// exact while distinct ≤ k, regardless of window evictions).
	exact := map[string]float64{}
	for i := 0; i < churn; i++ {
		shape := shapes[i%len(shapes)]
		stmt, err := sqlx.Parse(fmt.Sprintf(shape, (i*i)%8))
		if err != nil {
			t.Fatal(err)
		}
		exact[SignatureOf(stmt)]++
	}
	stmt, _ := sqlx.Parse(`SELECT l_tax FROM lineitem WHERE l_returnflag = 'R'`)
	exact[SignatureOf(stmt)]++
	for _, it := range w.SketchItems() {
		if want := exact[it.Signature]; it.Weight != want {
			t.Errorf("sketch %s: weight %v, exact %v", it.Signature, it.Weight, want)
		}
	}
	if got := w.Stats().SketchSignatures; got != len(exact) {
		t.Errorf("sketch tracks %d signatures, exact has %d", got, len(exact))
	}
}

// The duplicate-observation path must not allocate: introspection disabled
// or enabled, re-observing a text the window already holds is pinned at
// zero allocations (ring capacity pre-warmed so append never grows mid-run).
func TestObserveDuplicateZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		sketch int
	}{
		{"introspection-disabled", -1},
		{"introspection-enabled", 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewSlidingWindow("tpch", WindowOptions{
				MaxObservations: 1 << 20, // never evict or compact mid-run
				HalfLife:        64,
				SketchSize:      tc.sketch,
			})
			for i := 0; i < 8192; i++ { // grow ring capacity past the measured runs
				if err := w.Observe(winStmtA); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(1000, func() {
				_ = w.Observe(winStmtA)
			})
			if allocs != 0 {
				t.Errorf("duplicate observe: %v allocs/run, want 0", allocs)
			}
		})
	}
}
