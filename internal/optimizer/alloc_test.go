package optimizer

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/physical"
)

// allocQuery is the workhorse shape for the allocation pins and
// benchmarks: a two-table join with a sargable range, a projection,
// and an ORDER BY, so one Optimize call walks access-path selection,
// join enumeration, and the interesting-order machinery.
const allocQuery = "SELECT r.b, u.x FROM r, u WHERE r.a = u.fk AND r.b < 100 ORDER BY r.b"

// allocJoin3 adds a third table to allocQuery's join, so the DP prices
// several splits per subset and the pins and benchmarks see join
// enumeration's per-split work, not only its one two-table split.
const allocJoin3 = "SELECT r.b, u.x, w.y FROM r, u, w WHERE r.a = u.fk AND u.id = w.uid AND r.b < 100 ORDER BY r.b"

// allocAccess reads one table that several secondary indexes serve
// (multiIndexCfg), so access-path selection prices seeks, covering scans
// and a rid intersection.
const allocAccess = "SELECT a FROM r WHERE b = 7 AND c = 3 ORDER BY a"

// multiIndexCfg is baseCfg plus secondary indexes on r: two that seek
// allocAccess's predicates and one that covers it.
func multiIndexCfg(db *catalog.Database) *physical.Configuration {
	cfg := baseCfg(db)
	cfg.AddIndex(physical.NewIndex("r", []string{"b"}, nil, false))
	cfg.AddIndex(physical.NewIndex("r", []string{"c"}, nil, false))
	cfg.AddIndex(physical.NewIndex("r", []string{"a"}, []string{"b", "c"}, false))
	return cfg
}

// allocCases are the pinned queries, each under its configuration, with
// their allocation ceilings per Optimize call, without and with the §2
// request hooks, each about twice what was measured: headroom for GC
// emptying the optCtx pool mid-measurement. Re-costing calls build the
// returned plan's nodes but no request objects and no per-call maps;
// hooked calls additionally materialize one IndexRequest (plus its
// S/N/O/A slices) per first-seen request.
var allocCases = []struct {
	name          string
	sql           string
	cfg           func(*catalog.Database) *physical.Configuration
	plain, hooked float64
}{
	{name: "join2", sql: allocQuery, cfg: baseCfg, plain: 44, hooked: 68},         // 22 and 34 measured
	{name: "join3", sql: allocJoin3, cfg: baseCfg, plain: 70, hooked: 130},        // 35 and 65 measured
	{name: "access", sql: allocAccess, cfg: multiIndexCfg, plain: 40, hooked: 46}, // 20 and 23 measured
}

// TestOptimizeAllocsPinned pins the allocation count of a single
// what-if Optimize call. The batch scenarios make tens of thousands of
// these calls, so a per-call creep multiplies into the regression the
// alloc_bytes gate catches late; this pin catches it at the unit level.
// The bounds are ceilings with headroom for GC emptying the optCtx
// pool mid-measurement, not exact counts — moving one of them up in a
// change that doesn't intend to touch the hot path deserves a hard
// look.
func TestOptimizeAllocsPinned(t *testing.T) {
	db := testDB(t)
	for _, hooked := range []bool{false, true} {
		name := "no-hooks"
		if hooked {
			name = "with-hooks"
		}
		t.Run(name, func(t *testing.T) {
			for _, c := range allocCases {
				t.Run(c.name, func(t *testing.T) {
					o := New(db)
					var requests int
					ceiling := c.plain
					if hooked {
						o.SetHooks(&Hooks{
							OnIndexRequest: func(req *IndexRequest) { requests++ },
							OnViewRequest:  func(req *ViewRequest) { requests++ },
						})
						ceiling = c.hooked
					}
					q, cfg := mustBind(t, db, c.sql), c.cfg(db)
					mustPlan(t, o, q, cfg) // warm the pool and the per-query block memo
					avg := testing.AllocsPerRun(100, func() {
						if _, err := o.Optimize(q, cfg); err != nil {
							t.Fatal(err)
						}
					})
					if hooked && requests == 0 {
						t.Fatal("hooks installed but no requests fired; the pin is measuring the wrong path")
					}
					if avg > ceiling {
						t.Errorf("Optimize %s allocates %.1f objects per call, ceiling %.0f", name, avg, ceiling)
					}
					t.Logf("Optimize %s: %.1f allocs/call", name, avg)
				})
			}
		})
	}
}

// TestForkPoolSharing proves pooled optimization state never leaks
// across concurrent forked workers: many goroutines repeatedly optimize
// the same bound queries (so every worker keeps drawing previously-used
// scratch contexts from the shared pool) and every result must be
// bit-identical to the serial reference. Each query runs under the base
// configuration and under multiIndexCfg, whose seek legs the pooled
// scratch holds. Run under -race this also checks the pool handoff and
// the per-query block memo for data races.
func TestForkPoolSharing(t *testing.T) {
	db := testDB(t)
	o := New(db)
	cfgs := []*physical.Configuration{baseCfg(db), multiIndexCfg(db)}

	queries := []*BoundQuery{
		mustBind(t, db, allocQuery),
		mustBind(t, db, "SELECT r.c FROM r WHERE r.b < 500 AND r.c = 3"),
		mustBind(t, db, "SELECT r.a, u.x FROM r, u WHERE r.a = u.fk GROUP BY r.a, u.x"),
		mustBind(t, db, allocAccess),
	}
	want := make([]float64, 2*len(queries))
	for i := range want {
		want[i] = mustPlan(t, o, queries[i/2], cfgs[i%2]).Root.TotalCost().Total()
	}

	const workers = 8
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := o.Fork()
			for r := 0; r < rounds; r++ {
				for i := range want {
					p, err := f.Optimize(queries[i/2], cfgs[i%2])
					if err != nil {
						errs <- err
						return
					}
					if got := p.Root.TotalCost().Total(); got != want[i] {
						errs <- fmt.Errorf("worker %d round %d query %d config %d: cost %v, serial reference %v", w, r, i/2, i%2, got, want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// benchOptimize measures one what-if call per allocCases query — the
// unit of work the batch scenarios repeat thousands of times — with hooks
// installed when h is not nil. CI runs it with -benchmem; the allocation
// figures are the per-call view of the alloc_bytes scenario gate.
func benchOptimize(b *testing.B, h *Hooks) {
	db := testDB(b)
	for _, c := range allocCases {
		b.Run(c.name, func(b *testing.B) {
			o := New(db)
			o.SetHooks(h)
			q, cfg := mustBind(b, db, c.sql), c.cfg(db)
			mustPlan(b, o, q, cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.Optimize(q, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOptimize measures plain re-costing calls.
func BenchmarkOptimize(b *testing.B) { benchOptimize(b, nil) }

// BenchmarkOptimizeHooked is BenchmarkOptimize with the §2 request
// hooks installed, covering the request-materialization path the
// tuner's instrumented calls take.
func BenchmarkOptimizeHooked(b *testing.B) {
	benchOptimize(b, &Hooks{
		OnIndexRequest: func(*IndexRequest) {},
		OnViewRequest:  func(*ViewRequest) {},
	})
}

// BenchmarkOptimizeParallel exercises the pooled scratch contexts under
// contention: GOMAXPROCS-many goroutines each optimizing through their
// own Fork, drawing from the shared context pool.
func BenchmarkOptimizeParallel(b *testing.B) {
	db := testDB(b)
	o := New(db)
	cfg := baseCfg(db)
	q := mustBind(b, db, allocQuery)
	mustPlan(b, o, q, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		f := o.Fork()
		for pb.Next() {
			if _, err := f.Optimize(q, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestAllocFixtureCoversAccessPaths guards against the fixture
// drifting into something the pins silently stop covering: the base
// configuration must keep a clustered index per table so seeks, scans,
// and the INL probe path all stay reachable.
func TestAllocFixtureCoversAccessPaths(t *testing.T) {
	db := testDB(t)
	cfg := baseCfg(db)
	for _, tb := range db.Tables() {
		if cfg.ClusteredOn(tb.Name) == nil {
			t.Errorf("fixture table %s has no clustered index; the alloc pins would measure a degenerate plan space", tb.Name)
		}
	}
}
