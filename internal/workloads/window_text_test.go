package workloads

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqlx"
)

// textCorpus is the statement pool the equivalence tests draw from: the
// TPC-H 22, whitespace and case variants of one statement, malformed text,
// and one update.
func textCorpus() []string {
	corpus := TPCH22SQL()
	corpus = append(corpus,
		winStmtA,
		"select o_orderpriority, count(*)\n  from orders\n  where o_orderdate >= 9131\n  group by o_orderpriority",
		"SELECT  o_orderpriority,COUNT(*)  FROM orders WHERE o_orderdate>=9131 GROUP BY o_orderpriority",
		"SELECT O_ORDERPRIORITY, COUNT(*) FROM ORDERS WHERE O_ORDERDATE >= 9131 GROUP BY O_ORDERPRIORITY",
		"\t"+winStmtA+"  ",
		"NOT VALID SQL",
		"SELECT FROM",
		"SELECT l_quantity FROM lineitem WHERE",
		"",
		`UPDATE lineitem SET l_quantity = 7 WHERE l_orderkey = 1`,
	)
	return corpus
}

// randomText draws one statement: mostly from the corpus, otherwise a
// select or update with a fresh literal, so unique-eviction fires.
func randomText(rng *rand.Rand, corpus []string) string {
	switch r := rng.Intn(10); {
	case r < 6:
		return corpus[rng.Intn(len(corpus))]
	case r < 9:
		return fmt.Sprintf("SELECT l_quantity FROM lineitem WHERE l_partkey = %d", rng.Intn(40))
	default:
		return fmt.Sprintf("UPDATE lineitem SET l_quantity = %d WHERE l_orderkey = 2", rng.Intn(10))
	}
}

// windowPair feeds one stream to a window through Observe (the text
// index) and to a reference window through sqlx.Parse + ObserveStatement,
// which never consults the index. Both windows' unique-evictions are
// checked against the scan.
type windowPair struct {
	cached, ref *SlidingWindow
	refErrors   int64             // parse errors the reference path saw
	canonical   map[string]string // text -> Parse(text).SQL(), for the alias check
	oracle      evictionOracle
}

func newWindowPair(opts WindowOptions) *windowPair {
	return &windowPair{
		cached:    NewSlidingWindow("tpch", opts),
		ref:       NewSlidingWindow("tpch", opts),
		canonical: map[string]string{},
	}
}

func (p *windowPair) observe(t testing.TB, text string) {
	t.Helper()
	stmt, perr := sqlx.Parse(text)
	if perr != nil {
		p.refErrors++
	} else {
		p.oracle.arrive(t, p.ref, func() { p.ref.ObserveStatement(stmt) })
		p.canonical[text] = stmt.SQL()
	}
	p.oracle.arrive(t, p.cached, func() {
		if err := p.cached.Observe(text); (err != nil) != (perr != nil) {
			t.Fatalf("Observe(%q) error %v, Parse error %v", text, err, perr)
		}
	})
}

// check asserts that both windows agree on every counter, snapshot entry
// and sketch item, that Size agrees with Stats, and that the text index
// and both eviction heaps keep their invariants.
func (p *windowPair) check(t testing.TB, step int) {
	t.Helper()
	got, want := p.cached.Stats(), p.ref.Stats()
	want.Observed += p.refErrors
	want.ParseErrors = p.refErrors
	// Both sums run over map order, so only these two may differ, and only
	// in the last bits.
	for _, f := range []struct {
		name      string
		got, want *float64
	}{{"TotalWeight", &got.TotalWeight, &want.TotalWeight}, {"SketchWeightShare", &got.SketchWeightShare, &want.SketchWeightShare}} {
		if math.Abs(*f.got-*f.want) > 1e-9*math.Max(1, math.Abs(*f.want)) {
			t.Fatalf("step %d: %s %v, reference %v", step, f.name, *f.got, *f.want)
		}
		*f.got = *f.want
	}
	if got != want {
		t.Fatalf("step %d: stats\n got  %+v\n want %+v", step, got, want)
	}
	if obs, unique := p.cached.Size(); obs != got.InWindow || unique != got.Unique {
		t.Fatalf("step %d: Size %d/%d, Stats %d/%d", step, obs, unique, got.InWindow, got.Unique)
	}

	gs, ws := p.cached.Snapshot(), p.ref.Snapshot()
	if len(gs.Queries) != len(ws.Queries) {
		t.Fatalf("step %d: snapshot holds %d statements, reference %d", step, len(gs.Queries), len(ws.Queries))
	}
	for i, q := range gs.Queries {
		r := ws.Queries[i]
		if q.ID != r.ID || q.SQL != r.SQL || q.Weight != r.Weight || q.Sig != r.Sig || q.Signature() != r.Signature() {
			t.Fatalf("step %d: snapshot query %d\n got  %s %q w=%v sig=%q\n want %s %q w=%v sig=%q",
				step, i, q.ID, q.SQL, q.Weight, q.Sig, r.ID, r.SQL, r.Weight, r.Sig)
		}
	}
	if gi, wi := p.cached.SketchItems(), p.ref.SketchItems(); !reflect.DeepEqual(gi, wi) {
		t.Fatalf("step %d: sketch items\n got  %+v\n want %+v", step, gi, wi)
	}
	checkTextIndex(t, p.cached, p.canonical)
	checkHeap(t, p.cached)
	checkHeap(t, p.ref)
}

// checkTextIndex asserts the text index's invariants: at most one alias
// per in-window observation and per entry observation, and every alias
// resolving to a live entry keyed by its text's canonical SQL.
func checkTextIndex(t testing.TB, w *SlidingWindow, canonical map[string]string) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.byText) > w.inWindow() {
		t.Fatalf("%d aliases for %d observations in the window", len(w.byText), w.inWindow())
	}
	aliases := 0
	for _, e := range w.entries {
		if len(e.aliases) > e.count {
			t.Fatalf("entry %q: %d aliases for %d observations", e.sql, len(e.aliases), e.count)
		}
		for _, text := range e.aliases {
			if w.byText[text] != e {
				t.Fatalf("alias %q of %q does not resolve to its entry", text, e.sql)
			}
		}
		aliases += len(e.aliases)
	}
	if aliases != len(w.byText) {
		t.Fatalf("entries list %d aliases, index holds %d", aliases, len(w.byText))
	}
	for text, e := range w.byText {
		if e.count == 0 || w.entries[e.sql] != e {
			t.Fatalf("alias %q points at a dead entry", text)
		}
		if canonical != nil && canonical[text] != e.sql {
			t.Fatalf("alias %q resolves to %q, parses to %q", text, e.sql, canonical[text])
		}
	}
}

// Observing through the text index is the same function as parse +
// ObserveStatement: every counter, weight, eviction victim, snapshot and
// sketch item agrees after every step, over tiny windows that make every
// eviction path fire; every unique-eviction is the scan's.
func TestWindowTextIndexMatchesReference(t *testing.T) {
	corpus := textCorpus()
	var total evictionOracle
	defer func() {
		t.Logf("%d unique-evictions matched the scan, %d of them a near-tie under decay", total.evictions, total.nearTies)
	}()
	for _, maxObs := range []int{1, 3, 16, 64} {
		for _, maxUnique := range []int{1, 2, 5} {
			for _, halfLife := range []int{0, 3} {
				for _, sketch := range []int{-1, 4} {
					opts := WindowOptions{MaxObservations: maxObs, MaxUnique: maxUnique, HalfLife: halfLife, SketchSize: sketch}
					t.Run(fmt.Sprintf("obs%d-uniq%d-hl%d-sk%d", maxObs, maxUnique, halfLife, sketch), func(t *testing.T) {
						rng := rand.New(rand.NewSource(int64(maxObs*1000 + maxUnique*10 + halfLife + sketch)))
						p := newWindowPair(opts)
						for step := 0; step < 300; step++ {
							p.observe(t, randomText(rng, corpus))
							p.check(t, step)
						}
						total.evictions += p.oracle.evictions
						total.nearTies += p.oracle.nearTies
					})
				}
			}
		}
	}
}

// Snapshot's sort returns what the insertion sort it replaced returned,
// on a full default-size window.
func TestSnapshotOrderMatchesInsertionSort(t *testing.T) {
	const n = 512
	w := NewSlidingWindow("tpch", WindowOptions{MaxUnique: n})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3*n; i++ {
		// Fresh texts and revisits interleave past MaxUnique, so
		// unique-eviction leaves holes in firstAt.
		k := i
		if i%3 != 0 {
			k = rng.Intn(i/3 + 1)
		}
		if err := w.Observe(fmt.Sprintf("SELECT l_quantity FROM lineitem WHERE l_partkey = %d", k)); err != nil {
			t.Fatal(err)
		}
	}
	w.mu.Lock()
	entries := make([]*windowEntry, 0, len(w.entries))
	for _, e := range w.entries {
		entries = append(entries, e)
	}
	w.mu.Unlock()
	if len(entries) != n {
		t.Fatalf("window holds %d entries, want %d", len(entries), n)
	}
	for i := 1; i < len(entries); i++ {
		for j := i; j > 0 && entries[j].firstAt < entries[j-1].firstAt; j-- {
			entries[j], entries[j-1] = entries[j-1], entries[j]
		}
	}
	snap := w.Snapshot()
	if len(snap.Queries) != n {
		t.Fatalf("snapshot holds %d statements, want %d", len(snap.Queries), n)
	}
	for i, q := range snap.Queries {
		if q.SQL != entries[i].sql {
			t.Fatalf("position %d: %q, insertion sort gives %q", i, q.SQL, entries[i].sql)
		}
	}
}

// TestWindowTextIndexConcurrent hammers Observe over shared texts (valid,
// variants, malformed) against concurrent readers; run with -race this
// checks the index is only touched under the lock, and afterwards that
// its invariants hold and no arrival was lost.
func TestWindowTextIndexConcurrent(t *testing.T) {
	w := NewSlidingWindow("tpch", WindowOptions{MaxObservations: 64, MaxUnique: 8, HalfLife: 16})
	corpus := textCorpus()
	const workers, perWorker = 6, 300
	var wg sync.WaitGroup
	var mu sync.Mutex
	rejected := 0
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			bad := 0
			for i := 0; i < perWorker; i++ {
				if w.Observe(randomText(rng, corpus)) != nil {
					bad++
				}
				switch i % 25 {
				case 0:
					_ = w.Snapshot()
				case 1:
					_ = w.Stats()
				case 2:
					_, _ = w.Size()
				}
			}
			mu.Lock()
			rejected += bad
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	st := w.Stats()
	if st.Observed != workers*perWorker || st.ParseErrors != int64(rejected) {
		t.Errorf("observed %d / %d parse errors, want %d / %d", st.Observed, st.ParseErrors, workers*perWorker, rejected)
	}
	if st.InWindow != 64 {
		t.Errorf("in window %d, want 64", st.InWindow)
	}
	w.mu.Lock()
	var texts []string
	for text := range w.byText {
		texts = append(texts, text)
	}
	w.mu.Unlock()
	canonical := map[string]string{}
	for _, text := range texts {
		stmt, err := sqlx.Parse(text)
		if err != nil {
			t.Fatalf("malformed text %q cached", text)
		}
		canonical[text] = stmt.SQL()
	}
	checkTextIndex(t, w, canonical)
}

// FuzzWindowObserve runs the reference comparison over fuzzer-chosen
// statement sequences. Each byte of picks is one arrival: below 128 it
// picks a corpus statement, below 192 a select with that literal, and
// otherwise one of the ';'-separated pieces of extra, which is where the
// fuzzer writes text of its own. The last three bytes pick the window's
// bounds, decay and sketch. Inputs stay small so the fuzzer can minimize.
func FuzzWindowObserve(f *testing.F) {
	corpus := textCorpus()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 8; i++ {
		picks := make([]byte, 48)
		rng.Read(picks)
		extra := corpus[rng.Intn(len(corpus))] + ";" + corpus[rng.Intn(len(corpus))]
		f.Add(picks, extra, uint8(1+i*9), uint8(1+i), uint8(i*37))
	}
	f.Fuzz(func(t *testing.T, picks []byte, extra string, maxObs, maxUnique, mode uint8) {
		if len(picks) > 64 {
			picks = picks[:64]
		}
		pieces := strings.Split(extra, ";")
		p := newWindowPair(WindowOptions{
			MaxObservations: 1 + int(maxObs%64),
			MaxUnique:       1 + int(maxUnique%16),
			HalfLife:        int(mode % 4),
			SketchSize:      []int{-1, 4}[mode>>7],
		})
		for step, b := range picks {
			var text string
			switch {
			case b < 128:
				text = corpus[int(b)%len(corpus)]
			case b < 192:
				text = fmt.Sprintf("SELECT l_quantity FROM lineitem WHERE l_partkey = %d", b-128)
			default:
				text = pieces[int(b-192)%len(pieces)]
			}
			p.observe(t, text)
			p.check(t, step)
		}
	})
}

// BenchmarkWindowObserve times Observe on a default window. repeat draws
// Zipf-distributed from 200 texts the window holds after warm-up, so
// nearly every arrival is one text-index lookup; distinct cycles 4096
// texts through a 512-entry window, so every arrival is new and pays
// parse, render, signature and a unique-eviction; distinct-wide cycles
// 16384 texts through a 4096-entry window, eight times the entries for
// the eviction heap's logarithm.
func BenchmarkWindowObserve(b *testing.B) {
	b.Run("repeat", func(b *testing.B) {
		rng := rand.New(rand.NewSource(7))
		zipf := rand.NewZipf(rng, 1.1, 1, 199)
		texts := make([]string, 4096)
		for i := range texts {
			texts[i] = benchText(int(zipf.Uint64()))
		}
		w := NewSlidingWindow("tpch", WindowOptions{})
		for _, s := range texts {
			_ = w.Observe(s)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = w.Observe(texts[i%len(texts)])
		}
	})
	distinct := func(n, maxUnique int) func(*testing.B) {
		return func(b *testing.B) {
			w, texts := warmDistinct(n, WindowOptions{MaxUnique: maxUnique})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = w.Observe(texts[i%len(texts)])
			}
		}
	}
	b.Run("distinct", distinct(4096, 0))
	b.Run("distinct-wide", distinct(16384, 4096))
}

func benchText(i int) string {
	return fmt.Sprintf("SELECT l_quantity, l_extendedprice FROM lineitem WHERE l_partkey = %d AND l_shipdate > 9131", i)
}

// warmDistinct returns a window that has observed n distinct texts once
// each, and the texts: cycling them again from the first makes every
// arrival new once n exceeds the window's MaxUnique.
func warmDistinct(n int, opts WindowOptions) (*SlidingWindow, []string) {
	texts := make([]string, n)
	for i := range texts {
		texts[i] = benchText(i)
	}
	w := NewSlidingWindow("tpch", opts)
	for _, s := range texts {
		_ = w.Observe(s)
	}
	return w, texts
}
