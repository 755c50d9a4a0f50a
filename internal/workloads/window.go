package workloads

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/sqlx"
)

// WindowOptions configure a sliding workload window.
type WindowOptions struct {
	// MaxObservations bounds the window: when a new statement arrives and
	// the window is full, the oldest observation is evicted (0 = default
	// 4096).
	MaxObservations int
	// MaxUnique bounds the number of distinct statements kept; when
	// exceeded, the lightest (lowest current weight) statement is dropped
	// with all its observations (0 = default 512).
	MaxUnique int
	// HalfLife, in observations, makes statement weights decay
	// exponentially with age: an observation HalfLife arrivals old counts
	// half. 0 disables decay (weight = occurrence count).
	HalfLife int
	// SketchSize bounds the signature top-k sketch: the window tracks at
	// most this many statement signatures in a space-saving sketch with the
	// window's decay. 0 = default 128; negative disables the sketch (and
	// signature extraction) entirely.
	SketchSize int
}

func (o WindowOptions) withDefaults() WindowOptions {
	if o.MaxObservations <= 0 {
		o.MaxObservations = 4096
	}
	if o.MaxUnique <= 0 {
		o.MaxUnique = 512
	}
	if o.SketchSize == 0 {
		o.SketchSize = 128
	}
	return o
}

// decayFactor is the per-arrival multiplier implied by HalfLife.
func (o WindowOptions) decayFactor() float64 {
	if o.HalfLife <= 0 {
		return 1
	}
	return math.Exp2(-1 / float64(o.HalfLife))
}

// WindowStats is a point-in-time summary of window activity.
type WindowStats struct {
	Observed      int64 // statements ever observed
	ParseErrors   int64
	InWindow      int // observations currently inside the window
	Unique        int // distinct statements currently inside the window
	EvictedOldest int64
	EvictedUnique int64
	TotalWeight   float64

	// Per-kind split of the stream: cumulative arrivals and current
	// in-window observations (summed over live entries, so wholesale
	// unique-evictions drop out immediately).
	ObservedSelects int64
	ObservedUpdates int64 // UPDATE/INSERT/DELETE — anything that modifies data
	SelectsInWindow int
	UpdatesInWindow int

	// Signature sketch counters; all zero when the sketch is disabled.
	SketchSignatures  int     // signatures currently tracked
	SketchEvictions   int64   // counters reassigned at capacity
	SketchWeightShare float64 // fraction of total decayed weight tracked
}

// windowEntry is one distinct statement inside the window.
type windowEntry struct {
	stmt   sqlx.Statement
	sql    string
	sig    string // canonical signature; empty when the sketch is disabled
	update bool   // statement modifies data
	count  int    // raw observations still in the window
	// weight is the decayed weight normalized to lastUpd; reading it at a
	// later sequence number multiplies by decay^(now-lastUpd).
	weight  float64
	lastUpd int64
	firstAt int64 // arrival order, for stable snapshots and eviction ties
	// key orders the entry in the eviction heap (see heapKey); hidx is
	// its position there.
	key  float64
	hidx int
	// aliases are the raw texts byText resolves to this entry, oldest
	// first; never more than count of them.
	aliases []string
}

// observation is one arrival in the ring: which entry, at which sequence.
type observation struct {
	entry *windowEntry
	seq   int64
}

// SlidingWindow is a concurrent-safe sliding window of observed SQL
// statements with duplicate-statement compression: repeated statements
// collapse into one entry whose weight accumulates (optionally with
// exponential decay), exactly like the batch Compress step — a snapshot of
// the window is a weighted Workload ready for tuning.
type SlidingWindow struct {
	database string
	opts     WindowOptions
	decay    float64

	mu      sync.Mutex
	entries map[string]*windowEntry // keyed by canonical SQL
	// byText indexes live entries by raw statement text, so a text seen
	// before skips parse and render. Every alias points at a live entry
	// whose key is Parse(text).SQL(), leaves with its entry, and an entry
	// holds at most count aliases — so len(byText) ≤ InWindow.
	byText map[string]*windowEntry
	// heap holds every live entry as a binary min-heap under entryLess, so
	// the unique-eviction victim is heap[0].
	heap   []*windowEntry
	ring   []observation // FIFO of in-window observations
	head   int           // index of the oldest observation
	seq    int64         // arrival counter
	sketch *TopKSketch   // nil when disabled

	observed        int64
	parseErrors     int64
	observedSelects int64
	observedUpdates int64
	evictedOldest   int64
	evictedUnique   int64
}

// NewSlidingWindow returns an empty window over the named database.
func NewSlidingWindow(database string, opts WindowOptions) *SlidingWindow {
	o := opts.withDefaults()
	w := &SlidingWindow{
		database: database,
		opts:     o,
		decay:    o.decayFactor(),
		entries:  map[string]*windowEntry{},
		byText:   map[string]*windowEntry{},
	}
	if o.SketchSize > 0 {
		w.sketch = NewTopKSketch(o.SketchSize, w.decay)
	}
	return w
}

// Observe adds one SQL statement to the window. A text the window already
// holds is found in byText and recorded without parsing or rendering it; a
// new text is parsed outside the lock and becomes an alias of the entry it
// resolves to. Malformed text is never cached, so every copy of it is
// parsed and counted as a parse error.
func (w *SlidingWindow) Observe(sql string) error {
	w.mu.Lock()
	if e, ok := w.byText[sql]; ok {
		w.arrive()
		w.record(e)
		w.mu.Unlock()
		return nil
	}
	w.mu.Unlock()

	stmt, err := sqlx.Parse(sql)
	if err != nil {
		w.mu.Lock()
		w.observed++
		w.parseErrors++
		w.mu.Unlock()
		return fmt.Errorf("workloads: window observe: %w", err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.arrive()
	e := w.entryFor(stmt)
	// Another goroutine may have aliased the text since the lookup above;
	// it resolved to this same entry. The alias goes in before record so
	// that record's evictions trim e's aliases against its final count.
	if _, ok := w.byText[sql]; !ok {
		w.byText[sql] = e
		e.aliases = append(e.aliases, sql)
	}
	w.record(e)
	return nil
}

// ObserveStatement adds an already-parsed statement to the window.
// Statements are deduplicated by their canonical SQL rendering, so
// differently formatted copies of the same statement compress together.
func (w *SlidingWindow) ObserveStatement(stmt sqlx.Statement) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.arrive()
	w.record(w.entryFor(stmt))
}

// arrive counts one accepted arrival (mu held).
func (w *SlidingWindow) arrive() {
	w.observed++
	w.seq++
}

// entryFor returns the live entry keyed by stmt's canonical SQL, inserting
// one (and evicting the lightest at MaxUnique) when there is none (mu
// held).
func (w *SlidingWindow) entryFor(stmt sqlx.Statement) *windowEntry {
	key := stmt.SQL()
	if e, ok := w.entries[key]; ok {
		return e
	}
	if len(w.entries) >= w.opts.MaxUnique {
		w.evictLightest()
	}
	e := &windowEntry{stmt: stmt, sql: key, firstAt: w.seq, lastUpd: w.seq}
	e.update = stmt.Kind() != sqlx.StmtSelect
	if w.sketch != nil {
		e.sig = SignatureOf(stmt)
	}
	w.entries[key] = e
	w.heapPush(e)
	return e
}

// record adds the current arrival to e and evicts the oldest observations
// past MaxObservations (mu held).
func (w *SlidingWindow) record(e *windowEntry) {
	if e.update {
		w.observedUpdates++
	} else {
		w.observedSelects++
	}
	e.weight = e.weightAt(w.seq, w.decay) + 1
	e.lastUpd = w.seq
	e.count++
	w.heapFix(e)
	w.ring = append(w.ring, observation{entry: e, seq: w.seq})
	if w.sketch != nil {
		w.sketch.Observe(e.sig, w.seq)
	}

	for w.inWindow() > w.opts.MaxObservations {
		w.evictOldest()
	}
	w.compactRing()
}

// weightAt returns the entry's decayed weight as of sequence now.
func (e *windowEntry) weightAt(now int64, decay float64) float64 {
	if decay >= 1 || now <= e.lastUpd {
		return e.weight
	}
	return e.weight * math.Pow(decay, float64(now-e.lastUpd))
}

// inWindow returns the number of live observations (mu held).
func (w *SlidingWindow) inWindow() int { return len(w.ring) - w.head }

// evictOldest removes the oldest observation (mu held).
func (w *SlidingWindow) evictOldest() {
	if w.head >= len(w.ring) {
		return
	}
	obs := w.ring[w.head]
	w.ring[w.head] = observation{}
	w.head++
	e := obs.entry
	if e.count == 0 {
		return // entry already evicted wholesale by evictLightest
	}
	// Subtract this observation's decayed contribution.
	contribution := 1.0
	if w.decay < 1 {
		contribution = math.Pow(w.decay, float64(w.seq-obs.seq))
	}
	e.weight = e.weightAt(w.seq, w.decay) - contribution
	e.lastUpd = w.seq
	if e.weight < 0 {
		e.weight = 0
	}
	e.count--
	w.evictedOldest++
	w.trimAliases(e, e.count)
	if e.count == 0 {
		delete(w.entries, e.sql)
		w.heapRemove(e)
	} else {
		w.heapFix(e)
	}
}

// trimAliases forgets e's newest aliases until at most keep remain (mu
// held).
func (w *SlidingWindow) trimAliases(e *windowEntry, keep int) {
	for n := len(e.aliases); n > keep; n-- {
		delete(w.byText, e.aliases[n-1])
		e.aliases[n-1] = ""
		e.aliases = e.aliases[:n-1]
	}
}

// evictLightest drops the distinct statement with the smallest current
// weight, the first observed among equals, to make room for a new one
// (mu held; the window is full, so the heap is not empty).
func (w *SlidingWindow) evictLightest() {
	victim := w.heap[0]
	w.heapRemove(victim)
	victim.count = 0
	w.trimAliases(victim, 0)
	delete(w.entries, victim.sql)
	w.evictedUnique++
}

// heapKey is e's eviction key. Without decay it is the weight, an exact
// integer. With decay it is log2 of the weight decayed back to sequence
// 0, log2(weight) + lastUpd/HalfLife: e weighs 2^(key - now/HalfLife) at
// any sequence now, so now cancels between two entries and keys order
// them as their current weights do, neither one re-decayed. A weight
// clamped to 0 keys at -Inf.
func (w *SlidingWindow) heapKey(e *windowEntry) float64 {
	if w.opts.HalfLife <= 0 {
		return e.weight
	}
	return math.Log2(e.weight) + float64(e.lastUpd)/float64(w.opts.HalfLife)
}

// entryLess orders the eviction heap: the lighter entry first and, among
// equal keys, the one observed first.
func entryLess(a, b *windowEntry) bool {
	return a.key < b.key || (a.key == b.key && a.firstAt < b.firstAt)
}

// heapPush adds a new entry to the eviction heap (mu held).
func (w *SlidingWindow) heapPush(e *windowEntry) {
	e.key = w.heapKey(e)
	e.hidx = len(w.heap)
	w.heap = append(w.heap, e)
	w.heapUp(e.hidx)
}

// heapFix rekeys e after its weight or lastUpd changed (mu held).
func (w *SlidingWindow) heapFix(e *windowEntry) {
	e.key = w.heapKey(e)
	if !w.heapDown(e.hidx) {
		w.heapUp(e.hidx)
	}
}

// heapRemove takes e out of the eviction heap (mu held).
func (w *SlidingWindow) heapRemove(e *windowEntry) {
	i, last := e.hidx, len(w.heap)-1
	w.heapSwap(i, last)
	w.heap[last] = nil
	w.heap = w.heap[:last]
	if i < last && !w.heapDown(i) {
		w.heapUp(i)
	}
}

func (w *SlidingWindow) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !entryLess(w.heap[i], w.heap[parent]) {
			return
		}
		w.heapSwap(i, parent)
		i = parent
	}
}

// heapDown sifts the entry at i toward the leaves and reports whether it
// moved.
func (w *SlidingWindow) heapDown(i int) bool {
	start := i
	for {
		child := 2*i + 1
		if child >= len(w.heap) {
			break
		}
		if r := child + 1; r < len(w.heap) && entryLess(w.heap[r], w.heap[child]) {
			child = r
		}
		if !entryLess(w.heap[child], w.heap[i]) {
			break
		}
		w.heapSwap(i, child)
		i = child
	}
	return i > start
}

func (w *SlidingWindow) heapSwap(i, j int) {
	w.heap[i], w.heap[j] = w.heap[j], w.heap[i]
	w.heap[i].hidx = i
	w.heap[j].hidx = j
}

// compactRing drops the leading evicted prefix once it dominates the
// slice, keeping memory proportional to the window (mu held).
func (w *SlidingWindow) compactRing() {
	if w.head > len(w.ring)/2 && w.head > 64 {
		w.ring = append([]observation(nil), w.ring[w.head:]...)
		w.head = 0
	}
}

// Snapshot returns the window contents as a compressed weighted workload,
// in first-observation order. The workload shares no mutable state with
// the window and is safe to tune while ingestion continues.
func (w *SlidingWindow) Snapshot() *Workload {
	w.mu.Lock()
	defer w.mu.Unlock()
	entries := make([]*windowEntry, 0, len(w.entries))
	for _, e := range w.entries {
		if e.count > 0 {
			entries = append(entries, e)
		}
	}
	// Sort by first observation for deterministic output (firstAt is
	// unique: one arrival inserts at most one entry).
	slices.SortFunc(entries, func(a, b *windowEntry) int { return cmp.Compare(a.firstAt, b.firstAt) })
	out := &Workload{Name: "window", Database: w.database}
	for i, e := range entries {
		weight := e.weightAt(w.seq, w.decay)
		if weight <= 0 {
			continue
		}
		out.Queries = append(out.Queries, &Query{
			ID:     fmt.Sprintf("win-q%d", i+1),
			SQL:    e.sql,
			Stmt:   e.stmt,
			Sig:    e.sig,
			Weight: weight,
		})
	}
	return out
}

// Size returns the observations and distinct statements currently in the
// window: Stats' InWindow and Unique without its walk over the entries.
func (w *SlidingWindow) Size() (observations, unique int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.inWindow(), len(w.entries)
}

// Stats returns a snapshot of the window counters.
func (w *SlidingWindow) Stats() WindowStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	s := WindowStats{
		Observed:        w.observed,
		ParseErrors:     w.parseErrors,
		InWindow:        w.inWindow(),
		Unique:          len(w.entries),
		EvictedOldest:   w.evictedOldest,
		EvictedUnique:   w.evictedUnique,
		ObservedSelects: w.observedSelects,
		ObservedUpdates: w.observedUpdates,
	}
	for _, e := range w.entries {
		s.TotalWeight += e.weightAt(w.seq, w.decay)
		if e.update {
			s.UpdatesInWindow += e.count
		} else {
			s.SelectsInWindow += e.count
		}
	}
	if w.sketch != nil {
		s.SketchSignatures = w.sketch.Len()
		s.SketchEvictions = w.sketch.Evictions()
		s.SketchWeightShare = w.sketch.WeightShare(w.seq)
	}
	return s
}

// SketchItems returns the signature sketch contents, heaviest first, or
// nil when the sketch is disabled.
func (w *SlidingWindow) SketchItems() []SketchItem {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sketch == nil {
		return nil
	}
	return w.sketch.Items(w.seq)
}
