package workloads

import "sort"

// TopKSketch is a space-saving heavy-hitters sketch over statement
// signatures with the window's exponential decay semantics. It holds at
// most k counters; when a new signature arrives at capacity, the lightest
// counter is reassigned to it, inheriting the victim's weight as the
// classical overestimate bound. Weights are stored normalized to the
// sequence number of the last touch and lazily decayed on read, exactly
// like windowEntry, so a 100k-statement stream costs O(k) memory and the
// sketch agrees with the window about what "recent" means.
//
// The sketch is not safe for concurrent use; SlidingWindow serializes
// access under its own mutex.
type TopKSketch struct {
	k     int
	decay float64

	entries map[string]*sketchCounter

	// total is the decayed weight of every observation ever offered,
	// normalized to totalUpd — the denominator for WeightShare.
	total    float64
	totalUpd int64

	evictions int64
}

type sketchCounter struct {
	sig      string
	weight   float64 // normalized to lastUpd
	errBound float64 // overestimate carried from evicted predecessors
	lastUpd  int64
	firstAt  int64
}

// NewTopKSketch returns an empty sketch holding at most k counters with the
// given per-arrival decay factor (1 = no decay).
func NewTopKSketch(k int, decay float64) *TopKSketch {
	if k <= 0 {
		k = 128
	}
	if decay <= 0 || decay > 1 {
		decay = 1
	}
	return &TopKSketch{k: k, decay: decay, entries: make(map[string]*sketchCounter, k)}
}

// Observe credits one arrival of sig at sequence now.
func (s *TopKSketch) Observe(sig string, now int64) {
	s.total = decayed(s.total, s.decay, now-s.totalUpd)
	s.totalUpd = now
	s.total++

	if c, ok := s.entries[sig]; ok {
		c.weight = decayed(c.weight, s.decay, now-c.lastUpd) + 1
		c.errBound = decayed(c.errBound, s.decay, now-c.lastUpd)
		c.lastUpd = now
		return
	}
	if len(s.entries) < s.k {
		s.entries[sig] = &sketchCounter{sig: sig, weight: 1, lastUpd: now, firstAt: now}
		return
	}
	// At capacity: reassign the lightest counter (space-saving). The new
	// signature inherits the victim's decayed weight as its error bound —
	// every count it might have missed is at most that much.
	var victim *sketchCounter
	var victimW float64
	for _, c := range s.entries {
		w := decayed(c.weight, s.decay, now-c.lastUpd)
		if victim == nil || w < victimW || (w == victimW && c.firstAt < victim.firstAt) {
			victim, victimW = c, w
		}
	}
	delete(s.entries, victim.sig)
	s.evictions++
	victim.sig = sig
	victim.weight = victimW + 1
	victim.errBound = victimW
	victim.lastUpd = now
	victim.firstAt = now
	s.entries[sig] = victim
}

// SketchItem is one tracked signature with its decayed weight and the
// overestimate bound inherited from evictions (true weight is within
// [Weight-Error, Weight]).
type SketchItem struct {
	Signature string  `json:"signature"`
	Weight    float64 `json:"weight"`
	Error     float64 `json:"error,omitempty"`
}

// Items returns the tracked signatures as of sequence now, heaviest first
// (ties broken by signature for determinism).
func (s *TopKSketch) Items(now int64) []SketchItem {
	out := make([]SketchItem, 0, len(s.entries))
	for _, c := range s.entries {
		out = append(out, SketchItem{
			Signature: c.sig,
			Weight:    decayed(c.weight, s.decay, now-c.lastUpd),
			Error:     decayed(c.errBound, s.decay, now-c.lastUpd),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Signature < out[j].Signature
	})
	return out
}

// Len returns the number of tracked signatures.
func (s *TopKSketch) Len() int { return len(s.entries) }

// Evictions returns how many counters were reassigned at capacity.
func (s *TopKSketch) Evictions() int64 { return s.evictions }

// WeightShare returns the fraction of the total decayed observation weight
// the tracked counters account for, as of sequence now. 1 means the sketch
// saw every signature; space-saving overestimation can push the raw ratio
// slightly above 1, so it is clamped.
func (s *TopKSketch) WeightShare(now int64) float64 {
	total := decayed(s.total, s.decay, now-s.totalUpd)
	if total <= 0 {
		return 0
	}
	sum := 0.0
	for _, c := range s.entries {
		sum += decayed(c.weight, s.decay, now-c.lastUpd)
	}
	if share := sum / total; share < 1 {
		return share
	}
	return 1
}
