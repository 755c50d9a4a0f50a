package fleet

import (
	"container/list"
	"sync"

	"repro/internal/core"
)

// DefaultCostCacheCapacity bounds the registry's shared drift-cost
// cache.
const DefaultCostCacheCapacity = 65536

// SharedCostCache is a bounded LRU implementation of service.CostCache:
// it shares drift-probe what-if costs across a fleet of tenants. Keys
// already encode the (catalog fingerprint, configuration fingerprint,
// statement) triple, so entries are only ever reused by tenants in an
// identical tuning state — sharing is correctness-preserving by
// construction, the cache just bounds memory and attributes activity.
type SharedCostCache struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      int64
	misses    int64
	shared    int64
	evictions int64
	origins   map[string]*core.OriginStats
}

// costEntry is one cached what-if cost plus the origin that computed it.
type costEntry struct {
	key    string
	origin string
	cost   float64
}

// NewSharedCostCache returns an empty cache holding at most capacity
// entries (<= 0 = DefaultCostCacheCapacity).
func NewSharedCostCache(capacity int) *SharedCostCache {
	if capacity <= 0 {
		capacity = DefaultCostCacheCapacity
	}
	return &SharedCostCache{
		capacity: capacity,
		ll:       list.New(),
		items:    map[string]*list.Element{},
		origins:  map[string]*core.OriginStats{},
	}
}

// Get implements service.CostCache.
func (c *SharedCostCache) Get(key, origin string) (float64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	os := c.originLocked(origin)
	el, ok := c.items[key]
	if !ok {
		c.misses++
		os.Misses++
		return 0, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*costEntry)
	c.hits++
	os.Hits++
	if e.origin != origin {
		c.shared++
		os.SharedHits++
	}
	return e.cost, true
}

// Put implements service.CostCache.
func (c *SharedCostCache) Put(key, origin string, cost float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*costEntry).cost = cost
		return
	}
	c.items[key] = c.ll.PushFront(&costEntry{key: key, origin: origin, cost: cost})
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*costEntry).key)
		c.evictions++
	}
}

func (c *SharedCostCache) originLocked(origin string) *core.OriginStats {
	os, ok := c.origins[origin]
	if !ok {
		os = &core.OriginStats{}
		c.origins[origin] = os
	}
	return os
}

// CostCacheStats is a point-in-time snapshot of shared cost-cache
// activity.
type CostCacheStats struct {
	Entries  int   `json:"entries"`
	Capacity int   `json:"capacity"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	// SharedHits counts hits on costs another tenant computed.
	SharedHits int64                       `json:"shared_hits"`
	Evictions  int64                       `json:"evictions"`
	Origins    map[string]core.OriginStats `json:"origins,omitempty"`
}

// Stats returns a snapshot of the cache counters.
func (c *SharedCostCache) Stats() CostCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	origins := make(map[string]core.OriginStats, len(c.origins))
	for k, v := range c.origins {
		origins[k] = *v
	}
	return CostCacheStats{
		Entries:    c.ll.Len(),
		Capacity:   c.capacity,
		Hits:       c.hits,
		Misses:     c.misses,
		SharedHits: c.shared,
		Evictions:  c.evictions,
		Origins:    origins,
	}
}
