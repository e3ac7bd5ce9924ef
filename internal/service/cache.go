package service

import (
	"container/list"
	"sync"

	"mpcgraph"
)

// lru is a bounded least-recently-used map from string keys to
// immutable values, with hit, miss and eviction counters. It backs the
// deterministic result cache (content-addressed cache key to completed
// *Report, see CacheKey) and the resolve memo (instance spec to
// instanceInfo, see memo.go). Values are treated as immutable once
// stored — every consumer of a cached Report (the job views, the
// solution renderer, the trace endpoint) only reads it, so a cache hit
// can hand out the same pointer and still be bit-identical to the cold
// run that produced it.
type lru[V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used

	hits      uint64
	misses    uint64
	evictions uint64
}

type lruEntry[V any] struct {
	key string
	val V
}

// newLRU builds a map bounded to capEntries entries; capEntries < 0
// disables it entirely (every Get misses, Put is a no-op — the daemon
// then recomputes every job).
func newLRU[V any](capEntries int) *lru[V] {
	return &lru[V]{
		cap:     capEntries,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// Get returns the value stored under key, updating recency and the
// hit/miss counters.
func (c *lru[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// Put stores val under key, evicting the least recently used entries
// beyond capacity.
func (c *lru[V]) Put(key string, val V) {
	if c.cap < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Determinism makes any two values under one key bit-identical;
		// keep the first and just refresh recency.
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry[V]{key: key, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry[V]).key)
		c.evictions++
	}
}

// cacheStats is a point-in-time snapshot for /metrics and /healthz.
type cacheStats struct {
	Entries   int
	Capacity  int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

func (c *lru[V]) Stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{
		Entries:   c.order.Len(),
		Capacity:  c.cap,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// CacheTier names where a job's result came from, exposed on the job
// view as cacheTier.
type CacheTier string

const (
	// TierMemory: served from the in-memory LRU (L1).
	TierMemory CacheTier = "memory"
	// TierDisk: recovered from the persistent store (L2) — a restart
	// survivor or an L1 eviction — and promoted back into memory.
	TierDisk CacheTier = "disk"
	// TierNone: computed by this job (or ridden on another job's
	// computation; see the coalesced marker).
	TierNone CacheTier = "none"
)

// tieredCache layers the in-memory LRU (L1) over the persistent disk
// store (L2, optional). Both tiers are content-addressed by the same
// cache key (see CacheKey) and hold bit-identical Reports — L1 trades
// capacity for latency, L2 survives restarts — so a Get may be served
// from either tier with full fidelity. Disk hits are promoted into
// memory; puts write through to both tiers.
type tieredCache struct {
	mem  *lru[*mpcgraph.Report]
	disk *diskStore // nil when the persistent tier is disabled
}

// Get returns the cached Report for key and the tier that served it.
// It may perform disk I/O on an L1 miss; callers on a lock-sensitive
// path should probe memGet under their lock and diskGet outside it.
func (c *tieredCache) Get(key string) (*mpcgraph.Report, CacheTier, bool) {
	if rep, ok := c.memGet(key); ok {
		return rep, TierMemory, true
	}
	if rep, ok := c.diskGet(key); ok {
		return rep, TierDisk, true
	}
	return nil, TierNone, false
}

// memGet probes only the in-memory tier. It never touches the disk, so
// it is safe to call while holding Server.mu.
func (c *tieredCache) memGet(key string) (*mpcgraph.Report, bool) {
	return c.mem.Get(key)
}

// diskGet probes the persistent tier, promoting a hit into memory for
// the next identical submission. It reads the disk — never call it
// while holding Server.mu.
func (c *tieredCache) diskGet(key string) (*mpcgraph.Report, bool) {
	if c.disk == nil {
		return nil, false
	}
	rep, ok := c.disk.Get(key)
	if !ok {
		return nil, false
	}
	c.mem.Put(key, rep)
	return rep, true
}

// Put stores rep in both tiers.
func (c *tieredCache) Put(key string, rep *mpcgraph.Report) {
	c.mem.Put(key, rep)
	if c.disk != nil {
		c.disk.Put(key, rep)
	}
}
