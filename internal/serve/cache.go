package serve

import (
	"container/list"
	"context"
	"hash/maphash"
	"sync"
	"time"

	"guardedop/internal/obs"
)

// Cache is a sharded, process-wide cache with size and TTL bounds — the
// serving path's replacement for growing state per request: one instance
// holds the built analyzers (keyed by the resolved parameter set) and
// another holds whole marshaled responses (keyed by the resolved
// request); requestKey builds both keys.
//
// Each shard is an independent LRU guarded by its own mutex, so lookups
// of different keys rarely contend; a key always maps to the same shard
// (seeded maphash). Entries expire TTL after insertion (not after last
// use: a result computed long ago is stale regardless of popularity) and
// the per-shard LRU bound caps total memory at shards × perShardCap
// entries. Hits, misses, expirations and evictions are reported to the
// obs counters carried by the lookup context.
//
// The cache never computes values itself — Get/Put only — so a miss's
// fill policy (coalesced solve, admission control) stays composable
// outside it.
type Cache[V any] struct {
	shards   []cacheShard[V]
	ttl      time.Duration
	perShard int
	seed     maphash.Seed
	now      func() time.Time
}

// cacheShard is one independently locked LRU region.
type cacheShard[V any] struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

// cacheEntry is one cached value with its expiry instant.
type cacheEntry[V any] struct {
	key     string
	val     V
	expires time.Time
}

// CacheConfig bounds a Cache.
type CacheConfig struct {
	// Shards is the number of independently locked regions (default 8,
	// rounded up to at least 1).
	Shards int
	// Capacity bounds the total entry count across all shards (default
	// 256; at least one entry per shard).
	Capacity int
	// TTL is the entry lifetime from insertion (default 5m).
	TTL time.Duration
}

// NewCache builds a sharded cache. Every cache reports to the same
// obs.CtrServeCache* counters (hits, misses, evictions, expirations).
func NewCache[V any](cfg CacheConfig) *Cache[V] {
	if cfg.Shards < 1 {
		cfg.Shards = 8
	}
	if cfg.Capacity < 1 {
		cfg.Capacity = 256
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 5 * time.Minute
	}
	perShard := (cfg.Capacity + cfg.Shards - 1) / cfg.Shards
	c := &Cache[V]{
		shards:   make([]cacheShard[V], cfg.Shards),
		ttl:      cfg.TTL,
		perShard: perShard,
		seed:     maphash.MakeSeed(),
		now:      time.Now,
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*list.Element)
		c.shards[i].order = list.New()
	}
	return c
}

// shard returns the shard owning key.
func (c *Cache[V]) shard(key string) *cacheShard[V] {
	h := maphash.String(c.seed, key)
	return &c.shards[h%uint64(len(c.shards))]
}

// Get returns the live cached value for key. An entry past its TTL is
// removed and reported as expired (and the lookup as a miss).
func (c *Cache[V]) Get(ctx context.Context, key string) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		obs.Count(ctx, obs.CtrServeCacheMisses, 1)
		var zero V
		return zero, false
	}
	e := el.Value.(*cacheEntry[V])
	if c.now().After(e.expires) {
		s.order.Remove(el)
		delete(s.entries, key)
		s.mu.Unlock()
		obs.Count(ctx, obs.CtrServeCacheExpired, 1)
		obs.Count(ctx, obs.CtrServeCacheMisses, 1)
		var zero V
		return zero, false
	}
	s.order.MoveToFront(el)
	val := e.val
	s.mu.Unlock()
	obs.Count(ctx, obs.CtrServeCacheHits, 1)
	return val, true
}

// Put inserts (or refreshes) key with a fresh TTL, evicting the shard's
// least recently used entry beyond capacity.
func (c *Cache[V]) Put(ctx context.Context, key string, val V) {
	s := c.shard(key)
	expires := c.now().Add(c.ttl)
	s.mu.Lock()
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*cacheEntry[V])
		e.val, e.expires = val, expires
		s.order.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.entries[key] = s.order.PushFront(&cacheEntry[V]{key: key, val: val, expires: expires})
	evicted := 0
	for s.order.Len() > c.perShard {
		back := s.order.Back()
		s.order.Remove(back)
		delete(s.entries, back.Value.(*cacheEntry[V]).key)
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		obs.Count(ctx, obs.CtrServeCacheEvictions, int64(evicted))
	}
}

// Len returns the number of resident entries (including any not yet
// observed to be expired).
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}
