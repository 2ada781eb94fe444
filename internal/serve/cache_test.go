package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"guardedop/internal/obs"
)

// testCache builds a cache wired to a fresh tracer, returning both plus
// a traced context and a settable clock.
func testCache(cfg CacheConfig) (*Cache[int], *obs.Tracer, context.Context, *time.Time) {
	tr := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tr)
	c := NewCache[int](cfg)
	now := time.Unix(1_700_000_000, 0)
	clock := &now
	c.now = func() time.Time { return *clock }
	return c, tr, ctx, clock
}

func TestCacheHitMissCounters(t *testing.T) {
	t.Parallel()
	c, tr, ctx, _ := testCache(CacheConfig{Shards: 2, Capacity: 8})
	if _, ok := c.Get(ctx, "a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(ctx, "a", 1)
	v, ok := c.Get(ctx, "a")
	if !ok || v != 1 {
		t.Fatalf("Get(a) = (%d, %v), want (1, true)", v, ok)
	}
	ctrs := tr.Counters()
	if ctrs[obs.CtrServeCacheHits] != 1 || ctrs[obs.CtrServeCacheMisses] != 1 {
		t.Errorf("counters = hits %d misses %d, want 1/1", ctrs[obs.CtrServeCacheHits], ctrs[obs.CtrServeCacheMisses])
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	t.Parallel()
	c, tr, ctx, clock := testCache(CacheConfig{Shards: 1, Capacity: 8, TTL: time.Minute})
	c.Put(ctx, "a", 1)
	*clock = clock.Add(59 * time.Second)
	if _, ok := c.Get(ctx, "a"); !ok {
		t.Fatal("entry expired before its TTL")
	}
	*clock = clock.Add(2 * time.Second) // 61s from insertion
	if _, ok := c.Get(ctx, "a"); ok {
		t.Fatal("entry survived past its TTL")
	}
	if c.Len() != 0 {
		t.Errorf("expired entry still resident: Len() = %d", c.Len())
	}
	ctrs := tr.Counters()
	if ctrs[obs.CtrServeCacheExpired] != 1 {
		t.Errorf("expired counter = %d, want 1", ctrs[obs.CtrServeCacheExpired])
	}
	// TTL runs from insertion, not last touch: a popular entry still dies.
	c.Put(ctx, "b", 2)
	for i := 0; i < 5; i++ {
		*clock = clock.Add(20 * time.Second)
		_, ok := c.Get(ctx, "b")
		if want := (i+1)*20 <= 60; ok != want {
			t.Fatalf("%ds after insertion: Get(b) ok=%v, want %v", (i+1)*20, ok, want)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	t.Parallel()
	c, tr, ctx, _ := testCache(CacheConfig{Shards: 1, Capacity: 3, TTL: time.Hour})
	for i := 0; i < 3; i++ {
		c.Put(ctx, fmt.Sprintf("k%d", i), i)
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := c.Get(ctx, "k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.Put(ctx, "k3", 3)
	if _, ok := c.Get(ctx, "k1"); ok {
		t.Error("LRU victim k1 still cached")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(ctx, k); !ok {
			t.Errorf("%s evicted, want resident", k)
		}
	}
	if got := tr.Counters()[obs.CtrServeCacheEvictions]; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
	if c.Len() != 3 {
		t.Errorf("Len() = %d, want 3", c.Len())
	}
}

func TestCachePutRefreshes(t *testing.T) {
	t.Parallel()
	c, _, ctx, clock := testCache(CacheConfig{Shards: 1, Capacity: 4, TTL: time.Minute})
	c.Put(ctx, "a", 1)
	*clock = clock.Add(50 * time.Second)
	c.Put(ctx, "a", 2) // refresh restarts the TTL
	*clock = clock.Add(30 * time.Second)
	v, ok := c.Get(ctx, "a")
	if !ok || v != 2 {
		t.Fatalf("refreshed Get(a) = (%d, %v), want (2, true)", v, ok)
	}
	if c.Len() != 1 {
		t.Errorf("refresh duplicated the entry: Len() = %d", c.Len())
	}
}

// TestCacheShardedConcurrency hammers a multi-shard cache from many
// goroutines; run under -race it proves the sharded locking sound, and
// the final accounting proves no operations were lost.
func TestCacheShardedConcurrency(t *testing.T) {
	t.Parallel()
	c, tr, ctx, _ := testCache(CacheConfig{Shards: 4, Capacity: 32, TTL: time.Hour})
	const workers, ops, keys = 8, 500, 48
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := fmt.Sprintf("k%d", (w+i)%keys)
				if v, ok := c.Get(ctx, k); ok {
					if want := (w + i) % keys; v != want {
						t.Errorf("Get(%s) = %d, want %d", k, v, want)
					}
				} else {
					c.Put(ctx, k, (w+i)%keys)
				}
			}
		}(w)
	}
	wg.Wait()
	ctrs := tr.Counters()
	total := ctrs[obs.CtrServeCacheHits] + ctrs[obs.CtrServeCacheMisses]
	if total != workers*ops {
		t.Errorf("hits+misses = %d, want %d", total, workers*ops)
	}
	if c.Len() > 32 {
		t.Errorf("Len() = %d exceeds capacity 32", c.Len())
	}
}
