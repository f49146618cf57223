// coalesce.go implements request coalescing for the hot probe
// endpoints: identical (prepared-query, window) requests in flight at
// once share one probe + encode, and recently produced bodies are
// served straight from a small cache.
//
// Both are one internal/lru Cache of single-flight results: a request
// joins its window's flight, or reads the body if it has finished. A
// joiner waits only until its own deadline, and a failed fill is shared
// with its joiners but never cached.
//
// Correctness hinges on the key: it embeds the registration generation
// AND the handle's epoch version, so a cached body can never outlive
// its epoch — a write publishes a new version, new requests form new
// keys, and entries for dead epochs simply age out of the LRU. No
// invalidation hook is needed, which is the point of keying by
// immutable epochs instead of mutable names.
package serve

import (
	"cmp"
	"context"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"rankedaccess/internal/engine"
	"rankedaccess/internal/lru"
	"rankedaccess/internal/trace"
)

// defaultCoalesceCache bounds cached response bodies. Entries are hot
// ranked windows (a leaderboard page, a dashboard's top-k); 256 bodies
// of a few KB each is plenty and bounded.
const defaultCoalesceCache = 256

type coalescer struct {
	mu    sync.Mutex
	cache *lru.Cache[coalKey, *lru.Flight[[]byte]] // nil: coalescing off

	hits   atomic.Uint64
	misses atomic.Uint64
}

// newCoalescer keeps max bodies: 0 means defaultCoalesceCache, and a
// negative max turns coalescing off.
func newCoalescer(max int) *coalescer {
	if max < 0 {
		return &coalescer{}
	}
	return &coalescer{cache: lru.New[coalKey, *lru.Flight[[]byte]](cmp.Or(max, defaultCoalesceCache))}
}

// do returns the encoded response body for key, invoking fill at most
// once across all concurrent identical requests (every time when
// coalescing is off).
func (c *coalescer) do(ctx context.Context, key coalKey, fill func() ([]byte, error)) ([]byte, error) {
	if c.cache == nil {
		return fill()
	}
	c.mu.Lock()
	if fl, ok := c.cache.Get(key); ok {
		c.mu.Unlock()
		kind := "joined"
		if fl.Finished() {
			kind = "cached"
		}
		c.hits.Add(1)
		trace.FromContext(ctx).AddEvent("coalesce.hit", trace.Str("kind", kind))
		return fl.Wait(ctx)
	}
	fl := lru.NewFlight[[]byte]()
	c.cache.Add(key, fl)
	c.mu.Unlock()

	c.misses.Add(1)
	trace.FromContext(ctx).AddEvent("coalesce.miss")
	body, err := fill()
	if err != nil {
		c.mu.Lock()
		if cur, ok := c.cache.Get(key); ok && cur == fl {
			c.cache.Remove(key)
		}
		c.mu.Unlock()
	}
	fl.Finish(body, err)
	return body, err
}

// coalKey is the identity of one probe window: endpoint, registration
// (name AND generation — a re-registered name must not hit the old
// name's cache), epoch version, then the window. A range and a
// single-index access key on k0 (and k1) without allocating; only a
// batch of any other length packs its indices into ks.
type coalKey struct {
	op      string
	id      engine.PreparedID
	version uint64
	k0, k1  int64
	ks      string
}

// accessKey keys an /access window.
func accessKey(id engine.PreparedID, version uint64, ks []int64) coalKey {
	if len(ks) == 1 {
		return coalKey{op: "access", id: id, version: version, k0: ks[0]}
	}
	b := make([]byte, 0, 8*len(ks))
	for _, k := range ks {
		b = binary.LittleEndian.AppendUint64(b, uint64(k))
	}
	return coalKey{op: "batch", id: id, version: version, ks: string(b)}
}

// rangeKey keys a /range window.
func rangeKey(id engine.PreparedID, version uint64, k0, k1 int64) coalKey {
	return coalKey{op: "range", id: id, version: version, k0: k0, k1: k1}
}
