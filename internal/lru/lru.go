// Package lru holds the two primitives every cache in the serving stack
// is built from: Cache, an O(1) least-recently-used map, and Flight, one
// computation shared by every concurrent requester. Neither has a lock:
// each owner guards its Cache and flights with the one mutex it already
// holds, so "check the cache, then join or register a flight" stays one
// critical section.
package lru

import (
	"context"
	"iter"
)

// Cache is a map bounded to a capacity: an Add past it evicts the least
// recently used entry. Get and Add make an entry the most recently
// used. Every operation is O(1); none is safe for concurrent use.
type Cache[K comparable, V any] struct {
	cap   int
	items map[K]*entry[K, V]
	root  entry[K, V] // list sentinel: root.next is the most recent entry
}

type entry[K comparable, V any] struct {
	prev, next *entry[K, V]
	key        K
	val        V
}

// New returns an empty Cache of the given capacity (at least 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{cap: max(capacity, 1), items: make(map[K]*entry[K, V])}
	c.Clear()
	return c
}

// Get returns the value cached under k.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	e, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.toFront(e)
	return e.val, true
}

// Add caches v under k, replacing any previous value.
func (c *Cache[K, V]) Add(k K, v V) {
	e, ok := c.items[k]
	if !ok {
		e = &entry[K, V]{key: k}
		c.items[k] = e
	}
	e.val = v
	c.toFront(e)
	if len(c.items) > c.cap {
		c.Remove(c.root.prev.key)
	}
}

// Remove deletes k, reporting whether it was cached.
func (c *Cache[K, V]) Remove(k K) bool {
	e, ok := c.items[k]
	if ok {
		e.prev.next, e.next.prev = e.next, e.prev
		delete(c.items, k)
	}
	return ok
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// All yields the entries from most to least recently used. The Cache
// must not be modified during the iteration.
func (c *Cache[K, V]) All() iter.Seq2[K, V] {
	return func(yield func(K, V) bool) {
		for e := c.root.next; e != &c.root && yield(e.key, e.val); e = e.next {
		}
	}
}

// Clear removes every entry.
func (c *Cache[K, V]) Clear() {
	clear(c.items)
	c.root.prev, c.root.next = &c.root, &c.root
}

// toFront links e, which may be new, as the most recently used entry.
func (c *Cache[K, V]) toFront(e *entry[K, V]) {
	if e.next != nil {
		e.prev.next, e.next.prev = e.next, e.prev
	}
	e.prev, e.next = &c.root, c.root.next
	e.next.prev, c.root.next = e, e
}

// Flight is one computation whose result every concurrent requester
// shares: its creator does the work and calls Finish once, the others
// Wait. An owner caching flights removes a failed one before calling
// Finish, so the error reaches only requesters that already joined.
type Flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewFlight returns an unfinished Flight.
func NewFlight[V any]() *Flight[V] { return &Flight[V]{done: make(chan struct{})} }

// Finish publishes the result and wakes every waiter.
func (f *Flight[V]) Finish(v V, err error) {
	f.val, f.err = v, err
	close(f.done)
}

// Wait returns the result once the flight finishes, or ctx's error if
// ctx is done first: a waiter gives up at its own deadline, not the
// worker's. A finished flight answers even a done ctx.
func (f *Flight[V]) Wait(ctx context.Context) (V, error) {
	if !f.Finished() {
		select {
		case <-f.done:
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	return f.val, f.err
}

// Finished reports whether Finish has been called.
func (f *Flight[V]) Finished() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}
