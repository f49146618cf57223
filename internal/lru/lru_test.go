package lru

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

// keys lists the cache's keys from most to least recently used.
func keys[K comparable, V any](c *Cache[K, V]) []K {
	var out []K
	for k := range c.All() {
		out = append(out, k)
	}
	return out
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](3)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("c", 3)
	c.Add("d", 4) // evicts a
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived past capacity")
	}
	if got, want := keys(c), []string{"d", "c", "b"}; !slices.Equal(got, want) {
		t.Fatalf("recency order %v, want %v", got, want)
	}
	c.Add("b", 20) // replacing refreshes too
	c.Add("e", 5)  // evicts c
	if got, want := keys(c), []string{"e", "b", "d"}; !slices.Equal(got, want) {
		t.Fatalf("recency order %v, want %v", got, want)
	}
	if v, _ := c.Get("b"); v != 20 {
		t.Fatalf("b = %d, want the replacement 20", v)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

func TestGetRefreshesRecency(t *testing.T) {
	c := New[int, string](2)
	c.Add(1, "one")
	c.Add(2, "two")
	if v, ok := c.Get(1); !ok || v != "one" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	c.Add(3, "three") // 2 is now least recently used
	if _, ok := c.Get(2); ok {
		t.Fatal("2 survived although 1 was used after it")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("recently read 1 was evicted")
	}
}

func TestRemoveAndClear(t *testing.T) {
	c := New[int, int](4)
	for i := range 4 {
		c.Add(i, i)
	}
	if !c.Remove(2) || c.Remove(2) {
		t.Fatal("Remove should report true once, then false")
	}
	if got, want := keys(c), []int{3, 1, 0}; !slices.Equal(got, want) {
		t.Fatalf("after Remove %v, want %v", got, want)
	}
	c.Add(4, 4)
	c.Add(5, 5) // the removed slot is free again: only 0 is evicted
	if got, want := keys(c), []int{5, 4, 3, 1}; !slices.Equal(got, want) {
		t.Fatalf("after refill %v, want %v", got, want)
	}
	c.Clear()
	if c.Len() != 0 || len(keys(c)) != 0 {
		t.Fatalf("Clear left %v", keys(c))
	}
	c.Add(9, 9)
	if got := keys(c); !slices.Equal(got, []int{9}) {
		t.Fatalf("Add after Clear = %v", got)
	}
}

func TestCapacityOne(t *testing.T) {
	for _, capacity := range []int{1, 0, -3} { // below 1 means 1
		c := New[string, int](capacity)
		c.Add("a", 1)
		c.Add("b", 2)
		if got := keys(c); !slices.Equal(got, []string{"b"}) {
			t.Fatalf("capacity %d: %v, want [b]", capacity, got)
		}
		c.Add("b", 3)
		if v, ok := c.Get("b"); !ok || v != 3 || c.Len() != 1 {
			t.Fatalf("capacity %d: Get(b) = %d, %v with Len %d", capacity, v, ok, c.Len())
		}
	}
}

// TestFlightErrorNotCached drives the pattern every owner follows: a
// failed flight shares its error with the requesters that joined it,
// is removed before it finishes, and so is never served again.
func TestFlightErrorNotCached(t *testing.T) {
	var mu sync.Mutex
	c := New[string, *Flight[int]](8)
	boom := errors.New("boom")
	calls := 0
	join := func() (*Flight[int], bool) {
		mu.Lock()
		defer mu.Unlock()
		if fl, ok := c.Get("k"); ok {
			return fl, false
		}
		fl := NewFlight[int]()
		c.Add("k", fl)
		return fl, true
	}
	run := func(fl *Flight[int], v int, err error) {
		calls++
		if err != nil {
			mu.Lock()
			if cur, ok := c.Get("k"); ok && cur == fl {
				c.Remove("k")
			}
			mu.Unlock()
		}
		fl.Finish(v, err)
	}

	leader, first := join()
	joined, second := join()
	if !first || second || joined != leader {
		t.Fatal("second requester did not join the first flight")
	}
	run(leader, 0, boom)
	if _, err := joined.Wait(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("joiner got %v, want the leader's error", err)
	}
	retry, isLeader := join()
	if !isLeader || retry == leader {
		t.Fatal("a failed flight was served to a later requester")
	}
	run(retry, 7, nil)
	again, isLeader := join()
	if isLeader {
		t.Fatal("a successful flight was not cached")
	}
	if v, err := again.Wait(context.Background()); v != 7 || err != nil || calls != 2 {
		t.Fatalf("cached flight = %d, %v after %d runs; want 7, nil after 2", v, err, calls)
	}
}

func TestFlightWaitHonoursWaiterDeadline(t *testing.T) {
	fl := NewFlight[string]()
	if fl.Finished() {
		t.Fatal("new flight reports finished")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := fl.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait on an unfinished flight = %v, want DeadlineExceeded", err)
	}
	fl.Finish("done", nil)
	// A finished flight answers even a waiter whose context is done.
	if v, err := fl.Wait(ctx); v != "done" || err != nil || !fl.Finished() {
		t.Fatalf("Wait after Finish = %q, %v", v, err)
	}
}
