package serve

import (
	"sync"
	"testing"
)

// TestCursorStoreConcurrentStress hammers one small store from many
// goroutines so -race can see create/get/remove/evict interleavings.
// The store invariants under fire: open() never exceeds max, every id
// a goroutine created resolves until someone removes or evicts it, and
// remove reports true exactly once per id.
func TestCursorStoreConcurrentStress(t *testing.T) {
	const (
		workers = 8
		iters   = 200
		max     = 4 // tiny: force constant LRU eviction under contention
	)
	cs := newCursorStore(max)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]string, 0, iters)
			for i := 0; i < iters; i++ {
				sc, err := cs.create("q", nil)
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				ids = append(ids, sc.id)
				// Touch a mix of our own live and likely-evicted ids.
				cs.get(sc.id)
				cs.get(ids[i/2])
				if n := cs.open(); n > max {
					t.Errorf("open() = %d, exceeds max %d", n, max)
					return
				}
				// Remove every other cursor we made; double-remove of an
				// already-evicted id must just report false, not panic.
				if i%2 == 1 {
					cs.remove(ids[i-1])
					cs.remove(ids[i-1])
				}
			}
		}()
	}
	wg.Wait()
	if n := cs.open(); n > max {
		t.Fatalf("open() = %d after stress, exceeds max %d", n, max)
	}
	// The survivors still resolve and can be drained out.
	survivors := make([]string, 0, max)
	for id := range cs.cursors.All() {
		survivors = append(survivors, id)
	}
	for _, id := range survivors {
		if cs.get(id) == nil {
			t.Fatalf("surviving cursor %s does not resolve", id)
		}
		if !cs.remove(id) {
			t.Fatalf("removing surviving cursor %s reported false", id)
		}
	}
	if n := cs.open(); n != 0 {
		t.Fatalf("open() = %d after draining, want 0", n)
	}
}
