package engine

import (
	"context"
	"testing"

	"rankedaccess/internal/values"
)

// publishFixture returns an engine whose cached handle for s is an
// overlay epoch at the current version, plus an edit-free structure
// rebuilt at that version and the original handle at the version
// before it.
func publishFixture(t *testing.T) (e *Engine, s Spec, overlay, rebuilt, older *Handle) {
	t.Helper()
	e = New(smallInstance(), Options{}) // default DeltaSoft: no background rebuild
	s = Spec{Query: twoPath, Order: "x, y, z"}
	older, err := e.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddRows("R", [][]values.Value{{7, 5}}); err != nil {
		t.Fatal(err)
	}
	if overlay, err = e.Prepare(s); err != nil {
		t.Fatal(err)
	}
	if overlay.DeltaEdits() == 0 || overlay.version != older.version+1 {
		t.Fatalf("fixture: want an overlay one version on, got %d edits at v%d (was v%d)",
			overlay.DeltaEdits(), overlay.version, older.version)
	}
	e.mu.RLock()
	rebuilt, err = e.build(context.Background(), s)
	rebuilt.version = e.version
	e.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	return e, s, overlay, rebuilt, older
}

// TestPublishOrdersCandidates pins the epoch invariant publish enforces:
// candidates for one spec are ordered by version, then by fewer overlay
// edits, whatever order they arrive in.
func TestPublishOrdersCandidates(t *testing.T) {
	e, s, overlay, rebuilt, older := publishFixture(t)
	key := s.key()
	cases := []struct {
		name   string
		first  *Handle
		second *Handle
		stuck  bool // the second publish replaces the first
		want   *Handle
	}{
		{"rebuilt then same-version overlay", rebuilt, overlay, false, rebuilt},
		{"same-version overlay then rebuilt", overlay, rebuilt, true, rebuilt},
		// Version dominates edits: an edit-free older epoch loses.
		{"newer overlay then older", overlay, older, false, overlay},
		{"older then newer overlay", older, overlay, true, overlay},
	}
	for _, c := range cases {
		e.cmu.Lock()
		e.cache.Clear()
		if !e.publish(key, c.first) {
			t.Errorf("%s: publish into an empty slot did not stick", c.name)
		}
		stuck := e.publish(key, c.second)
		got, _ := e.cache.Get(key)
		e.cmu.Unlock()
		if stuck != c.stuck || got != c.want {
			t.Errorf("%s: second publish stuck=%v (want %v), cached v%d with %d edits (want v%d with %d)",
				c.name, stuck, c.stuck, got.version, got.DeltaEdits(), c.want.version, c.want.DeltaEdits())
		}
	}
}

// TestBackgroundRebuildCountsOnlyStuckSwaps: Stats.BGRebuilds counts a
// background rebuild only when its structure is the one left cached.
func TestBackgroundRebuildCountsOnlyStuckSwaps(t *testing.T) {
	e, s, overlay, _, _ := publishFixture(t)
	key := s.key()

	// A newer epoch is already cached (a later catch-up won the race):
	// the rebuild at the current version must lose and not count.
	newer := *overlay
	newer.version = overlay.version + 5
	e.cmu.Lock()
	e.publish(key, &newer)
	e.cmu.Unlock()
	e.spawnRebuild(s, key)
	e.Quiesce()
	e.cmu.Lock()
	got, _ := e.cache.Get(key)
	e.cmu.Unlock()
	if got != &newer || e.Stats().BGRebuilds != 0 {
		t.Fatalf("lost swap: cached v%d, BGRebuilds %d; want v%d, 0", got.version, e.Stats().BGRebuilds, newer.version)
	}

	// Over a same-version overlay the rebuild wins and counts once.
	e.cmu.Lock()
	e.cache.Clear()
	e.publish(key, overlay)
	e.cmu.Unlock()
	e.spawnRebuild(s, key)
	e.Quiesce()
	e.cmu.Lock()
	got, _ = e.cache.Get(key)
	e.cmu.Unlock()
	if got.DeltaEdits() != 0 || got.version != overlay.version || e.Stats().BGRebuilds != 1 {
		t.Fatalf("stuck swap: cached v%d with %d edits, BGRebuilds %d; want v%d, 0 edits, 1",
			got.version, got.DeltaEdits(), e.Stats().BGRebuilds, overlay.version)
	}
	if h := e.Health(); h.BGRebuilding != 0 {
		t.Fatalf("BGRebuilding = %d after Quiesce", h.BGRebuilding)
	}
}
