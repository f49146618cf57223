package serve

import (
	"net/http"
	"testing"
)

// TestCursorStoreEvictsLeastRecentlyUsed fills the store one past
// defaultMaxCursors over HTTP: the evicted cursor is the least recently
// used one, not the oldest created, so a cursor touched since it was
// opened survives.
func TestCursorStoreEvictsLeastRecentlyUsed(t *testing.T) {
	srv, _ := v1Server(t, 64, 45)
	register(t, srv, "q", twoPath, "x, y, z")
	open := func() string {
		var cr cursorResponse
		if resp := post(t, srv, "/v1/queries/q/cursor", cursorRequest{}, &cr); resp.StatusCode != http.StatusCreated {
			t.Fatalf("cursor create: %d", resp.StatusCode)
		}
		return cr.Cursor
	}
	ids := make([]string, defaultMaxCursors)
	for i := range ids {
		ids[i] = open()
	}
	cursorNext(t, srv, ids[0], 1) // the oldest is now the most recently used
	open()                        // one past the bound
	if st := stats(t, srv); st.OpenCursors != defaultMaxCursors {
		t.Fatalf("open cursors = %d, want %d", st.OpenCursors, defaultMaxCursors)
	}
	if resp := get(t, srv, "/v1/cursors/"+ids[1]+"/next?n=1", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("least recently used cursor: %d, want 404", resp.StatusCode)
	}
	cursorNext(t, srv, ids[0], 1)
	cursorNext(t, srv, ids[2], 1)
}
