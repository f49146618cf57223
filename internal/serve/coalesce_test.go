package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rankedaccess/internal/engine"
)

// TestCoalesceJoinerHonoursOwnDeadline: a request that joins a blocked
// fill gives up at its own deadline, and the leader's body is still
// cached once it completes.
func TestCoalesceJoinerHonoursOwnDeadline(t *testing.T) {
	c := newCoalescer(0)
	key := rangeKey(engine.PreparedID{Name: "q", Gen: 1}, 3, 0, 10)
	started, release := make(chan struct{}), make(chan struct{})
	type result struct {
		body []byte
		err  error
	}
	leader := make(chan result, 1)
	go func() {
		body, err := c.do(context.Background(), key, func() ([]byte, error) {
			close(started)
			<-release
			return []byte("body"), nil
		})
		leader <- result{body, err}
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := c.do(ctx, key, func() ([]byte, error) {
		t.Error("joiner ran its own fill")
		return nil, nil
	}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("joiner = %v, want context.DeadlineExceeded", err)
	}

	close(release)
	if r := <-leader; r.err != nil || string(r.body) != "body" {
		t.Fatalf("leader = %q, %v", r.body, r.err)
	}
	body, err := c.do(context.Background(), key, func() ([]byte, error) {
		return nil, errors.New("refilled a cached body")
	})
	if err != nil || string(body) != "body" {
		t.Fatalf("after the leader finished: %q, %v; want the cached body", body, err)
	}
	if h, m := c.hits.Load(), c.misses.Load(); h != 2 || m != 1 {
		t.Fatalf("hits %d misses %d, want 2 and 1", h, m)
	}
}

// TestCoalesceErrorNotCached: a failed fill is shared with nobody who
// arrives after it, so the next request fills again.
func TestCoalesceErrorNotCached(t *testing.T) {
	c := newCoalescer(0)
	key := accessKey(engine.PreparedID{Name: "q", Gen: 1}, 1, []int64{4, 2})
	if _, err := c.do(context.Background(), key, func() ([]byte, error) {
		return nil, errors.New("transient")
	}); err == nil {
		t.Fatal("fill error was swallowed")
	}
	body, err := c.do(context.Background(), key, func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(body) != "ok" || c.misses.Load() != 2 {
		t.Fatalf("retry = %q, %v after %d misses; want a fresh fill", body, err, c.misses.Load())
	}
}

// TestCoalesceKeys: the common windows key without allocating, and
// windows that differ in any parameter key differently.
func TestCoalesceKeys(t *testing.T) {
	id := engine.PreparedID{Name: "q", Gen: 2}
	one := []int64{17}
	if n := testing.AllocsPerRun(200, func() { _ = accessKey(id, 9, one) }); n != 0 {
		t.Fatalf("single-k access key allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { _ = rangeKey(id, 9, 64, 128) }); n != 0 {
		t.Fatalf("range key allocates %v times, want 0", n)
	}
	keys := []coalKey{
		accessKey(id, 9, nil),
		accessKey(id, 9, []int64{0}),
		accessKey(id, 9, []int64{0, 0}),
		accessKey(id, 9, []int64{1, 2}),
		accessKey(id, 9, []int64{2, 1}),
		accessKey(id, 10, []int64{1, 2}),
		accessKey(engine.PreparedID{Name: "q", Gen: 3}, 9, []int64{1, 2}),
		rangeKey(id, 9, 0, 1),
		rangeKey(id, 9, 0, 2),
		rangeKey(id, 8, 0, 2),
	}
	seen := make(map[coalKey]int)
	for i, k := range keys {
		if j, dup := seen[k]; dup {
			t.Fatalf("windows %d and %d share the key %+v", j, i, k)
		}
		seen[k] = i
	}
}

// TestCoalesceOffServesSameBodies: with coalescing off (a negative
// CoalesceCache) the probe endpoints answer byte for byte what the
// coalesced default does, every request fills, and nothing counts.
func TestCoalesceOffServesSameBodies(t *testing.T) {
	on, _ := resilServer(t, engine.Options{}, Config{})
	off, _ := resilServer(t, engine.Options{}, Config{CoalesceCache: -1})
	body := func(srv *httptest.Server, path string, req any) string {
		t.Helper()
		buf, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Post(srv.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v", path, resp.StatusCode, err)
		}
		return string(b)
	}
	for _, srv := range []*httptest.Server{on, off} {
		register(t, srv, "q", twoPath, "x, y, z")
	}
	probes := []struct {
		path string
		req  any
	}{
		{"/v1/queries/q/access", v1AccessRequest{Ks: []int64{2}}},
		{"/v1/queries/q/access", v1AccessRequest{Ks: []int64{0, 2, 9}}},
		{"/v1/queries/q/range", v1RangeRequest{K0: 0, K1: 3}},
	}
	for _, p := range probes {
		for range 2 {
			if a, b := body(on, p.path, p.req), body(off, p.path, p.req); a != b {
				t.Fatalf("%s %+v: coalesced %s, uncoalesced %s", p.path, p.req, a, b)
			}
		}
	}
	if st := stats(t, off); st.CoalesceHits != 0 || st.CoalesceMisses != 0 {
		t.Fatalf("coalescing off counted %d hits, %d misses", st.CoalesceHits, st.CoalesceMisses)
	}
}
