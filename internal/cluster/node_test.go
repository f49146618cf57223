package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"rankedaccess/internal/engine"
	"rankedaccess/internal/rpc"
	"rankedaccess/internal/workload"
)

// nodeSpec returns the i-th of a family of distinct distributed specs
// (the same two-path join under renamed variables).
func nodeSpec(i int) rpc.Spec {
	return rpc.Spec{
		Query:    fmt.Sprintf("Q(x, y, z%d) :- R(x, y), S(y, z%d)", i, i),
		Order:    fmt.Sprintf("x, y, z%d", i),
		P:        2,
		ShardVar: "x",
		Owned:    []int{0, 1},
	}
}

func (n *Node) cached(spec rpc.Spec) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.builds.Get(spec.Key())
	return ok
}

// TestNodeBuildCacheIsBoundedLRU: past maxNodeBuilds distinct specs the
// node keeps at most maxNodeBuilds builds, evicting the least recently
// probed one.
func TestNodeBuildCacheIsBoundedLRU(t *testing.T) {
	n := NewNode(engine.New(testInstance(), engine.Options{}))
	ctx := context.Background()
	for i := 0; i < maxNodeBuilds; i++ {
		if _, err := n.Prepare(ctx, nodeSpec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Prepare(ctx, nodeSpec(0)); err != nil { // 0 is now the most recent
		t.Fatal(err)
	}
	for i := maxNodeBuilds; i < maxNodeBuilds+5; i++ {
		if _, err := n.Prepare(ctx, nodeSpec(i)); err != nil {
			t.Fatal(err)
		}
		st, err := n.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Builds > maxNodeBuilds {
			t.Fatalf("%d builds cached after %d specs, bound %d", st.Builds, i+1, maxNodeBuilds)
		}
	}
	if !n.cached(nodeSpec(0)) {
		t.Fatal("the recently probed build was evicted")
	}
	for i := 1; i <= 5; i++ {
		if n.cached(nodeSpec(i)) {
			t.Fatalf("least recently used build %d survived", i)
		}
	}
}

// TestNodeFailedBuildIsRetried: a build that failed is not cached, so
// the next probe of the spec builds again.
func TestNodeFailedBuildIsRetried(t *testing.T) {
	n := NewNode(engine.New(testInstance(), engine.Options{}))
	spec := nodeSpec(0)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := n.Prepare(canceled, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("build under a canceled context = %v, want context.Canceled", err)
	}
	if n.cached(spec) {
		t.Fatal("failed build was cached")
	}
	if _, err := n.Prepare(context.Background(), spec); err != nil {
		t.Fatalf("retry after a failed build: %v", err)
	}
	if !n.cached(spec) {
		t.Fatal("successful build was not cached")
	}
}

// TestNodeBuildJoinerOutlivesCanceledBuilder: a node build runs under
// its first prober's context. When that prober is canceled mid-build,
// a joiner whose own context is still live must retry with a fresh
// flight and get the build, not the stranger's cancellation.
func TestNodeBuildJoinerOutlivesCanceledBuilder(t *testing.T) {
	spec := nodeSpec(0)
	for attempt := 0; ; attempt++ {
		if attempt == 10 {
			t.Fatal("every build finished before its prober was canceled")
		}
		// Large enough that the layered shard builds span many ms of waves.
		_, in := workload.TwoPath(rand.New(rand.NewSource(33)), 10000, 1024, 0.4)
		n := NewNode(engine.New(in, engine.Options{}))
		bctx, cancel := context.WithCancel(context.Background())
		builder := make(chan error, 1)
		go func() {
			_, err := n.Prepare(bctx, spec)
			builder <- err
		}()
		waitUntil(t, func() bool { return n.cached(spec) })
		var info *rpc.PrepareInfo
		joiner := make(chan error, 1)
		go func() {
			var err error
			info, err = n.Prepare(context.Background(), spec)
			joiner <- err
		}()
		waitUntil(t, func() bool { return flightWaiters() > 0 })
		cancel()
		berr := <-builder
		if err := <-joiner; err != nil || info == nil {
			t.Fatalf("joiner with a live context = (%v, %v), want the build", info, err)
		}
		if berr == nil {
			continue // the build finished before the cancel landed
		}
		if !errors.Is(berr, context.Canceled) {
			t.Fatalf("canceled prober = %v, want context.Canceled", berr)
		}
		if !n.cached(spec) {
			t.Fatal("the joiner's retried build was not cached")
		}
		return
	}
}

// waitUntil polls cond until it holds, failing the test after 10s.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
	}
}

// flightWaiters counts the goroutines blocked waiting on a shared
// single-flight build.
func flightWaiters() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("lru.(*Flight[...]).Wait("))
}
