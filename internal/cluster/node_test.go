package cluster

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"rankedaccess/internal/engine"
	"rankedaccess/internal/rpc"
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
