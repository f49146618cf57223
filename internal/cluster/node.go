package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"rankedaccess/internal/engine"
	"rankedaccess/internal/lru"
	"rankedaccess/internal/order"
	"rankedaccess/internal/rpc"
	"rankedaccess/internal/shard"
	"rankedaccess/internal/trace"
)

// maxNodeBuilds bounds the node's build cache; above it, the least
// recently used build is evicted.
const maxNodeBuilds = 64

// Node serves the shard-node side of the RPC protocol over a local
// engine: it builds and caches the owned slice of each distributed
// spec and answers stateless probes against it. Every probe carries
// the full spec, so a node that lost a build (restart, eviction)
// silently reconstructs it; probes also carry the instance version the
// coordinator prepared against, and a node whose data moved on answers
// rpc.ErrStaleVersion instead of mixing epochs.
type Node struct {
	e *engine.Engine

	// builds caches one owned-shard build per spec, single-flighted so
	// concurrent probes for a missing spec build once.
	mu     sync.Mutex
	builds *lru.Cache[string, *lru.Flight[*engine.NodeBuild]]

	tracer atomic.Pointer[trace.Tracer]
}

// NewNode wraps an engine as an RPC backend.
func NewNode(e *engine.Engine) *Node {
	return &Node{e: e, builds: lru.New[string, *lru.Flight[*engine.NodeBuild]](maxNodeBuilds)}
}

// SetTracer makes probes emit per-shard engine spans under the RPC
// server span carried in their contexts. nil disables.
func (n *Node) SetTracer(t *trace.Tracer) { n.tracer.Store(t) }

// span starts a node-level engine span when a tracer is attached.
func (n *Node) span(ctx context.Context, name string, attrs ...trace.Attr) (context.Context, *trace.Span) {
	t := n.tracer.Load()
	if t == nil {
		return ctx, nil
	}
	sctx, sp := t.Start(ctx, name, trace.KindInternal)
	sp.SetAttr(attrs...)
	return sctx, sp
}

var _ rpc.Backend = (*Node)(nil)

// validate pre-checks the parts of a spec whose failure is the
// caller's fault, so they surface as bad-request, not internal.
func validate(es engine.Spec, p int, shardVar string) error {
	ps, err := engine.ParseSpec(es)
	if err != nil {
		return &rpc.BadRequestError{Msg: err.Error()}
	}
	if ps.HasFDs {
		return &rpc.BadRequestError{Msg: "distributed serving does not support FD specs"}
	}
	if _, err := shard.Choose(ps.Q, shardVar, p); err != nil {
		return &rpc.BadRequestError{Msg: err.Error()}
	}
	return nil
}

// getBuild returns the cached build for the spec, building it if the
// node has never seen it (or evicted it) — the stateless-probe
// guarantee. A cached build for an older instance version is replaced.
// A failed build is not cached: the next probe retries.
//
// A shared build runs under its FIRST prober's context. When that
// prober gives up mid-build, joiners whose own contexts are still live
// retry with a fresh flight rather than inheriting the stranger's
// cancellation.
func (n *Node) getBuild(ctx context.Context, spec rpc.Spec) (*engine.NodeBuild, error) {
	for {
		nb, err := n.buildOnce(ctx, spec)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctx.Err() == nil {
				continue
			}
		}
		return nb, err
	}
}

// buildOnce is one attempt of getBuild: join the spec's flight, or
// start one and build.
func (n *Node) buildOnce(ctx context.Context, spec rpc.Spec) (*engine.NodeBuild, error) {
	key := spec.Key()
	cur := n.e.Version()

	n.mu.Lock()
	fl, ok := n.builds.Get(key)
	if ok && fl.Finished() {
		// Failed flights leave the cache before finishing, so this one
		// holds a build; a stale one is rebuilt against the current epoch.
		nb, _ := fl.Wait(ctx)
		ok = nb.Version == cur
	}
	if ok {
		n.mu.Unlock()
		return fl.Wait(ctx)
	}
	fl = lru.NewFlight[*engine.NodeBuild]()
	n.builds.Add(key, fl)
	n.mu.Unlock()

	es := engine.Spec{Query: spec.Query, Order: spec.Order, SumBy: spec.SumBy, FDs: spec.FDs}
	var nb *engine.NodeBuild
	err := validate(es, spec.P, spec.ShardVar)
	if err == nil {
		nb, err = n.e.BuildOwned(ctx, es, spec.P, spec.ShardVar, spec.Owned)
	}
	if err != nil {
		n.mu.Lock()
		if cached, ok := n.builds.Get(key); ok && cached == fl {
			n.builds.Remove(key)
		}
		n.mu.Unlock()
	}
	fl.Finish(nb, err)
	return nb, err
}

// getVersioned is getBuild plus the version check every probe makes.
func (n *Node) getVersioned(ctx context.Context, spec rpc.Spec, version uint64) (*engine.NodeBuild, error) {
	nb, err := n.getBuild(ctx, spec)
	if err != nil {
		return nil, err
	}
	if nb.Version != version {
		return nil, rpc.ErrStaleVersion
	}
	return nb, nil
}

// Prepare builds (or reuses) the owned shards and reports the build's
// identity and per-shard totals.
func (n *Node) Prepare(ctx context.Context, spec rpc.Spec) (*rpc.PrepareInfo, error) {
	nb, err := n.getBuild(ctx, spec)
	if err != nil {
		return nil, err
	}
	info := &rpc.PrepareInfo{
		Version:   nb.Version,
		Mode:      string(nb.Mode),
		Completed: nb.Completed.Entries,
		Totals:    make([]int64, len(spec.Owned)),
	}
	for i, s := range spec.Owned {
		t, err := nb.Owned.Total(s)
		if err != nil {
			return nil, err
		}
		info.Totals[i] = t
	}
	return info, nil
}

// Count counts the owned shards' answers at the node's current
// version (counts are scatter-time consistent per node, not globally
// transactional — the cluster has no cross-node snapshot).
func (n *Node) Count(ctx context.Context, spec rpc.CountSpec) (int64, error) {
	if err := validate(engine.Spec{Query: spec.Query}, spec.P, spec.ShardVar); err != nil {
		return 0, err
	}
	nres, _, err := n.e.CountOwned(spec.Query, spec.P, spec.ShardVar, spec.Owned)
	return nres, err
}

// Rank prices a on every owned shard in one call — the node-local half
// of the coordinator's one-scatter-round rank pricing.
func (n *Node) Rank(ctx context.Context, spec rpc.Spec, version uint64, a order.Answer) ([]int64, bool, error) {
	ctx, sp := n.span(ctx, "node.rank", trace.Int("owned_shards", int64(len(spec.Owned))))
	defer sp.End()
	nb, err := n.getVersioned(ctx, spec, version)
	if err != nil {
		sp.SetError(err)
		return nil, false, err
	}
	ranks := make([]int64, len(spec.Owned))
	exact, err := nb.Owned.RankAll(a, spec.Owned, ranks)
	if err != nil {
		sp.SetError(err)
		return nil, false, err
	}
	return ranks, exact, nil
}

// Access returns one owned shard's k-th local answer.
func (n *Node) Access(ctx context.Context, spec rpc.Spec, version uint64, s int, k int64) (order.Answer, error) {
	ctx, sp := n.span(ctx, "node.access", trace.Int("shard", int64(s)), trace.Int("k", k))
	defer sp.End()
	nb, err := n.getVersioned(ctx, spec, version)
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	a, err := nb.Owned.Access(s, k)
	if err != nil {
		sp.SetError(err)
	}
	return a, err
}

// Range returns one owned shard's local answers k0 ≤ k < k1.
func (n *Node) Range(ctx context.Context, spec rpc.Spec, version uint64, s int, k0, k1 int64) ([]order.Answer, error) {
	ctx, sp := n.span(ctx, "node.range", trace.Int("shard", int64(s)), trace.Int("k0", k0), trace.Int("k1", k1))
	defer sp.End()
	nb, err := n.getVersioned(ctx, spec, version)
	if err != nil {
		sp.SetError(err)
		return nil, err
	}
	rows, err := nb.Owned.Range(s, k0, k1)
	if err != nil {
		sp.SetError(err)
	}
	return rows, err
}

// Stats reports the node's identity counters.
func (n *Node) Stats(ctx context.Context) (*rpc.PeerStats, error) {
	st := n.e.Stats()
	n.mu.Lock()
	builds := n.builds.Len()
	n.mu.Unlock()
	return &rpc.PeerStats{Version: st.Version, Tuples: int64(st.Tuples), Builds: int64(builds)}, nil
}

// Health reports the node's readiness. A node that can answer the RPC
// is serving; engine-level degradation (WAL errors) is reported as a
// reason without flipping readiness — degraded reads beat no reads.
func (n *Node) Health(ctx context.Context) (*rpc.HealthInfo, error) {
	h := n.e.Health()
	info := &rpc.HealthInfo{Ready: true}
	if h.WALBroken {
		info.Reasons = append(info.Reasons, "WAL broken; writes shedding")
	}
	if h.MaxOverlayEdits >= h.DeltaHard {
		info.Reasons = append(info.Reasons, fmt.Sprintf("rebuild backlog: overlay at %d edits (hard limit %d)", h.MaxOverlayEdits, h.DeltaHard))
	}
	return info, nil
}
