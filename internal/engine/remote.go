// Remote seam: the hooks that turn an Engine into either half of a
// distributed deployment.
//
// Coordinator side: Options.Remote installs a RemoteBuilder; every
// Prepare then delegates planning and structure building to it, and the
// returned handle merges network-served shard parts through the exact
// rank-merge machinery the in-process sharded path uses — distributed
// answers are byte-identical to single-node answers by construction.
// The write path is disabled (ErrReadOnly): the coordinator owns no
// data, so mutations go to the nodes' own ingestion paths.
//
// Node side: BuildOwned builds only the shard subset a cluster node
// owns, and CountOwned counts it. They run the same code as in-process
// sharding with a smaller owned set: BuildOwned calls buildShards, the
// one mode ladder (classify, build the tractable structure, fall back
// to materialize-and-sort on an intractability certificate) that
// buildLocal's sharded branch calls with every shard owned, and both
// count paths share shard.Count.
package engine

import (
	"context"
	"errors"
	"fmt"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
	"rankedaccess/internal/shard"
	"rankedaccess/internal/values"
)

// ErrReadOnly reports a mutation against a coordinator engine, which
// owns no data of its own.
var ErrReadOnly = errors.New("engine: coordinator is read-only; mutate the shard nodes")

// RemoteBuilder plans and builds access structures somewhere other than
// this process — the coordinator's window onto its cluster. Both
// methods are called with the engine's locks NOT held; implementations
// synchronize internally.
type RemoteBuilder interface {
	// BuildRemote plans s and assembles a handle over remote shard
	// parts. It is called once per (spec, version) by the engine's
	// single-flight machinery; the implementation should still be safe
	// for concurrent calls with distinct specs.
	BuildRemote(ctx context.Context, s Spec) (*RemoteHandle, error)
	// CountRemote answers Count by scatter-gather. The cluster's own
	// shard count applies; by optionally names the partition variable.
	CountRemote(ctx context.Context, query, by string) (int64, CountInfo, error)
}

// RemoteHandle is what a RemoteBuilder returns: the pieces the engine
// wraps into an ordinary Handle, so every downstream consumer (batch
// access, ranges, cursors, NDJSON streaming) works unchanged.
type RemoteHandle struct {
	// Query is the parsed query (answers index its variables).
	Query *cq.Query
	// Plan records the planning outcome agreed with the nodes.
	Plan Plan
	// Sh merges the remote shard parts (see shard.NewRemote).
	Sh *shard.Handle
}

// buildRemote is build() for a coordinator engine: delegate to the
// RemoteBuilder and wrap its parts into a Handle.
func (e *Engine) buildRemote(ctx context.Context, s Spec) (*Handle, error) {
	rh, err := e.remote.BuildRemote(ctx, s)
	if err != nil {
		return nil, err
	}
	return &Handle{
		Query:      rh.Query,
		Plan:       rh.Plan,
		spec:       s,
		rels:       queryRels(rh.Query),
		r:          rh.Sh,
		partTotals: rh.Sh.PartTotals(),
	}, nil
}

// selectRemote serves Select on a coordinator: with no local data there
// is no one-shot selection, so the prepared (cached) structure answers
// instead. The answer is identical; only the cost model differs.
func (e *Engine) selectRemote(s Spec, k int64) ([]values.Value, error) {
	h, err := e.Prepare(s)
	if err != nil {
		return nil, err
	}
	return h.AppendTuple(make([]values.Value, 0, h.Width()), k)
}

// ParsedSpec is a Spec validated and parsed against its own query —
// exported for the cluster coordinator, which plans from the same
// parse the engine itself would use.
type ParsedSpec struct {
	// Q is the parsed query.
	Q *cq.Query
	// Lex is the requested lexicographic order (zero when IsSum).
	Lex order.Lex
	// Sum is the requested SUM weighting (zero unless IsSum).
	Sum order.Sum
	// IsSum reports a SUM-ordered spec.
	IsSum bool
	// HasFDs reports functional dependencies on the spec; the
	// distributed path rejects them (FD extension is global, not
	// per-shard — a follow-up).
	HasFDs bool
}

// ParseSpec parses and validates a Spec exactly as Prepare would.
func ParseSpec(s Spec) (*ParsedSpec, error) {
	p, err := s.parse()
	if err != nil {
		return nil, err
	}
	return &ParsedSpec{Q: p.q, Lex: p.l, Sum: p.w, IsSum: p.sum, HasFDs: len(p.fds) > 0}, nil
}

// NodeBuild is the node-side result of building the owned slice of a
// distributed spec.
type NodeBuild struct {
	// Owned holds the per-shard structures for the owned indices.
	Owned *shard.Owned
	// Mode is the structure mode every owned shard was built with.
	Mode Mode
	// Completed is the realized total lex order of layered builds
	// (zero for SUM and materialized modes).
	Completed order.Lex
	// Version is the instance version (epoch) the structures reflect.
	Version uint64
}

// BuildOwned builds the owned shards of a distributed spec against the
// node's current instance through buildShards, the mode ladder
// in-process sharding uses. FD specs are rejected — the distributed
// path serves the plain dichotomies only.
func (e *Engine) BuildOwned(ctx context.Context, s Spec, p int, shardVar string, owned []int) (*NodeBuild, error) {
	ps, err := s.parse()
	if err != nil {
		return nil, err
	}
	if len(ps.fds) > 0 {
		return nil, fmt.Errorf("engine: distributed serving does not support FD specs")
	}
	if shardVar == "" {
		return nil, fmt.Errorf("engine: distributed build requires an explicit partition variable")
	}
	pt, err := shard.Choose(ps.q, shardVar, p)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	e.mu.RLock()
	defer e.mu.RUnlock()
	o, mode, err := buildShards(ctx, ps, e.in, pt, owned)
	if err != nil {
		return nil, err
	}
	return &NodeBuild{Owned: o, Mode: mode, Completed: o.Completed(), Version: e.version}, nil
}

// CountOwned counts the owned shards' contribution to a distributed
// count against the node's current instance, returning the count and
// the version it was taken at.
func (e *Engine) CountOwned(query string, p int, shardVar string, owned []int) (int64, uint64, error) {
	q, err := cq.Parse(query)
	if err != nil {
		return 0, 0, err
	}
	pt, err := shard.Choose(q, shardVar, p)
	if err != nil {
		return 0, 0, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	n, err := shard.Count(q, e.in, pt, owned)
	return n, e.version, err
}
