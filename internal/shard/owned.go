package shard

import (
	"context"
	"fmt"
	"slices"

	"rankedaccess/internal/access"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
)

// Owned holds the per-shard structures built for a set of owned shard
// indices: a cluster node's slice of a distributed handle (whose
// coordinator-side half is NewRemote), or every shard of an in-process
// sharded handle (see Handle). All probes address shards by their
// global index; asking for a shard not owned is an error, never a
// silent wrong answer.
type Owned struct {
	// Query is the parsed query the parts serve.
	Query *cq.Query
	// Part is the cluster-wide partitioning (P is the global shard
	// count, not the owned count).
	Part Partitioning
	// BuildNanos records each owned shard's build wall time, indexed
	// by global shard (zero for shards not owned).
	BuildNanos []int64

	completed order.Lex
	shards    []int           // owned indices, ascending
	parts     []access.Ranked // indexed by global shard; nil if not owned
}

// Completed returns the realized total lex order of layered builds
// (zero for SUM and materialized-SUM).
func (o *Owned) Completed() order.Lex { return o.completed }

// Shards returns the owned shard indices in ascending order.
func (o *Owned) Shards() []int { return slices.Clone(o.shards) }

// Handle merges the parts into one ranked accessor over all P shards —
// the in-process sharded handle. It fails unless every shard is owned.
func (o *Owned) Handle() (*Handle, error) {
	if len(o.shards) != o.Part.P {
		return nil, fmt.Errorf("shard: %d of %d shards owned; a merged handle needs all of them", len(o.shards), o.Part.P)
	}
	h := newHandle(o.Query, o.Part, o.parts)
	h.Completed, h.BuildNanos = o.completed, o.BuildNanos
	return h, nil
}

func (o *Owned) part(shard int) (access.Ranked, error) {
	if shard < 0 || shard >= len(o.parts) || o.parts[shard] == nil {
		return nil, fmt.Errorf("shard: shard %d is not owned by this node", shard)
	}
	return o.parts[shard], nil
}

// Total returns one owned shard's answer count.
func (o *Owned) Total(shard int) (int64, error) {
	p, err := o.part(shard)
	if err != nil {
		return 0, err
	}
	return p.Total(), nil
}

// Rank returns one owned shard's count of answers strictly below a.
func (o *Owned) Rank(shard int, a order.Answer) (int64, bool, error) {
	p, err := o.part(shard)
	if err != nil {
		return 0, false, err
	}
	return p.RankOf(context.Background(), a)
}

// RankAll prices a on the given owned shards, filling ranks (aligned
// with shards) and reporting whether any of them holds a exactly.
func (o *Owned) RankAll(a order.Answer, shards []int, ranks []int64) (bool, error) {
	if len(ranks) != len(shards) {
		return false, fmt.Errorf("shard: %d rank slots for %d shards", len(ranks), len(shards))
	}
	exact := false
	for i, s := range shards {
		r, ex, err := o.Rank(s, a)
		if err != nil {
			return false, err
		}
		ranks[i] = r
		exact = exact || ex
	}
	return exact, nil
}

// Access returns one owned shard's k-th local answer. The answer is
// freshly allocated (wire-safe — it aliases no probe buffer).
func (o *Owned) Access(shard int, k int64) (order.Answer, error) {
	p, err := o.part(shard)
	if err != nil {
		return nil, err
	}
	return p.AnswerAt(context.Background(), nil, k)
}

// MaxOwnedRange caps one Range call, bounding the response frame a
// single request can demand from a node.
const MaxOwnedRange = 4096

// Range returns one owned shard's local answers k0 ≤ k < k1, each
// freshly allocated off one backing array.
func (o *Owned) Range(shard int, k0, k1 int64) ([]order.Answer, error) {
	p, err := o.part(shard)
	if err != nil {
		return nil, err
	}
	if k0 < 0 || k1 < k0 || k1 > p.Total() {
		return nil, access.ErrOutOfBound
	}
	n := k1 - k0
	if n > MaxOwnedRange {
		return nil, fmt.Errorf("shard: range of %d answers exceeds the per-call cap %d", n, MaxOwnedRange)
	}
	width := o.Query.NumVars()
	flat := make([]int64, 0, int(n)*width)
	out := make([]order.Answer, 0, n)
	var a order.Answer
	for k := k0; k < k1; k++ {
		a, err = p.AnswerAt(context.Background(), a, k)
		if err != nil {
			return nil, err
		}
		start := len(flat)
		flat = append(flat, a...)
		out = append(out, flat[start:len(flat):len(flat)])
	}
	return out, nil
}
