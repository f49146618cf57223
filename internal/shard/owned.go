package shard

import (
	"context"
	"fmt"
	"sort"
	"time"

	"rankedaccess/internal/access"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/par"
	"rankedaccess/internal/selection"
)

// Owned holds the per-shard structures a single cluster node builds
// for the shard indices it owns — the node-side half of the
// distributed handle whose coordinator-side half is NewRemote. All
// probes address shards by their global index; asking for a shard the
// node does not own is an error, never a silent wrong answer.
type Owned struct {
	// Query is the parsed query the parts serve.
	Query *cq.Query
	// Part is the cluster-wide partitioning (P is the global shard
	// count, not the owned count).
	Part Partitioning
	// BuildNanos records each owned shard's build wall time, keyed by
	// global shard index.
	BuildNanos map[int]int64

	completed order.Lex
	parts     map[int]access.Ranked
}

// Completed returns the realized total lex order of layered builds
// (zero for SUM and materialized-SUM).
func (o *Owned) Completed() order.Lex { return o.completed }

// Shards returns the owned shard indices in ascending order.
func (o *Owned) Shards() []int {
	out := make([]int, 0, len(o.parts))
	for s := range o.parts {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

func (o *Owned) part(shard int) (access.Ranked, error) {
	p, ok := o.parts[shard]
	if !ok {
		return nil, fmt.Errorf("shard: shard %d is not owned by this node", shard)
	}
	return p, nil
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

// ownedSet deduplicates and validates the owned shard indices.
func ownedSet(pt Partitioning, owned []int) ([]int, error) {
	if len(owned) == 0 {
		return nil, fmt.Errorf("shard: no owned shards requested")
	}
	set := make(map[int]bool, len(owned))
	for _, s := range owned {
		if s < 0 || s >= pt.P {
			return nil, fmt.Errorf("shard: owned shard %d outside [0, %d)", s, pt.P)
		}
		set[s] = true
	}
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out, nil
}

// buildOwned splits the owned shards and builds one part per shard in
// parallel via the given per-shard builder.
func buildOwned(q *cq.Query, in *database.Instance, pt Partitioning, owned []int,
	build func(*database.Instance) (access.Ranked, order.Lex, error)) (*Owned, error) {
	shards, err := ownedSet(pt, owned)
	if err != nil {
		return nil, err
	}
	ins := SplitOwned(q, in, pt, shards)
	parts := make([]access.Ranked, len(shards))
	lexes := make([]order.Lex, len(shards))
	nanos := make([]int64, len(shards))
	err = par.DoErr(len(shards), func(i int) error {
		start := time.Now()
		p, l, err := build(ins[shards[i]])
		if err != nil {
			return err
		}
		parts[i], lexes[i] = p, l
		nanos[i] = time.Since(start).Nanoseconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(shards); i++ {
		if !sameLex(lexes[0], lexes[i]) {
			return nil, fmt.Errorf("shard: internal: owned shard %d realized order %v, shard %d realized %v",
				shards[i], lexes[i].Entries, shards[0], lexes[0].Entries)
		}
	}
	o := &Owned{
		Query:      q,
		Part:       pt,
		completed:  lexes[0],
		parts:      make(map[int]access.Ranked, len(shards)),
		BuildNanos: make(map[int]int64, len(shards)),
	}
	for i, s := range shards {
		o.parts[s] = parts[i]
		o.BuildNanos[s] = nanos[i]
	}
	return o, nil
}

// BuildOwnedLex builds the owned shards' layered lexicographic
// structures. Like BuildLex, all shards must realize the same
// completed order; the coordinator additionally verifies it ACROSS
// nodes from the Prepare responses.
func BuildOwnedLex(q *cq.Query, in *database.Instance, l order.Lex, pt Partitioning, owned []int) (*Owned, error) {
	return buildOwned(q, in, pt, owned, func(si *database.Instance) (access.Ranked, order.Lex, error) {
		la, err := access.BuildLex(q, si, l)
		if err != nil {
			return nil, order.Lex{}, err
		}
		return la, la.Completed, nil
	})
}

// BuildOwnedSum builds the owned shards' SUM structures.
func BuildOwnedSum(q *cq.Query, in *database.Instance, w order.Sum, pt Partitioning, owned []int) (*Owned, error) {
	return buildOwned(q, in, pt, owned, func(si *database.Instance) (access.Ranked, order.Lex, error) {
		s, err := access.BuildSum(q, si, w)
		if err != nil {
			return nil, order.Lex{}, err
		}
		return s, order.Lex{}, nil
	})
}

// BuildOwnedMaterializedLex builds the owned shards' materialize-and-
// sort fallbacks under a lex order.
func BuildOwnedMaterializedLex(q *cq.Query, in *database.Instance, l order.Lex, pt Partitioning, owned []int) (*Owned, error) {
	return buildOwned(q, in, pt, owned, func(si *database.Instance) (access.Ranked, order.Lex, error) {
		return access.BuildMaterializedLex(q, si, l), order.Lex{}, nil
	})
}

// BuildOwnedMaterializedSum is BuildOwnedMaterializedLex for SUM.
func BuildOwnedMaterializedSum(q *cq.Query, in *database.Instance, w order.Sum, pt Partitioning, owned []int) (*Owned, error) {
	return buildOwned(q, in, pt, owned, func(si *database.Instance) (access.Ranked, order.Lex, error) {
		return access.BuildMaterializedSum(q, si, w), order.Lex{}, nil
	})
}

// CountOwned counts the owned shards' answers (their sum — the node's
// contribution to the global count) without building any structure.
func CountOwned(q *cq.Query, in *database.Instance, pt Partitioning, owned []int) (int64, error) {
	shards, err := ownedSet(pt, owned)
	if err != nil {
		return 0, err
	}
	ins := SplitOwned(q, in, pt, shards)
	counts := make([]int64, len(shards))
	err = par.DoErr(len(shards), func(i int) error {
		n, err := selection.CountAnswers(q, ins[shards[i]])
		counts[i] = n
		return err
	})
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	return total, nil
}
