package shard

import (
	"fmt"
	"slices"
	"time"

	"rankedaccess/internal/access"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/par"
	"rankedaccess/internal/selection"
)

// Build splits the owned shards of pt out of the instance and builds
// one part per owned shard in parallel with build — the one shard
// builder behind both the in-process sharded handle (owned = pt.All(),
// merged by Owned.Handle) and a cluster node's owned slice. All shards
// complete the requested order over the same query structure, so
// layered parts realize the same total order; that is verified
// defensively and a mismatch is an error (the coordinator verifies it
// again across nodes). FD specs must be extended globally by the
// caller first (extend once, shard the extension): per-shard FD
// plumbing would price foreign candidates against incomplete local FD
// tables.
func Build(q *cq.Query, in *database.Instance, pt Partitioning, owned []int,
	build func(*database.Instance) (access.Ranked, error)) (*Owned, error) {
	shards, err := ownedSet(pt, owned)
	if err != nil {
		return nil, err
	}
	ins := Split(q, in, pt, shards)
	o := &Owned{
		Query:      q,
		Part:       pt,
		BuildNanos: make([]int64, pt.P),
		shards:     shards,
		parts:      make([]access.Ranked, pt.P),
	}
	err = par.DoErr(len(shards), func(i int) error {
		s := shards[i]
		start := time.Now()
		p, err := build(ins[s])
		if err != nil {
			return err
		}
		o.parts[s], o.BuildNanos[s] = p, time.Since(start).Nanoseconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	o.completed = completedOf(o.parts[shards[0]])
	for _, s := range shards[1:] {
		if c := completedOf(o.parts[s]); !slices.Equal(c.Entries, o.completed.Entries) {
			return nil, fmt.Errorf("shard: internal: shard %d realized order %v, shard %d realized %v",
				s, c.Entries, shards[0], o.completed.Entries)
		}
	}
	return o, nil
}

// completedOf returns the realized total lex order of a layered part
// (zero for SUM and materialized parts).
func completedOf(p access.Ranked) order.Lex {
	if la, ok := p.(*access.Lex); ok {
		return la.Completed
	}
	return order.Lex{}
}

// ownedSet deduplicates and validates the owned shard indices,
// returning them in ascending order.
func ownedSet(pt Partitioning, owned []int) ([]int, error) {
	if len(owned) == 0 {
		return nil, fmt.Errorf("shard: no owned shards requested")
	}
	own := make([]bool, pt.P)
	for _, s := range owned {
		if s < 0 || s >= pt.P {
			return nil, fmt.Errorf("shard: owned shard %d outside [0, %d)", s, pt.P)
		}
		own[s] = true
	}
	out := make([]int, 0, len(owned))
	for s, ok := range own {
		if ok {
			out = append(out, s)
		}
	}
	return out, nil
}

// Count answers the owned shards' share of |Q(I)| — all of it when
// owned = pt.All() — by splitting the instance and counting every owned
// shard in parallel; shard answer sets partition Q(I), so the counts
// sum. The per-shard counting is the same linear free-connex counting
// the single-shard path uses.
func Count(q *cq.Query, in *database.Instance, pt Partitioning, owned []int) (int64, error) {
	shards, err := ownedSet(pt, owned)
	if err != nil {
		return 0, err
	}
	ins := Split(q, in, pt, shards)
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
