package shard

import (
	"fmt"
	"time"

	"rankedaccess/internal/access"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/par"
	"rankedaccess/internal/selection"
)

// BuildLex splits the instance per pt and builds one layered
// lexicographic structure per shard in parallel. All shards complete
// the requested order over the same query structure, so they realize
// the same total order; that is verified defensively and a mismatch is
// an error. FD specs must be extended globally by the caller first
// (extend once, shard the extension): per-shard FD plumbing would
// price foreign candidates against incomplete local FD tables.
func BuildLex(q *cq.Query, in *database.Instance, l order.Lex, pt Partitioning) (*Handle, error) {
	ins := Split(q, in, pt)
	las := make([]*access.Lex, pt.P)
	nanos := make([]int64, pt.P)
	err := par.DoErr(pt.P, func(i int) error {
		start := time.Now()
		la, err := access.BuildLex(q, ins[i], l)
		if err != nil {
			return err
		}
		las[i], nanos[i] = la, time.Since(start).Nanoseconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	completed := las[0].Completed
	for i := 1; i < pt.P; i++ {
		if !sameLex(completed, las[i].Completed) {
			return nil, fmt.Errorf("shard: internal: shard %d realized order %v, shard 0 realized %v",
				i, las[i].Completed.Entries, completed.Entries)
		}
	}
	parts := make([]access.Ranked, pt.P)
	for i, la := range las {
		parts[i] = la
	}
	h := newHandle(q, pt, parts)
	h.Completed = completed
	h.BuildNanos = nanos
	return h, nil
}

func sameLex(a, b order.Lex) bool {
	if len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			return false
		}
	}
	return true
}

// BuildSum is BuildLex for the ⟨n log n, 1⟩ SUM structures: per-shard
// answer arrays sorted by (weight, head), merged under the same
// comparator. FD specs must be extended globally by the caller first.
func BuildSum(q *cq.Query, in *database.Instance, w order.Sum, pt Partitioning) (*Handle, error) {
	ins := Split(q, in, pt)
	sums := make([]*access.Sum, pt.P)
	nanos := make([]int64, pt.P)
	err := par.DoErr(pt.P, func(i int) error {
		start := time.Now()
		s, err := access.BuildSum(q, ins[i], w)
		if err != nil {
			return err
		}
		sums[i], nanos[i] = s, time.Since(start).Nanoseconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	parts := make([]access.Ranked, pt.P)
	for i, s := range sums {
		parts[i] = s
	}
	h := newHandle(q, pt, parts)
	h.BuildNanos = nanos
	return h, nil
}

// BuildMaterializedLex shards the materialize-and-sort fallback: each
// shard materializes only its own slice of the (possibly intractable)
// answer space, so the Θ(|Q(I)|) cost is split P ways across cores.
func BuildMaterializedLex(q *cq.Query, in *database.Instance, l order.Lex, pt Partitioning) (*Handle, error) {
	return buildMaterialized(q, in, pt, func(si *database.Instance) *access.Materialized {
		return access.BuildMaterializedLex(q, si, l)
	}), nil
}

// BuildMaterializedSum is BuildMaterializedLex for SUM orders.
func BuildMaterializedSum(q *cq.Query, in *database.Instance, w order.Sum, pt Partitioning) (*Handle, error) {
	return buildMaterialized(q, in, pt, func(si *database.Instance) *access.Materialized {
		return access.BuildMaterializedSum(q, si, w)
	}), nil
}

func buildMaterialized(q *cq.Query, in *database.Instance, pt Partitioning, build func(*database.Instance) *access.Materialized) *Handle {
	ins := Split(q, in, pt)
	parts := make([]access.Ranked, pt.P)
	nanos := make([]int64, pt.P)
	par.Do(pt.P, func(i int) {
		start := time.Now()
		parts[i] = build(ins[i])
		nanos[i] = time.Since(start).Nanoseconds()
	})
	h := newHandle(q, pt, parts)
	h.BuildNanos = nanos
	return h
}

// Count answers |Q(I)| by splitting the instance and counting every
// shard in parallel; shard answer sets partition Q(I), so the counts
// sum. The per-shard counting is the same linear free-connex counting
// the single-shard path uses.
func Count(q *cq.Query, in *database.Instance, pt Partitioning) (int64, error) {
	ins := Split(q, in, pt)
	counts := make([]int64, pt.P)
	err := par.DoErr(pt.P, func(i int) error {
		n, err := selection.CountAnswers(q, ins[i])
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
