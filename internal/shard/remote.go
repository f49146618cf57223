package shard

import (
	"context"

	"rankedaccess/internal/access"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
)

// BatchRanker prices an answer on every shard of the partitioning in
// one scatter round, filling ranks (length P, indexed by shard) and
// reporting whether any shard holds the answer exactly. The network
// implementation issues one RPC per node — each node ranks all its
// owned shards locally — and runs the nodes in parallel, so a locate
// iteration costs one access round trip plus one parallel rank round
// trip regardless of P.
type BatchRanker interface {
	RankAll(ctx context.Context, a order.Answer, ranks []int64) (exact bool, err error)
}

// NewRemote assembles a Handle over network-served parts: the same
// rank-merge machinery as the in-process sharded path (so distributed
// answers are byte-identical by construction), with per-answer probes
// going over parts[i] and whole-front rank pricing going through the
// batch ranker when one is given. Every part must realize the total
// order every node's structures sort by (parts[0].Compare merges), and
// should implement RangeFetcher so windows prefetch instead of paying
// one round trip per answer. completed is the realized lex order of
// layered builds (zero for SUM orders).
func NewRemote(q *cq.Query, pt Partitioning, parts []access.Ranked, ranker BatchRanker, completed order.Lex) *Handle {
	h := newHandle(q, pt, parts)
	h.ranker = ranker
	h.Completed = completed
	return h
}
