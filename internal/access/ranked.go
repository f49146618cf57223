package access

import (
	"context"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// Ranked is the one surface every ranked-access structure answers: the
// layered lex structure (Theorem 4.1), the SUM structure (Theorem 5.1),
// the materialize-and-sort fallback, an Overlay merged over any of
// them, and the sharded and network-served handles of internal/shard
// all answer the same four questions — |Q(I)|, the k-th answer, a
// window of answers, and the rank of a tuple — under one realized
// total order. Implementations are immutable and safe for concurrent
// use.
//
// The context exists for network-served structures (deadline, trace
// propagation); in-process structures ignore it, and their RankOf never
// fails.
type Ranked interface {
	// Total returns |Q(I)|.
	Total() int64
	// AnswerAt returns the k-th answer (VarID-indexed, every variable
	// slot present) or ErrOutOfBound. The result is the caller's: it is
	// dst's storage when cap(dst) suffices, otherwise a fresh slice,
	// so passing the previous result back in reuses it.
	AnswerAt(ctx context.Context, dst order.Answer, k int64) (order.Answer, error)
	// AppendWindow appends the head projections of answers
	// k0 ≤ k < k1 to dst (head-width values each, concatenated). An
	// empty window appends nothing; a window reaching outside
	// [0, Total()] fails with ErrOutOfBound.
	AppendWindow(ctx context.Context, dst []values.Value, k0, k1 int64) ([]values.Value, error)
	// RankOf returns the number of answers strictly preceding a in the
	// realized order and whether a is itself an answer. a must assign
	// every head variable; it need not be an answer.
	RankOf(ctx context.Context, a order.Answer) (rank int64, member bool, err error)
	// Compare is the realized total order over answers: the order the
	// structure sorts by, ties broken by ascending head values.
	Compare(a, b order.Answer) int
}

// badWindow reports a window reaching outside [0, total]; empty and
// reversed windows are not errors (they select nothing).
func badWindow(k0, k1, total int64) bool {
	return k0 < k1 && (k0 < 0 || k1 > total)
}

// sortedAnswerAt is AnswerAt over a rank-ordered answer array, with
// an optional FD projection of the stored answer.
func sortedAnswerAt(answers []order.Answer, project func(order.Answer) order.Answer, dst order.Answer, k int64) (order.Answer, error) {
	if k < 0 || k >= int64(len(answers)) {
		return nil, ErrOutOfBound
	}
	if project != nil {
		return project(answers[k]), nil
	}
	return append(dst[:0], answers[k]...), nil
}

// appendSortedWindow is AppendWindow over a rank-ordered answer array.
func appendSortedWindow(answers []order.Answer, head []cq.VarID, dst []values.Value, k0, k1 int64) ([]values.Value, error) {
	if badWindow(k0, k1, int64(len(answers))) {
		return dst, ErrOutOfBound
	}
	for k := k0; k < k1; k++ {
		a := answers[k]
		for _, v := range head {
			dst = append(dst, a[v])
		}
	}
	return dst, nil
}
