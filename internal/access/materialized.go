package access

import (
	"context"

	"rankedaccess/internal/baseline"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// Materialized is the fallback direct-access structure for (query, order)
// pairs on the intractable side of the dichotomies: it materializes and
// sorts the full answer set. Construction costs Θ(|Q(I)|) time and space
// — which the paper proves cannot be avoided up to polylogarithmic
// factors for these inputs — and each access costs O(1).
//
// It exists so that applications can degrade gracefully: use
// BuildLex/BuildSum when the classification allows, and fall back to
// Materialized (accepting the blow-up) otherwise, as discussed in the
// paper's "Applicability" note (§1) for reductions from harder classes.
type Materialized struct {
	// Query is the query whose answers are accessed.
	Query *cq.Query

	answers []order.Answer
	weights []float64 // only for SUM materializations

	// The realized order, fixed at build time: lex (ties by head) for
	// lex materializations, sum (weight, then head) when bySum.
	lex   order.Lex
	sum   order.Sum
	bySum bool
}

// BuildMaterializedLex materializes Q(I) sorted by the given order
// (completed deterministically by ascending head components).
func BuildMaterializedLex(q *cq.Query, in *database.Instance, l order.Lex) *Materialized {
	return &Materialized{Query: q, answers: baseline.SortedByLex(q, in, l), lex: l}
}

// BuildMaterializedSum materializes Q(I) sorted by total weight.
func BuildMaterializedSum(q *cq.Query, in *database.Instance, w order.Sum) *Materialized {
	m := &Materialized{Query: q, answers: baseline.SortedBySum(q, in, w), sum: w, bySum: true}
	m.weights = make([]float64, len(m.answers))
	for i, a := range m.answers {
		m.weights[i] = w.AnswerWeight(q, a)
	}
	return m
}

// Total returns |Q(I)|.
func (m *Materialized) Total() int64 { return int64(len(m.answers)) }

// Access returns the k-th answer in O(1).
func (m *Materialized) Access(k int64) (order.Answer, error) {
	if k < 0 || k >= int64(len(m.answers)) {
		return nil, ErrOutOfBound
	}
	return m.answers[k], nil
}

// AnswerAt implements Ranked.
func (m *Materialized) AnswerAt(_ context.Context, dst order.Answer, k int64) (order.Answer, error) {
	return sortedAnswerAt(m.answers, nil, dst, k)
}

// AppendWindow implements Ranked.
func (m *Materialized) AppendWindow(_ context.Context, dst []values.Value, k0, k1 int64) ([]values.Value, error) {
	return appendSortedWindow(m.answers, m.Query.Head, dst, k0, k1)
}

// RankOf implements Ranked; it never fails.
func (m *Materialized) RankOf(_ context.Context, a order.Answer) (int64, bool, error) {
	r, member := m.Rank(a)
	return r, member, nil
}

// Compare implements Ranked: the order the answers were sorted by at
// build time, ties by ascending head values.
func (m *Materialized) Compare(a, b order.Answer) int {
	if m.bySum {
		return CompareSumTotal(m.Query, m.sum, a, b)
	}
	return compareFull(m.Query, m.lex, a, b)
}

// WeightAt returns the weight of the k-th answer for SUM
// materializations (0 for LEX ones).
func (m *Materialized) WeightAt(k int64) (float64, error) {
	if k < 0 || k >= int64(len(m.answers)) {
		return 0, ErrOutOfBound
	}
	if m.weights == nil {
		return 0, nil
	}
	return m.weights[k], nil
}

// Inverted returns the index of the given answer, or ErrNotAnAnswer,
// by binary search over the materialized array (O(log n)).
func (m *Materialized) Inverted(a order.Answer) (int64, error) {
	k, member := m.Rank(a)
	if !member {
		return 0, ErrNotAnAnswer
	}
	return k, nil
}

func compareFull(q *cq.Query, l order.Lex, a, b order.Answer) int {
	if c := l.Compare(a, b); c != 0 {
		return c
	}
	return compareHead(q, a, b)
}
