package access

import (
	"sort"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
)

// This file extends the SUM and materialized structures with rank
// queries ("how many answers strictly precede this tuple in the realized
// order"), mirroring Lex.Rank. Rank is what makes the structures
// horizontally mergeable: a sharded deployment answers global direct
// access by summing per-shard ranks (see internal/shard), so every
// structure that wants to participate in a shard group must price a
// tuple against its local answers in O(log n).

// compareHead compares two answers by ascending head values, the
// deterministic tie-break every materializing structure uses.
func compareHead(q *cq.Query, a, b order.Answer) int {
	for _, v := range q.Head {
		if a[v] != b[v] {
			if a[v] < b[v] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// CompareLexTotal compares two answers in the total order realized by a
// lex materialization: the (possibly partial) requested order, ties
// broken by ascending head values. Exported for shard-merge callers that
// need the same comparator the structure sorted by.
func CompareLexTotal(q *cq.Query, l order.Lex, a, b order.Answer) int {
	return compareFull(q, l, a, b)
}

// CompareSumTotal compares two answers in the total order realized by a
// SUM structure: ascending weight, ties broken by ascending head values.
func CompareSumTotal(q *cq.Query, w order.Sum, a, b order.Answer) int {
	wa, wb := w.AnswerWeight(q, a), w.AnswerWeight(q, b)
	switch {
	case wa < wb:
		return -1
	case wa > wb:
		return 1
	}
	return compareHead(q, a, b)
}

// Rank returns the number of answers strictly preceding the given tuple
// in the structure's (weight, head) order, and whether the tuple is
// itself an answer. The tuple must assign every head variable of Query;
// it need not be an answer. Runs in O(log n).
func (s *Sum) Rank(a order.Answer) (int64, bool) {
	w := s.Weights.AnswerWeight(s.Query, a)
	lo := sort.Search(len(s.answers), func(i int) bool {
		if s.weights[i] != w {
			return s.weights[i] > w
		}
		return compareHead(s.Query, s.answers[i], a) >= 0
	})
	exact := lo < len(s.answers) && s.weights[lo] == w &&
		compareHead(s.Query, s.answers[lo], a) == 0
	return int64(lo), exact
}

// Rank returns the number of answers strictly preceding the given
// tuple in the materialization's realized order (see Compare), and
// whether the tuple is itself an answer. Runs in O(log n).
func (m *Materialized) Rank(a order.Answer) (int64, bool) {
	if !m.bySum {
		lo := sort.Search(len(m.answers), func(i int) bool {
			return compareFull(m.Query, m.lex, m.answers[i], a) >= 0
		})
		exact := lo < len(m.answers) && compareFull(m.Query, m.lex, m.answers[lo], a) == 0
		return int64(lo), exact
	}
	wa := m.sum.AnswerWeight(m.Query, a)
	lo := sort.Search(len(m.answers), func(i int) bool {
		wi := wa
		if m.weights != nil {
			wi = m.weights[i]
		}
		if wi != wa {
			return wi > wa
		}
		return compareHead(m.Query, m.answers[i], a) >= 0
	})
	exact := lo < len(m.answers) && compareHead(m.Query, m.answers[lo], a) == 0
	if exact && m.weights != nil && m.weights[lo] != wa {
		exact = false
	}
	return int64(lo), exact
}
