package access

import (
	"context"
	"sort"

	"rankedaccess/internal/classify"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/fd"
	"rankedaccess/internal/hypergraph"
	"rankedaccess/internal/order"
	"rankedaccess/internal/reduce"
	"rankedaccess/internal/values"
)

// Sum is the ⟨n log n, 1⟩ direct-access structure by a SUM order for the
// tractable class of Theorem 5.1 (acyclic queries with an atom containing
// all free variables, equivalently α_free ≤ 1): the answer set fits in a
// single reduced relation, so it is materialized, weighted, and sorted.
type Sum struct {
	// Query is the original query.
	Query *cq.Query
	// Weights is the SUM order used.
	Weights order.Sum

	answers []order.Answer
	weights []float64
	project func(order.Answer) order.Answer
}

// BuildSum constructs the structure, failing with *IntractableError when
// q is outside the tractable class of Theorem 5.1.
func BuildSum(q *cq.Query, in *database.Instance, w order.Sum) (*Sum, error) {
	if v := classify.DirectAccessSum(q); !v.Tractable {
		return nil, &IntractableError{Verdict: v}
	}
	return buildSum(q, in, w)
}

// BuildSumFD is the Theorem 8.9 variant: the criterion and the structure
// apply to the FD-extension over the extended instance; the promoted free
// variables weigh zero (Lemma 8.5), so answer weights are unchanged.
func BuildSumFD(q *cq.Query, in *database.Instance, w order.Sum, fds fd.Set) (*Sum, error) {
	verdict, wfd := classify.DirectAccessSumFD(q, fds)
	if !verdict.Tractable {
		return nil, &IntractableError{Verdict: verdict}
	}
	if err := fds.Check(q, in); err != nil {
		return nil, err
	}
	iplus, err := wfd.Ext.ExtendInstance(q, in)
	if err != nil {
		return nil, err
	}
	s, err := buildSum(wfd.Ext.Query, iplus, w)
	if err != nil {
		return nil, err
	}
	orig := q
	s.Query = orig
	s.project = func(a order.Answer) order.Answer { return fd.ProjectAnswer(orig, a) }
	return s, nil
}

func buildSum(q *cq.Query, in *database.Instance, w order.Sum) (*Sum, error) {
	full, err := reduce.FreeReduce(q, in)
	if err != nil {
		return nil, err
	}
	tree, err := reduce.BuildTree(full)
	if err != nil {
		return nil, err
	}
	tree.Yannakakis()

	s := &Sum{Query: q, Weights: w}
	if q.IsBoolean() {
		if booleanTrue(full) {
			s.answers = []order.Answer{make(order.Answer, q.NumVars())}
			s.weights = []float64{0}
		}
		return s, nil
	}

	// Find the node covering all free variables (guaranteed by the
	// tractability criterion).
	free := hypergraph.VSet(q.Free())
	var big *reduce.Node
	for _, n := range full.Nodes {
		if hypergraph.Subset(free, n.VarSet()) {
			big = n
			break
		}
	}
	if big == nil {
		// Unreachable given the classification; keep a defensive error.
		return nil, &IntractableError{Verdict: classify.DirectAccessSum(q)}
	}
	// After the full reduction every tuple of big participates in an
	// answer, and big's variables are exactly the free variables, so its
	// tuples are the answers. All answers share one flat backing array
	// (one allocation instead of one per answer).
	n := big.Rel.Len()
	nv := q.NumVars()
	backing := make([]values.Value, n*nv)
	s.answers = make([]order.Answer, 0, n)
	s.weights = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := big.Rel.Tuple(i)
		a := backing[i*nv : (i+1)*nv : (i+1)*nv]
		for c, v := range big.Vars {
			a[v] = t[c]
		}
		s.answers = append(s.answers, a)
		s.weights = append(s.weights, w.AnswerWeight(q, a))
	}
	// Sort by weight, ties by ascending head values (deterministic).
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		wi, wj := s.weights[idx[i]], s.weights[idx[j]]
		if wi != wj {
			return wi < wj
		}
		ai, aj := s.answers[idx[i]], s.answers[idx[j]]
		for _, v := range q.Head {
			if ai[v] != aj[v] {
				return ai[v] < aj[v]
			}
		}
		return false
	})
	ans := make([]order.Answer, n)
	ws := make([]float64, n)
	for i, k := range idx {
		ans[i], ws[i] = s.answers[k], s.weights[k]
	}
	s.answers, s.weights = ans, ws
	return s, nil
}

// Total returns |Q(I)|.
func (s *Sum) Total() int64 { return int64(len(s.answers)) }

// Access returns the k-th answer by increasing weight in O(1).
func (s *Sum) Access(k int64) (order.Answer, error) {
	if k < 0 || k >= int64(len(s.answers)) {
		return nil, ErrOutOfBound
	}
	a := s.answers[k]
	if s.project != nil {
		return s.project(a), nil
	}
	return a, nil
}

// AnswerAt implements Ranked.
func (s *Sum) AnswerAt(_ context.Context, dst order.Answer, k int64) (order.Answer, error) {
	return sortedAnswerAt(s.answers, s.project, dst, k)
}

// AppendWindow implements Ranked.
func (s *Sum) AppendWindow(_ context.Context, dst []values.Value, k0, k1 int64) ([]values.Value, error) {
	return appendSortedWindow(s.answers, s.Query.Head, dst, k0, k1)
}

// RankOf implements Ranked; it never fails.
func (s *Sum) RankOf(_ context.Context, a order.Answer) (int64, bool, error) {
	r, member := s.Rank(a)
	return r, member, nil
}

// Compare implements Ranked: ascending weight, ties by head values.
func (s *Sum) Compare(a, b order.Answer) int { return CompareSumTotal(s.Query, s.Weights, a, b) }

// WeightAt returns the weight of the k-th answer.
func (s *Sum) WeightAt(k int64) (float64, error) {
	if k < 0 || k >= int64(len(s.weights)) {
		return 0, ErrOutOfBound
	}
	return s.weights[k], nil
}

// WeightLookup returns the first index whose answer has exactly weight
// λ, or -1 (Definition 5.5), via binary search in O(log n).
func (s *Sum) WeightLookup(lambda float64) int64 {
	i := sort.SearchFloat64s(s.weights, lambda)
	if i < len(s.weights) && s.weights[i] == lambda {
		return int64(i)
	}
	return -1
}
