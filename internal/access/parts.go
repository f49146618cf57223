package access

import (
	"fmt"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
	"rankedaccess/internal/tupleidx"
	"rankedaccess/internal/values"
)

// This file exports the built structures' flat arrays for snapshot
// persistence and reconstructs structures from persisted (possibly
// memory-mapped) arrays without re-running preprocessing: a warm start
// points every layer's vals/weights/starts/bucket columns — and the
// bucket index's key and table buffers — at the mapped file and is
// immediately probe-ready.
//
// The FromParts constructors validate the structural invariants the
// probe algorithms rely on for memory safety and termination (shapes,
// index bounds, zero start offsets, strictly positive weights); value-
// level correctness is the snapshot checksums' job.

// LexLayerParts is the flat state of one layer of a built Lex. Children
// and the child key-gather plans are not part of it: they are
// recomputed from Parent and KeyVars, exactly as the builder derived
// them.
type LexLayerParts struct {
	Var     cq.VarID
	Desc    bool
	Parent  int
	KeyVars []cq.VarID

	Vals    []values.Value
	Weights []int64
	Starts  []int64

	Buckets      int
	BucketStart  []int
	BucketEnd    []int
	BucketWeight []int64
	BucketKeys   []values.Value
	BucketTable  []int32
}

// LexParts is the flat state of a built Lex structure.
type LexParts struct {
	Completed order.Lex
	Total     int64
	NumVars   int
	Boolean   bool
	BoolTrue  bool
	Layers    []LexLayerParts
}

// Parts exports the structure's flat arrays (views, not copies; the
// caller must not mutate them). ok is false when the structure carries
// FD-extension closures, which cannot be persisted — callers should
// rebuild such structures from their spec instead.
func (la *Lex) Parts() (*LexParts, bool) {
	if la.project != nil || la.extend != nil {
		return nil, false
	}
	p := &LexParts{
		Completed: la.Completed,
		Total:     la.total,
		NumVars:   la.numVars,
		Boolean:   la.boolean,
		BoolTrue:  la.boolTrue,
		Layers:    make([]LexLayerParts, len(la.layers)),
	}
	for i := range la.layers {
		ly := &la.layers[i]
		p.Layers[i] = LexLayerParts{
			Var: ly.v, Desc: ly.dir == order.Desc, Parent: ly.parent, KeyVars: ly.keyVars,
			Vals: ly.vals, Weights: ly.weights, Starts: ly.starts,
			Buckets: ly.bucketOf.Len(), BucketStart: ly.bucketStart, BucketEnd: ly.bucketEnd,
			BucketWeight: ly.bucketWeight, BucketKeys: ly.bucketOf.FlatKeys(), BucketTable: ly.bucketOf.Table(),
		}
	}
	return p, true
}

// LexFromParts reconstructs a Lex for q from exported parts. The part
// slices are aliased, so they may point into a mapped snapshot; the
// returned structure is immutable, as all built structures are.
func LexFromParts(q *cq.Query, p *LexParts) (*Lex, error) {
	if p.NumVars != q.NumVars() {
		return nil, fmt.Errorf("access: parts carry %d variables, query has %d", p.NumVars, q.NumVars())
	}
	la := &Lex{
		Query: q, Completed: p.Completed, total: p.Total, numVars: p.NumVars,
		boolean: p.Boolean, boolTrue: p.BoolTrue,
	}
	if p.Boolean {
		if len(p.Layers) != 0 {
			return nil, fmt.Errorf("access: boolean structure with %d layers", len(p.Layers))
		}
		want := int64(0)
		if p.BoolTrue {
			want = 1
		}
		if p.Total != want {
			return nil, fmt.Errorf("access: boolean structure with total %d", p.Total)
		}
		return la, nil
	}
	f := len(p.Layers)
	if len(p.Completed.Entries) != f {
		return nil, fmt.Errorf("access: %d layers vs %d completed-order entries", f, len(p.Completed.Entries))
	}
	la.layers = make([]layer, f)
	for i := range p.Layers {
		if err := layerFromParts(&la.layers[i], i, &p.Layers[i], p.NumVars); err != nil {
			return nil, err
		}
		if nk := len(la.layers[i].keyVars); nk > la.maxKey {
			la.maxKey = nk
		}
	}
	// Recompute children and the child key-gather plans from the parent
	// pointers, as the builder does.
	for i := 1; i < f; i++ {
		ly := &la.layers[i]
		parent := &la.layers[ly.parent]
		parent.children = append(parent.children, i)
		ly.keyFrom = make([]int, len(ly.keyVars))
		for j, u := range ly.keyVars {
			ly.keyFrom[j] = -1
			if u == parent.v {
				continue
			}
			found := false
			for c, pu := range parent.keyVars {
				if pu == u {
					ly.keyFrom[j] = c
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("access: layer %d key variable not available from parent layer", i)
			}
		}
	}
	// The root must hold the whole count in a single bucket (or be empty
	// along with the answer set).
	root := &la.layers[0]
	switch len(root.bucketWeight) {
	case 0:
		if p.Total != 0 {
			return nil, fmt.Errorf("access: empty root layer with total %d", p.Total)
		}
	case 1:
		if root.bucketWeight[0] != p.Total {
			return nil, fmt.Errorf("access: root weight %d vs total %d", root.bucketWeight[0], p.Total)
		}
	default:
		return nil, fmt.Errorf("access: root layer has %d buckets", len(root.bucketWeight))
	}
	return la, nil
}

// layerFromParts validates and installs one layer. The checks mirror
// what bucketize guarantees: per-bucket ranges tile [0, n), starts
// begin at 0 and advance by strictly positive weights, and the bucket
// weight closes the sum — which is exactly what keeps the access
// descent's binary searches and divisions safe.
func layerFromParts(ly *layer, i int, lp *LexLayerParts, numVars int) error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("access: layer %d: %s", i, fmt.Sprintf(format, args...))
	}
	if int(lp.Var) < 0 || int(lp.Var) >= numVars {
		return fail("variable %d out of range", lp.Var)
	}
	for _, u := range lp.KeyVars {
		if int(u) < 0 || int(u) >= numVars {
			return fail("key variable %d out of range", u)
		}
	}
	if (i == 0) != (lp.Parent == -1) || lp.Parent >= i || lp.Parent < -1 {
		return fail("bad parent %d", lp.Parent)
	}
	n := len(lp.Vals)
	if len(lp.Weights) != n || len(lp.Starts) != n {
		return fail("column lengths %d/%d/%d disagree", n, len(lp.Weights), len(lp.Starts))
	}
	b := lp.Buckets
	if len(lp.BucketStart) != b || len(lp.BucketEnd) != b || len(lp.BucketWeight) != b {
		return fail("bucket column lengths disagree")
	}
	idx, err := tupleidx.FromParts(len(lp.KeyVars), b, lp.BucketKeys, lp.BucketTable)
	if err != nil {
		return fail("%v", err)
	}
	prevEnd := 0
	for j := 0; j < b; j++ {
		lo, hi := lp.BucketStart[j], lp.BucketEnd[j]
		if lo != prevEnd || hi < lo || hi > n {
			return fail("bucket %d spans [%d, %d) outside the expected run", j, lo, hi)
		}
		prevEnd = hi
		if hi == lo {
			return fail("bucket %d is empty", j)
		}
		sum := int64(0)
		for t := lo; t < hi; t++ {
			if lp.Starts[t] != sum {
				return fail("start offset %d of tuple %d breaks the prefix sum", lp.Starts[t], t)
			}
			if lp.Weights[t] <= 0 {
				return fail("non-positive weight %d of tuple %d", lp.Weights[t], t)
			}
			sum += lp.Weights[t]
			if sum < 0 {
				return fail("weight overflow in bucket %d", j)
			}
		}
		if lp.BucketWeight[j] != sum {
			return fail("bucket %d weight %d, tuples sum to %d", j, lp.BucketWeight[j], sum)
		}
	}
	if prevEnd != n {
		return fail("buckets cover %d of %d tuples", prevEnd, n)
	}
	dir := order.Asc
	if lp.Desc {
		dir = order.Desc
	}
	*ly = layer{
		v: lp.Var, dir: dir, keyVars: lp.KeyVars, parent: lp.Parent,
		vals: lp.Vals, weights: lp.Weights, starts: lp.Starts,
		bucketOf: idx, bucketStart: lp.BucketStart, bucketEnd: lp.BucketEnd,
		bucketWeight: lp.BucketWeight,
	}
	return nil
}

// SumParts is the flat state of a built Sum structure: the answers in
// rank order, row-major at stride NumVars, plus the per-answer weights.
type SumParts struct {
	NumVars int
	Flat    []values.Value
	Weights []float64
}

// Parts exports the structure's answers as one flat array (copied: the
// built answers alias construction-order backing). ok is false when the
// structure carries an FD projection closure.
func (s *Sum) Parts() (*SumParts, bool) {
	if s.project != nil {
		return nil, false
	}
	nv := s.Query.NumVars()
	flat := make([]values.Value, 0, len(s.answers)*nv)
	for _, a := range s.answers {
		flat = append(flat, a...)
	}
	return &SumParts{NumVars: nv, Flat: flat, Weights: s.weights}, true
}

// SumFromParts reconstructs a Sum for q under the weight order w. The
// flat answer array is aliased and sliced per answer.
func SumFromParts(q *cq.Query, w order.Sum, p *SumParts) (*Sum, error) {
	answers, err := sliceAnswers(q, p.NumVars, p.Flat)
	if err != nil {
		return nil, err
	}
	if len(p.Weights) != len(answers) {
		return nil, fmt.Errorf("access: %d weights for %d answers", len(p.Weights), len(answers))
	}
	for i := 1; i < len(p.Weights); i++ {
		if p.Weights[i] < p.Weights[i-1] {
			return nil, fmt.Errorf("access: answer weights not sorted at rank %d", i)
		}
	}
	return &Sum{Query: q, Weights: w, answers: answers, weights: p.Weights}, nil
}

// MatParts is SumParts for materialized structures, plus the realized
// order they were sorted by: Lex, or Sum when BySum. Weights is nil for
// lex materializations.
type MatParts struct {
	NumVars int
	Flat    []values.Value
	Weights []float64
	Lex     order.Lex
	Sum     order.Sum
	BySum   bool
}

// Parts exports the materialized answers as one flat array (copied).
func (m *Materialized) Parts() *MatParts {
	nv := m.Query.NumVars()
	flat := make([]values.Value, 0, len(m.answers)*nv)
	for _, a := range m.answers {
		flat = append(flat, a...)
	}
	return &MatParts{NumVars: nv, Flat: flat, Weights: m.weights, Lex: m.lex, Sum: m.sum, BySum: m.bySum}
}

// MatFromParts reconstructs a Materialized for q.
func MatFromParts(q *cq.Query, p *MatParts) (*Materialized, error) {
	answers, err := sliceAnswers(q, p.NumVars, p.Flat)
	if err != nil {
		return nil, err
	}
	if p.Weights != nil && len(p.Weights) != len(answers) {
		return nil, fmt.Errorf("access: %d weights for %d answers", len(p.Weights), len(answers))
	}
	return &Materialized{Query: q, answers: answers, weights: p.Weights, lex: p.Lex, sum: p.Sum, bySum: p.BySum}, nil
}

// sliceAnswers carves a flat row-major answer array into per-answer
// views.
func sliceAnswers(q *cq.Query, numVars int, flat []values.Value) ([]order.Answer, error) {
	if numVars != q.NumVars() {
		return nil, fmt.Errorf("access: parts carry %d variables, query has %d", numVars, q.NumVars())
	}
	if numVars == 0 {
		if len(flat) != 0 {
			return nil, fmt.Errorf("access: %d flat values for a variable-free query", len(flat))
		}
		return nil, nil
	}
	if len(flat)%numVars != 0 {
		return nil, fmt.Errorf("access: %d flat values do not tile %d variables", len(flat), numVars)
	}
	n := len(flat) / numVars
	answers := make([]order.Answer, n)
	for i := 0; i < n; i++ {
		answers[i] = flat[i*numVars : (i+1)*numVars : (i+1)*numVars]
	}
	return answers, nil
}
