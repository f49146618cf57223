package access

import (
	"context"
	"fmt"
	"sort"

	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// LexBuf holds the scratch state of one access probe, so steady-state
// probes allocate nothing. A LexBuf may be reused across any number of
// calls against the structure that created it, but not concurrently:
// use one LexBuf per goroutine (or the pooling convenience APIs).
type LexBuf struct {
	ans    []values.Value
	bucket []int
	key    []values.Value
}

// NewBuf returns a probe buffer sized for this structure.
func (la *Lex) NewBuf() *LexBuf {
	return &LexBuf{
		ans:    make([]values.Value, la.numVars),
		bucket: make([]int, len(la.layers)),
		key:    make([]values.Value, la.maxKey),
	}
}

// getBuf/putBuf feed the probes of structures too large for stack
// scratch (see scratchSlots) from a pool.
func (la *Lex) getBuf() *LexBuf {
	if b, ok := la.bufs.Get().(*LexBuf); ok {
		return b
	}
	return la.NewBuf()
}

func (la *Lex) putBuf(b *LexBuf) { la.bufs.Put(b) }

// scratchSlots bounds the structures whose probes run on fixed-size
// scratch arrays on the caller's stack: at most this many variables,
// layers, and key columns. Stack scratch keeps the single-answer and
// window paths allocation-free deterministically, where a sync.Pool may
// shed entries (at every GC, and at random under the race detector).
// Larger structures take their scratch from the pool.
const scratchSlots = 16

// stackScratch is descent scratch sized by scratchSlots.
type stackScratch struct {
	ans    [scratchSlots]values.Value
	bucket [scratchSlots]int
	key    [scratchSlots]values.Value
}

// onStack reports whether the structure's probes fit stackScratch.
func (la *Lex) onStack() bool {
	return la.numVars <= scratchSlots && len(la.layers) <= scratchSlots && la.maxKey <= scratchSlots
}

// Access returns the k-th answer (0-based) in the completed
// lexicographic order, in O(log n) time (Algorithm 1). The returned
// answer is freshly allocated; use AccessInto to reuse a caller buffer.
func (la *Lex) Access(k int64) (order.Answer, error) {
	return la.AnswerAt(context.Background(), nil, k)
}

// AccessInto is Access writing into buf: the returned answer aliases
// buf's storage and is valid until buf's next use. Steady-state calls
// perform zero allocations (FD-extended structures excepted: their
// answer projection still copies).
func (la *Lex) AccessInto(buf *LexBuf, k int64) (order.Answer, error) {
	ans := buf.ans[:la.numVars]
	if err := la.descend(ans, buf.bucket, buf.key, k); err != nil {
		return nil, err
	}
	return la.output(ans), nil
}

// AnswerAt implements Ranked: the descent writes the answer into dst
// (a fresh slice when dst is too small), with its bucket and key
// scratch on the stack, or pooled for structures too large for it.
func (la *Lex) AnswerAt(_ context.Context, dst order.Answer, k int64) (order.Answer, error) {
	if cap(dst) < la.numVars {
		dst = make(order.Answer, la.numVars)
	}
	ans := dst[:la.numVars]
	var err error
	if la.onStack() {
		var st stackScratch
		err = la.descend(ans, st.bucket[:], st.key[:], k)
	} else {
		buf := la.getBuf()
		err = la.descend(ans, buf.bucket, buf.key, k)
		la.putBuf(buf)
	}
	if err != nil {
		return nil, err
	}
	return la.output(ans), nil
}

// descend runs Algorithm 1 for the k-th answer, writing every variable
// slot of ans (existential ones read as zero) and using bucket (one
// slot per layer) and key (maxKey slots) as scratch. It never applies
// the FD projection: head positions already hold the original query's
// values.
func (la *Lex) descend(ans []values.Value, bucket []int, key []values.Value, k int64) error {
	if la.boolean {
		if la.boolTrue && k == 0 {
			clear(ans)
			return nil
		}
		return ErrOutOfBound
	}
	if k < 0 || k >= la.total {
		return ErrOutOfBound
	}
	f := len(la.layers)
	bucket = bucket[:f]
	bucket[0] = 0
	factor := la.total
	clear(ans) // existential positions must read as zero, as before
	for i := 0; i < f; i++ {
		ly := &la.layers[i]
		b := bucket[i]
		factor /= ly.bucketWeight[b]
		lo, hi := ly.bucketStart[b], ly.bucketEnd[b]
		// Largest tuple index t in [lo, hi) with starts[t]*factor ≤ k.
		t := lo + sort.Search(hi-lo, func(j int) bool {
			return ly.starts[lo+j]*factor > k
		}) - 1
		if t < lo {
			return fmt.Errorf("access: internal: binary search fell off bucket")
		}
		k -= ly.starts[t] * factor
		ans[ly.v] = ly.vals[t]
		for _, c := range ly.children {
			child := &la.layers[c]
			cb, ok := la.childBucket(child, ly.bucketOf.Key(b), ly.vals[t], key)
			if !ok {
				return fmt.Errorf("access: internal: missing child bucket during access")
			}
			bucket[c] = cb
			factor *= child.bucketWeight[cb]
		}
	}
	if k != 0 {
		return fmt.Errorf("access: internal: residual index %d after descent", k)
	}
	return nil
}

// AppendTuple appends the head projection of the k-th answer to dst and
// returns the extended slice, allocating only when dst lacks capacity.
func (la *Lex) AppendTuple(dst []values.Value, k int64) ([]values.Value, error) {
	if k < 0 || k >= la.total {
		return dst, ErrOutOfBound
	}
	return la.AppendWindow(context.Background(), dst, k, k+1)
}

// AppendRange appends the head projections of answers k0 ≤ k < k1 to
// dst, reusing one probe scratch for the whole range so the per-answer
// overhead is a single descent (no allocation beyond dst growth).
func (la *Lex) AppendRange(dst []values.Value, k0, k1 int64) ([]values.Value, error) {
	return la.AppendWindow(context.Background(), dst, k0, k1)
}

// AppendWindow implements Ranked: one descent per answer of the
// window, all on the same stack or pooled scratch.
func (la *Lex) AppendWindow(_ context.Context, dst []values.Value, k0, k1 int64) ([]values.Value, error) {
	if la.onStack() {
		var st stackScratch
		return la.appendWindow(dst, st.ans[:la.numVars], st.bucket[:], st.key[:], k0, k1)
	}
	buf := la.getBuf()
	defer la.putBuf(buf)
	return la.appendWindow(dst, buf.ans[:la.numVars], buf.bucket, buf.key, k0, k1)
}

func (la *Lex) appendWindow(dst, ans []values.Value, bucket []int, key []values.Value, k0, k1 int64) ([]values.Value, error) {
	if badWindow(k0, k1, la.total) {
		return dst, ErrOutOfBound
	}
	for k := k0; k < k1; k++ {
		if err := la.descend(ans, bucket, key, k); err != nil {
			return dst, err
		}
		for _, v := range la.Query.Head {
			dst = append(dst, ans[v])
		}
	}
	return dst, nil
}

// output applies the FD projection (identity when no FDs are in play).
func (la *Lex) output(a order.Answer) order.Answer {
	if la.project != nil {
		return la.project(a)
	}
	return a
}

// input applies the FD answer-extension (identity without FDs). The bool
// is false when the given tuple cannot be extended (hence is not an
// answer and no answer shares its projection).
func (la *Lex) input(a order.Answer) (order.Answer, bool) {
	if la.extend != nil {
		return la.extend(a)
	}
	return a, true
}

// Rank returns the number of answers strictly preceding the given tuple
// in the completed order, and whether the tuple is itself an answer. The
// tuple is VarID-indexed and must assign every free variable of Query.
// Runs in O(log n).
func (la *Lex) Rank(a order.Answer) (int64, bool) {
	if la.onStack() {
		var st stackScratch
		return la.rank(a, st.bucket[:], st.key[:])
	}
	buf := la.getBuf()
	defer la.putBuf(buf)
	return la.rank(a, buf.bucket, buf.key)
}

// RankOf implements Ranked; it never fails.
func (la *Lex) RankOf(_ context.Context, a order.Answer) (int64, bool, error) {
	r, member := la.Rank(a)
	return r, member, nil
}

// Compare implements Ranked: the completed order totally orders the
// answers (Lemma 4.4); the head tie-break is a safety net only.
func (la *Lex) Compare(a, b order.Answer) int {
	if c := la.Completed.Compare(a, b); c != 0 {
		return c
	}
	return compareHead(la.Query, a, b)
}

func (la *Lex) rank(a order.Answer, bucket []int, key []values.Value) (int64, bool) {
	if la.boolean {
		return 0, la.boolTrue
	}
	ext, ok := la.input(a)
	if !ok {
		// The tuple disagrees with the FDs, so it is not an answer, and
		// its rank cannot be resolved below a missing implied value; rank
		// counts answers preceding it on the original-order prefix only.
		ext = a
	}
	if la.total == 0 {
		return 0, false
	}
	f := len(la.layers)
	bucket = bucket[:f]
	bucket[0] = 0
	factor := la.total
	var k int64
	exact := ok
	for i := 0; i < f; i++ {
		ly := &la.layers[i]
		b := bucket[i]
		factor /= ly.bucketWeight[b]
		lo, hi := ly.bucketStart[b], ly.bucketEnd[b]
		target := ext[ly.v]
		// Binary search for target under the layer direction.
		t := lo + sort.Search(hi-lo, func(j int) bool {
			if ly.dir == order.Desc {
				return ly.vals[lo+j] <= target
			}
			return ly.vals[lo+j] >= target
		})
		if t == hi || ly.vals[t] != target {
			// No tuple with this value: everything before position t
			// precedes the target; nothing deeper matches.
			if t == hi {
				k += ly.bucketWeight[b] * factor
			} else {
				k += ly.starts[t] * factor
			}
			return k, false
		}
		k += ly.starts[t] * factor
		for _, c := range ly.children {
			child := &la.layers[c]
			cb, okc := la.childBucket(child, ly.bucketOf.Key(b), ly.vals[t], key)
			if !okc {
				return k, false
			}
			bucket[c] = cb
			factor *= child.bucketWeight[cb]
		}
	}
	return k, exact
}

// Inverted implements Algorithm 2: given an answer, return its index in
// the completed order; ErrNotAnAnswer if the tuple is not an answer.
func (la *Lex) Inverted(a order.Answer) (int64, error) {
	k, exact := la.Rank(a)
	if !exact {
		return 0, ErrNotAnAnswer
	}
	return k, nil
}

// NextGE returns the index of the first answer that is ≥ the given tuple
// in the completed order (Remark 3's "next answer" access); if every
// answer precedes the tuple, it returns ErrOutOfBound.
func (la *Lex) NextGE(a order.Answer) (int64, error) {
	k, _ := la.Rank(a)
	if k >= la.total {
		return 0, ErrOutOfBound
	}
	return k, nil
}

// LayerCount returns the number of layers (the number of free variables
// of the completed order); 0 for Boolean queries.
func (la *Lex) LayerCount() int { return len(la.layers) }

// BucketDump describes one tuple of one layer, for inspection and for
// reproducing Figure 4.
type BucketDump struct {
	Key    []values.Value
	Value  values.Value
	Weight int64
	Start  int64
}

// DumpLayer returns the per-tuple weight/start table of a layer in
// storage order, reproducing the annotations of Figure 4.
func (la *Lex) DumpLayer(i int) []BucketDump {
	ly := &la.layers[i]
	out := make([]BucketDump, 0, len(ly.vals))
	for b := range ly.bucketStart {
		for t := ly.bucketStart[b]; t < ly.bucketEnd[b]; t++ {
			out = append(out, BucketDump{
				Key:    ly.bucketOf.Key(b),
				Value:  ly.vals[t],
				Weight: ly.weights[t],
				Start:  ly.starts[t],
			})
		}
	}
	return out
}

// LayerVar returns the lexicographic variable of layer i.
func (la *Lex) LayerVar(i int) values.Value { return values.Value(la.layers[i].v) }

// LayerParent returns the parent layer of layer i (-1 for the root).
func (la *Lex) LayerParent(i int) int { return la.layers[i].parent }
