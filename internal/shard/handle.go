package shard

import (
	"context"
	"fmt"
	"sync"

	"rankedaccess/internal/access"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// RangeFetcher is the optional interface of parts whose per-answer
// access pays a network round trip: AppendWindow merges prefetch
// windows of their local answers through FetchRange instead of probing
// one answer at a time.
type RangeFetcher interface {
	FetchRange(ctx context.Context, k0, k1 int64) ([]order.Answer, error)
}

// Handle merges P per-shard structures sharing one total answer order
// into a single logical accessor, itself an access.Ranked. It is
// immutable after construction and safe for any number of concurrent
// goroutines: per-probe scratch comes from an internal pool, so
// steady-state accesses allocate nothing beyond what the caller's
// destination slice needs.
type Handle struct {
	// Query is the query the parts were built for (the FD-extension
	// when the caller extended before sharding).
	Query *cq.Query
	// Part records how the instance was split.
	Part Partitioning
	// Completed is the realized total lex order of layered parts (zero
	// for SUM and materialized-SUM groups).
	Completed order.Lex
	// BuildNanos records each part's build wall time, for rabench and
	// scaling diagnostics. Read-only.
	BuildNanos []int64

	parts  []access.Ranked
	totals []int64
	total  int64
	cmp    func(a, b order.Answer) int

	// ranker, when non-nil, prices an answer on every shard in one
	// call (the network path batches the per-node rank RPCs and runs
	// nodes in parallel); nil falls back to per-part rank calls.
	ranker BatchRanker

	probes sync.Pool
}

// probe is the per-call scratch of one merge operation.
type probe struct {
	ans   []order.Answer // per-part answer storage, reused across probes
	lo    []int64
	hi    []int64
	ranks []int64
	cur   []order.Answer
	idx   []int64
	// pend/pi buffer prefetched windows of chunked (remote) parts
	// during AppendWindow merges.
	pend [][]order.Answer
	pi   []int
}

// newHandle merges parts, which must all realize the same total order
// (parts[0].Compare is the merge comparator).
func newHandle(q *cq.Query, pt Partitioning, parts []access.Ranked) *Handle {
	h := &Handle{Query: q, Part: pt, parts: parts, cmp: parts[0].Compare, totals: make([]int64, len(parts))}
	for i, p := range parts {
		h.totals[i] = p.Total()
		h.total += h.totals[i]
	}
	h.probes.New = func() any {
		return &probe{
			ans:   make([]order.Answer, len(parts)),
			lo:    make([]int64, len(parts)),
			hi:    make([]int64, len(parts)),
			ranks: make([]int64, len(parts)),
			cur:   make([]order.Answer, len(parts)),
			idx:   make([]int64, len(parts)),
			pend:  make([][]order.Answer, len(parts)),
			pi:    make([]int, len(parts)),
		}
	}
	return h
}

// Total returns |Q(I)| (the sum of the per-shard answer counts).
func (h *Handle) Total() int64 { return h.total }

// Shards returns the shard count.
func (h *Handle) Shards() int { return len(h.parts) }

// PartTotals returns a copy of the per-shard answer counts.
func (h *Handle) PartTotals() []int64 {
	return append([]int64(nil), h.totals...)
}

func (h *Handle) getProbe() *probe  { return h.probes.Get().(*probe) }
func (h *Handle) putProbe(p *probe) { h.probes.Put(p) }

// locate finds the global k-th answer by binary-searching the global
// rank against per-shard answer counts. It keeps, per shard, the local
// index window that could still hold the k-th answer; each step probes
// the median candidate of the widest window, prices it on every shard
// (Rank = answers strictly below, O(log n) each), and either returns it
// (global rank k) or discards half of the widest window plus everything
// every other shard has priced on the wrong side. On return pr.ranks
// holds each shard's count of answers strictly below the result — the
// owner's entry is the result's local index — which AppendWindow uses
// as its per-shard merge cursors. The returned answer aliases the
// owner's answer storage in pr.
func (h *Handle) locate(ctx context.Context, pr *probe, k int64) (order.Answer, error) {
	if k < 0 || k >= h.total {
		return nil, access.ErrOutOfBound
	}
	lo, hi := pr.lo, pr.hi
	for i := range h.parts {
		lo[i], hi[i] = 0, h.totals[i]
	}
	// Each iteration halves some window; 64 bits per part bounds the
	// total number of halvings.
	maxIter := 64*len(h.parts) + 2
	for iter := 0; iter < maxIter; iter++ {
		s, width := -1, int64(0)
		for j := range h.parts {
			if w := hi[j] - lo[j]; w > width {
				s, width = j, w
			}
		}
		if s < 0 {
			break
		}
		m := lo[s] + width/2
		x, err := h.parts[s].AnswerAt(ctx, pr.ans[s], m)
		if err != nil {
			return nil, fmt.Errorf("shard: internal: part %d access(%d): %w", s, m, err)
		}
		pr.ans[s] = x
		if h.ranker != nil {
			// One scatter round: every node prices x on all its shards
			// in a single RPC, nodes run in parallel.
			if _, err := h.ranker.RankAll(ctx, x, pr.ranks); err != nil {
				return nil, err
			}
		} else {
			for j := range h.parts {
				if j == s {
					continue
				}
				rj, _, err := h.parts[j].RankOf(ctx, x)
				if err != nil {
					return nil, err
				}
				pr.ranks[j] = rj
			}
		}
		// The owner's rank of its own m-th answer is m by definition;
		// pinning it also shields the batched path from owner drift.
		pr.ranks[s] = m
		var r int64
		for j := range h.parts {
			r += pr.ranks[j]
		}
		switch {
		case r == k:
			return x, nil
		case r > k:
			// The k-th answer precedes x: its local index in any shard
			// is below that shard's count of answers preceding x.
			for j := range h.parts {
				if pr.ranks[j] < hi[j] {
					hi[j] = pr.ranks[j]
				}
			}
		default:
			// The k-th answer follows x: at least ranks[j] local
			// answers precede it everywhere, and x itself is excluded
			// in its own shard.
			for j := range h.parts {
				if pr.ranks[j] > lo[j] {
					lo[j] = pr.ranks[j]
				}
			}
			if m+1 > lo[s] {
				lo[s] = m + 1
			}
		}
	}
	return nil, fmt.Errorf("shard: internal: rank search did not converge for k=%d", k)
}

// Compare implements access.Ranked: the parts' shared total order.
func (h *Handle) Compare(a, b order.Answer) int { return h.cmp(a, b) }

// AnswerAt implements access.Ranked: one rank search over the parts.
func (h *Handle) AnswerAt(ctx context.Context, dst order.Answer, k int64) (order.Answer, error) {
	pr := h.getProbe()
	defer h.putProbe(pr)
	x, err := h.locate(ctx, pr, k)
	if err != nil {
		return nil, err
	}
	return append(dst[:0], x...), nil
}

// RankOf implements access.Ranked: the sum of the per-shard ranks, and
// whether some shard holds the tuple. In-process parts never fail;
// remote parts surface transport failures.
func (h *Handle) RankOf(ctx context.Context, a order.Answer) (int64, bool, error) {
	var k int64
	if h.ranker != nil {
		pr := h.getProbe()
		defer h.putProbe(pr)
		exact, err := h.ranker.RankAll(ctx, a, pr.ranks)
		if err != nil {
			return 0, false, err
		}
		for _, r := range pr.ranks {
			k += r
		}
		return k, exact, nil
	}
	exact := false
	for _, p := range h.parts {
		r, ex, err := p.RankOf(ctx, a)
		if err != nil {
			return 0, false, err
		}
		k += r
		exact = exact || ex
	}
	return k, exact, nil
}

// AppendWindow implements access.Ranked over the head of Query: one
// rank search finds each shard's starting cursor, then a P-way merge
// emits the window in order, costing one local O(log n) access per
// emitted answer plus a P-wide comparison. A one-answer window is the
// located answer itself.
func (h *Handle) AppendWindow(ctx context.Context, dst []values.Value, k0, k1 int64) ([]values.Value, error) {
	if k0 >= k1 {
		return dst, nil
	}
	if k0 < 0 || k1 > h.total {
		return dst, access.ErrOutOfBound
	}
	head := h.Query.Head
	pr := h.getProbe()
	defer h.putProbe(pr)
	if k1-k0 == 1 {
		x, err := h.locate(ctx, pr, k0)
		if err != nil {
			return dst, err
		}
		for _, v := range head {
			dst = append(dst, x[v])
		}
		return dst, nil
	}
	if k0 == 0 {
		for j := range h.parts {
			pr.idx[j] = 0
		}
	} else {
		if _, err := h.locate(ctx, pr, k0); err != nil {
			return dst, err
		}
		copy(pr.idx, pr.ranks)
	}
	for j := range h.parts {
		pr.cur[j] = nil
		pr.pend[j] = pr.pend[j][:0]
		pr.pi[j] = 0
		if err := h.fillCursor(ctx, pr, j, k1-k0); err != nil {
			return dst, err
		}
	}
	for n := k1 - k0; n > 0; n-- {
		best := -1
		for j := range h.parts {
			if pr.cur[j] == nil {
				continue
			}
			if best < 0 || h.cmp(pr.cur[j], pr.cur[best]) < 0 {
				best = j
			}
		}
		if best < 0 {
			return dst, fmt.Errorf("shard: internal: merge ran dry with %d answers pending", n)
		}
		for _, v := range head {
			dst = append(dst, pr.cur[best][v])
		}
		pr.idx[best]++
		pr.pi[best]++
		pr.cur[best] = nil
		if err := h.fillCursor(ctx, pr, best, n-1); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// rangeChunk caps one prefetched window of a chunked (remote) part,
// matching the engine's cursor batch so an NDJSON stream chunk costs
// O(P) range RPCs instead of one RPC per emitted row.
const rangeChunk = 256

// fillCursor makes pr.cur[j] hold part j's next answer (nil when the
// part is exhausted). Chunked parts are served from a prefetched
// window, refilled with a size scaled to the remaining merge demand —
// each shard contributes roughly remaining/P of the window, so that
// estimate (plus slack) usually makes one fetch per shard suffice.
func (h *Handle) fillCursor(ctx context.Context, pr *probe, j int, remaining int64) error {
	if pr.idx[j] >= h.totals[j] {
		pr.cur[j] = nil
		return nil
	}
	rf, chunked := h.parts[j].(RangeFetcher)
	if !chunked {
		x, err := h.parts[j].AnswerAt(ctx, pr.ans[j], pr.idx[j])
		if err != nil {
			return fmt.Errorf("shard: internal: part %d access(%d): %w", j, pr.idx[j], err)
		}
		pr.ans[j] = x
		pr.cur[j] = x
		return nil
	}
	if pr.pi[j] >= len(pr.pend[j]) {
		want := remaining/int64(len(h.parts)) + 16
		if want > remaining {
			want = remaining
		}
		if want > rangeChunk {
			want = rangeChunk
		}
		if want < 1 {
			want = 1
		}
		hi := pr.idx[j] + want
		if hi > h.totals[j] {
			hi = h.totals[j]
		}
		rows, err := rf.FetchRange(ctx, pr.idx[j], hi)
		if err != nil {
			return fmt.Errorf("shard: part %d range [%d, %d): %w", j, pr.idx[j], hi, err)
		}
		if int64(len(rows)) != hi-pr.idx[j] {
			return fmt.Errorf("shard: part %d range [%d, %d) returned %d answers", j, pr.idx[j], hi, len(rows))
		}
		pr.pend[j], pr.pi[j] = rows, 0
	}
	pr.cur[j] = pr.pend[j][pr.pi[j]]
	return nil
}
