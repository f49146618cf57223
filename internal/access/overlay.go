package access

import (
	"context"
	"fmt"
	"sort"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// This file makes the built structures merge-aware: an Overlay combines
// one immutable base structure with a small sorted list of answer-level
// edits (answers that appeared since the base was built, answers that
// disappeared) and answers Access/Rank over the merged set in
// O(log d + log n) — one binary search over the d edits, one probe of
// the base — instead of forcing the O(n log n) re-preprocess the write
// path used to pay on every mutation.
//
// The core bookkeeping: for any tuple t, its merged rank is
//
//	mr(t) = baseRank(t) + adds<(t) − dels<(t)
//
// where baseRank comes from the base's own Rank and the two counts are
// prefix sums over the edit list sorted in the base's realized total
// order. Each edit event precomputes its own merged rank at
// construction, so Access(k) is: find the event run around k, emit the
// added answer occupying slot k if there is one (within a run of equal
// merged ranks the added answer is provably the last event), otherwise
// shift k by the run's cumulative offset and probe the base.

// ovEvent is one edit in the base's realized order: mr is the answer's
// merged rank, cum the adds-minus-dels offset over events up to and
// including this one.
type ovEvent struct {
	a   order.Answer
	add bool
	mr  int64
	cum int64
}

// Overlay is an immutable merged view: the base structure plus a sorted
// edit list. It is itself a Ranked, in the base's realized order, and
// like the base structures it is safe for concurrent use.
type Overlay struct {
	base   Ranked
	head   []cq.VarID // head variable ids, for tuple projection
	events []ovEvent
	total  int64
	adds   int
}

// NewOverlay builds the merged view of base, whose answers are those of
// q, for the given edits. The base must answer in q's own answer space
// (no FD extension) and q must have head variables: the edits are
// head-assigning answers of q. Every add must be absent from the base
// and every del present in it, and no answer may appear twice across
// the two lists; violations are construction errors (they indicate a
// broken delta computation, not bad user input).
func NewOverlay(q *cq.Query, base Ranked, adds, dels []order.Answer) (*Overlay, error) {
	if len(q.Head) == 0 {
		return nil, fmt.Errorf("access: overlay over a Boolean query")
	}
	ctx := context.Background()
	events := make([]ovEvent, 0, len(adds)+len(dels))
	for _, a := range adds {
		r, exact, err := base.RankOf(ctx, a)
		if err != nil {
			return nil, err
		}
		if exact {
			return nil, fmt.Errorf("access: overlay add already in base")
		}
		events = append(events, ovEvent{a: a, add: true, mr: r})
	}
	for _, d := range dels {
		r, exact, err := base.RankOf(ctx, d)
		if err != nil {
			return nil, err
		}
		if !exact {
			return nil, fmt.Errorf("access: overlay delete not in base")
		}
		events = append(events, ovEvent{a: d, mr: r})
	}
	sort.SliceStable(events, func(i, j int) bool {
		return base.Compare(events[i].a, events[j].a) < 0
	})
	// mr currently holds the base rank; fold in the running offset.
	var off int64
	for i := range events {
		if i > 0 && base.Compare(events[i-1].a, events[i].a) == 0 {
			return nil, fmt.Errorf("access: duplicate overlay edit")
		}
		events[i].mr += off
		if events[i].add {
			off++
		} else {
			off--
		}
		events[i].cum = off
	}
	total := base.Total() + off
	if total < 0 {
		return nil, fmt.Errorf("access: overlay deletes more answers than the base holds")
	}
	return &Overlay{base: base, head: q.Head, events: events, total: total, adds: len(adds)}, nil
}

// Total returns the merged answer count.
func (o *Overlay) Total() int64 { return o.total }

// Edits returns the number of edit events the overlay carries (its d).
func (o *Overlay) Edits() int { return len(o.events) }

// Adds returns how many of the edits are additions.
func (o *Overlay) Adds() int { return o.adds }

// Compare implements Ranked: the base's realized order.
func (o *Overlay) Compare(a, b order.Answer) int { return o.base.Compare(a, b) }

// locate returns the index of the first event with merged rank > k.
func (o *Overlay) locate(k int64) int {
	return sort.Search(len(o.events), func(i int) bool { return o.events[i].mr > k })
}

// AnswerAt implements Ranked with two binary searches: one over the
// edits, one descent/search of the base.
func (o *Overlay) AnswerAt(ctx context.Context, dst order.Answer, k int64) (order.Answer, error) {
	if k < 0 || k >= o.total {
		return nil, fmt.Errorf("access: overlay index %d of %d: %w", k, o.total, ErrOutOfBound)
	}
	j := o.locate(k)
	if j > 0 && o.events[j-1].mr == k && o.events[j-1].add {
		return append(dst[:0], o.events[j-1].a...), nil
	}
	var off int64
	if j > 0 {
		off = o.events[j-1].cum
	}
	return o.base.AnswerAt(ctx, dst, k-off)
}

// AppendWindow implements Ranked, splitting the window into base
// segments (served by the base's own window path) and interleaved added
// answers.
func (o *Overlay) AppendWindow(ctx context.Context, dst []values.Value, k0, k1 int64) ([]values.Value, error) {
	if badWindow(k0, k1, o.total) {
		return dst, fmt.Errorf("access: overlay range [%d, %d) of %d: %w", k0, k1, o.total, ErrOutOfBound)
	}
	k := k0
	j := o.locate(k)
	var err error
	for k < k1 {
		if j > 0 && o.events[j-1].mr == k && o.events[j-1].add {
			for _, v := range o.head {
				dst = append(dst, o.events[j-1].a[v])
			}
			k++
			for j < len(o.events) && o.events[j].mr <= k {
				j++
			}
			continue
		}
		var off int64
		if j > 0 {
			off = o.events[j-1].cum
		}
		end := k1
		if j < len(o.events) && o.events[j].mr < end {
			end = o.events[j].mr
		}
		if dst, err = o.base.AppendWindow(ctx, dst, k-off, end-off); err != nil {
			return dst, err
		}
		k = end
		for j < len(o.events) && o.events[j].mr <= k {
			j++
		}
	}
	return dst, nil
}

// RankOf implements Ranked: the number of merged answers strictly
// preceding the tuple in the realized order, and whether the tuple is
// itself a merged answer. The tuple must assign every head variable.
func (o *Overlay) RankOf(ctx context.Context, a order.Answer) (int64, bool, error) {
	br, exact, err := o.base.RankOf(ctx, a)
	if err != nil {
		return 0, false, err
	}
	idx := sort.Search(len(o.events), func(i int) bool { return o.base.Compare(o.events[i].a, a) >= 0 })
	var off int64
	if idx > 0 {
		off = o.events[idx-1].cum
	}
	member := exact
	if idx < len(o.events) && o.base.Compare(o.events[idx].a, a) == 0 {
		member = o.events[idx].add
	}
	return br + off, member, nil
}
