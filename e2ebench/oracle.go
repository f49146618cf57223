package main

import (
	"context"
	"fmt"
	"math/rand"

	"rankedaccess/client"
	"rankedaccess/internal/database"
	"rankedaccess/internal/engine"
)

// checker accumulates the run's request outcomes and correctness
// findings. A wrong answer is a failed request too.
type checker struct {
	attempted, failed, wrong int64
	problems                 []string
}

func (c *checker) note(msg string) {
	if msg != "" && len(c.problems) < 8 {
		c.problems = append(c.problems, msg)
	}
}

// mismatch records a wrong answer found after the fact.
func (c *checker) mismatch(format string, args ...any) {
	c.wrong++
	c.failed++
	c.note(fmt.Sprintf(format, args...))
}

// violation records a broken invariant that is not one request's answer.
func (c *checker) violation(format string, args ...any) {
	c.wrong++
	c.note(fmt.Sprintf(format, args...))
}

func (c *checker) ok() bool { return c.wrong == 0 }

// oracle prepares the registered spec on a fresh, unsharded engine over
// the instance: a structure built from scratch, never caught up.
func oracle(in *database.Instance) (*engine.Handle, error) {
	h, err := engine.New(in, engine.Options{}).Prepare(engine.Spec{Query: queryText, Order: orderText})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return h, nil
}

// checkAnswers compares recorded SDK answers of a read-only workload
// with the oracle over the same generated instance.
func (c *checker) checkAnswers(w workloadDef, seed int64, recs []answerRec) error {
	h, err := oracle(generate(w.n, seed))
	if err != nil {
		return err
	}
	for _, msg := range compare(h, recs) {
		c.mismatch("%s", msg)
	}
	return nil
}

// compare returns one message per recorded answer the oracle disagrees
// with.
func compare(h *engine.Handle, recs []answerRec) []string {
	var bad []string
	var buf []int64
	total := h.Total()
	for _, r := range recs {
		var err error
		buf = buf[:0]
		var want uint64
		switch r.op {
		case opAccess:
			buf, err = h.AppendTuple(buf, r.k)
			want = hashRows(buf)
		case opRange:
			k1 := min(r.k+rangeWidth, total)
			buf, err = h.AccessRange(buf, r.k, k1)
			want = hashRows(splitRows(buf, h.Width())...)
		}
		switch {
		case err != nil:
			bad = append(bad, fmt.Sprintf("oracle: rank %d: %v", r.k, err))
		case want != r.h:
			bad = append(bad, fmt.Sprintf("wrong answer at rank %d (op %d)", r.k, r.op))
		}
	}
	return bad
}

func splitRows(flat []int64, width int) [][]int64 {
	rows := make([][]int64, 0, len(flat)/max(width, 1))
	for i := 0; i+width <= len(flat); i += width {
		rows = append(rows, flat[i:i+width])
	}
	return rows
}

// checkWritten verifies the write workload after the writer stopped and
// background rebuilds drained: the server's version, count, and sampled
// ranks must match a fresh engine built from the initial instance plus
// every acknowledged batch, in order.
func checkWritten(ctx context.Context, s *stack, w workloadDef, seed int64, version0 uint64, acked [][]client.Write, c *checker) error {
	if got, want := s.e.Version(), version0+uint64(len(acked)); got != want {
		c.violation("version %d after %d acknowledged writes from %d; an unacknowledged write applied or an acknowledged one did not", got, len(acked), version0)
	}
	in := generate(w.n, seed)
	applyWrites(in, acked)
	h, err := oracle(in)
	if err != nil {
		return err
	}
	total := h.Total()
	c.attempted += 3
	if err := s.pq.Refresh(ctx); err != nil {
		c.failed++
		c.note(err.Error())
	} else if s.pq.Info.Total != total {
		c.mismatch("registered total %d, oracle %d", s.pq.Info.Total, total)
	}
	if n, err := s.pq.Count(ctx); err != nil {
		c.failed++
		c.note(err.Error())
	} else if n != total {
		c.mismatch("count %d, oracle %d", n, total)
	}
	hot := newRankDist(total, true, seed*31+5)
	rng := rand.New(rand.NewSource(seed*37 + 11))
	var ks []int64
	for i := 0; i < 128; i++ {
		ks = append(ks, hot.access(), rng.Int63n(total))
	}
	ans, err := s.pq.Access(ctx, ks...)
	if err != nil {
		c.failed++
		c.note(err.Error())
		return nil
	}
	if len(ans) != len(ks) {
		c.mismatch("sampled access returned %d answers for %d ranks", len(ans), len(ks))
		return nil
	}
	recs := make([]answerRec, len(ans))
	for i, a := range ans {
		recs[i] = answerRec{k: ks[i], h: hashRows(a.Tuple), op: opAccess}
	}
	if bad := compare(h, recs); len(bad) > 0 {
		c.mismatch("%d of %d sampled ranks disagree with the oracle: %s", len(bad), len(ks), bad[0])
	}
	return nil
}
