package access_test

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"rankedaccess/internal/access"
	"rankedaccess/internal/baseline"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/shard"
	"rankedaccess/internal/values"
)

// rankedCase is one access.Ranked implementation under test: want is
// the brute-force answer list in the realized order, and requested the
// order the caller asked for, which the realized order must refine.
type rankedCase struct {
	name      string
	q         *cq.Query
	r         access.Ranked
	want      []order.Answer
	requested func(a, b order.Answer) int
}

// TestRankedConformance runs every access.Ranked implementation against
// a brute-force answer list: the layered, SUM and materialized
// structures, an Overlay over each eligible base, and the in-process
// sharded handle of each kind. It checks Total, AnswerAt at every rank,
// AppendWindow over random windows (empty and end-of-list ones
// included), RankOf and membership for answers and non-answers, and the
// out-of-bound contract.
func TestRankedConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 4; trial++ {
		for _, c := range rankedCases(t, rng) {
			t.Run(c.name, func(t *testing.T) { checkRanked(t, rng, c) })
		}
	}
}

func rankedCases(t *testing.T, rng *rand.Rand) []rankedCase {
	in := database.NewInstance()
	for i := 0; i < 40; i++ {
		in.AddRow("R", values.Value(rng.Intn(9)), values.Value(rng.Intn(9)))
		in.AddRow("S", values.Value(rng.Intn(9)), values.Value(rng.Intn(9)))
	}
	full := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	proj := cq.MustParse("Q(x, z) :- R(x, y), S(y, z)")
	keyed := cq.MustParse("Q(x, y) :- R(x, y), S(y, z)")
	lexOf := func(q *cq.Query, spec string) order.Lex {
		l, err := order.ParseLex(q, spec)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	sumOf := func(q *cq.Query, names ...string) order.Sum {
		vars := make([]cq.VarID, len(names))
		for i, n := range names {
			vars[i], _ = q.VarByName(n)
		}
		return order.IdentitySum(vars...)
	}
	byWeight := func(q *cq.Query, w order.Sum) func(a, b order.Answer) int {
		return func(a, b order.Answer) int {
			wa, wb := w.AnswerWeight(q, a), w.AnswerWeight(q, b)
			switch {
			case wa < wb:
				return -1
			case wa > wb:
				return 1
			}
			return 0
		}
	}
	partition := func(q *cq.Query) shard.Partitioning {
		pt, err := shard.Choose(q, "", 3)
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}
	shardAll := func(q *cq.Query, build func(*database.Instance) (access.Ranked, error)) (access.Ranked, error) {
		pt := partition(q)
		o, err := shard.Build(q, in, pt, pt.All(), build)
		if err != nil {
			return nil, err
		}
		return o.Handle()
	}
	must := func(r access.Ranked, err error) access.Ranked {
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	lexL := lexOf(full, "y, x desc")
	matL := lexOf(proj, "z desc")
	sumW := sumOf(keyed, "x", "y")
	matW := sumOf(full, "x", "z")
	la := must(access.BuildLex(full, in, lexL))
	sa := must(access.BuildSum(keyed, in, sumW))
	ml := access.BuildMaterializedLex(proj, in, matL)
	ms := access.BuildMaterializedSum(full, in, matW)
	lexParts := func(si *database.Instance) (access.Ranked, error) { return access.BuildLex(full, si, lexL) }
	sumParts := func(si *database.Instance) (access.Ranked, error) { return access.BuildSum(keyed, si, sumW) }
	matLexParts := func(si *database.Instance) (access.Ranked, error) {
		return access.BuildMaterializedLex(proj, si, matL), nil
	}
	matSumParts := func(si *database.Instance) (access.Ranked, error) {
		return access.BuildMaterializedSum(full, si, matW), nil
	}

	cases := []rankedCase{
		{name: "lex", q: full, r: la, requested: lexL.Compare},
		{name: "sum", q: keyed, r: sa, requested: byWeight(keyed, sumW)},
		{name: "materialized-lex", q: proj, r: ml, requested: matL.Compare},
		{name: "materialized-sum", q: full, r: ms, requested: byWeight(full, matW)},
		{name: "shard-lex", q: full, r: must(shardAll(full, lexParts)), requested: lexL.Compare},
		{name: "shard-sum", q: keyed, r: must(shardAll(keyed, sumParts)), requested: byWeight(keyed, sumW)},
		{name: "shard-materialized-lex", q: proj, r: must(shardAll(proj, matLexParts)), requested: matL.Compare},
		{name: "shard-materialized-sum", q: full, r: must(shardAll(full, matSumParts)), requested: byWeight(full, matW)},
	}
	for i := range cases {
		cases[i].want = sortedBy(baseline.AllAnswers(cases[i].q, in), cases[i].r.Compare)
	}
	// An overlay over each eligible base, with random edits.
	for _, c := range cases[:4] {
		adds, dels := randomEdits(rng, c.q, c.want, c.r.Compare)
		ov, err := access.NewOverlay(c.q, c.r, adds, dels)
		if err != nil {
			t.Fatalf("overlay over %s: %v", c.name, err)
		}
		merged := slices.DeleteFunc(slices.Clone(c.want), func(a order.Answer) bool {
			return slices.ContainsFunc(dels, func(d order.Answer) bool { return c.r.Compare(a, d) == 0 })
		})
		cases = append(cases, rankedCase{
			name: "overlay-" + c.name, q: c.q, r: ov,
			want: sortedBy(append(merged, adds...), c.r.Compare), requested: c.requested,
		})
	}
	return cases
}

func sortedBy(answers []order.Answer, cmp func(a, b order.Answer) int) []order.Answer {
	slices.SortFunc(answers, cmp)
	return answers
}

// randomHead draws a tuple assigning every head variable of q from the
// instance's value domain (existential slots zero).
func randomHead(rng *rand.Rand, q *cq.Query) order.Answer {
	a := make(order.Answer, q.NumVars())
	for _, v := range q.Head {
		a[v] = values.Value(rng.Intn(11))
	}
	return a
}

// randomEdits deletes about a quarter of the answers and adds up to
// five head tuples that are not answers.
func randomEdits(rng *rand.Rand, q *cq.Query, answers []order.Answer, cmp func(a, b order.Answer) int) (adds, dels []order.Answer) {
	for _, a := range answers {
		if rng.Intn(4) == 0 {
			dels = append(dels, a)
		}
	}
	for i := 0; i < 20 && len(adds) < 5; i++ {
		a := randomHead(rng, q)
		isNew := func(b order.Answer) bool { return cmp(a, b) == 0 }
		if !slices.ContainsFunc(answers, isNew) && !slices.ContainsFunc(adds, isNew) {
			adds = append(adds, a)
		}
	}
	return adds, dels
}

func checkRanked(t *testing.T, rng *rand.Rand, c rankedCase) {
	ctx := context.Background()
	r, want, head := c.r, c.want, c.q.Head
	total := int64(len(want))
	if got := r.Total(); got != total {
		t.Fatalf("Total = %d, want %d", got, total)
	}
	for k := 1; k < len(want); k++ {
		if c.requested(want[k-1], want[k]) > 0 {
			t.Fatalf("realized order breaks the requested one at rank %d", k)
		}
	}
	var dst order.Answer
	for k, w := range want {
		var err error
		dst, err = r.AnswerAt(ctx, dst, int64(k))
		if err != nil {
			t.Fatalf("AnswerAt(%d): %v", k, err)
		}
		if r.Compare(dst, w) != 0 || !sameHead(head, dst, w) {
			t.Fatalf("AnswerAt(%d) = %v, want %v", k, dst, w)
		}
		rank, member, err := r.RankOf(ctx, w)
		if err != nil || rank != int64(k) || !member {
			t.Fatalf("RankOf(answer %d) = %d, %v, %v", k, rank, member, err)
		}
	}
	for i := 0; i < 30; i++ {
		a := randomHead(rng, c.q)
		wantRank, _ := slices.BinarySearchFunc(want, a, r.Compare)
		wantMember := wantRank < len(want) && r.Compare(want[wantRank], a) == 0
		rank, member, err := r.RankOf(ctx, a)
		if err != nil || rank != int64(wantRank) || member != wantMember {
			t.Fatalf("RankOf(%v) = %d, %v, %v; want %d, %v", a, rank, member, err, wantRank, wantMember)
		}
	}
	windows := [][2]int64{{0, 0}, {total, total}, {0, total}, {max(total-3, 0), total}, {total / 2, total / 2}}
	for i := 0; i < 10; i++ {
		k0 := rng.Int63n(total + 1)
		windows = append(windows, [2]int64{k0, k0 + rng.Int63n(total-k0+1)})
	}
	for _, win := range windows {
		got, err := r.AppendWindow(ctx, []values.Value{-1}, win[0], win[1])
		if err != nil {
			t.Fatalf("AppendWindow(%d, %d): %v", win[0], win[1], err)
		}
		exp := []values.Value{-1}
		for _, a := range want[win[0]:win[1]] {
			for _, v := range head {
				exp = append(exp, a[v])
			}
		}
		if !slices.Equal(got, exp) {
			t.Fatalf("AppendWindow(%d, %d) = %v, want %v", win[0], win[1], got, exp)
		}
	}
	if _, err := r.AnswerAt(ctx, nil, total); !errors.Is(err, access.ErrOutOfBound) {
		t.Fatalf("AnswerAt(Total) = %v, want ErrOutOfBound", err)
	}
	if _, err := r.AnswerAt(ctx, nil, -1); !errors.Is(err, access.ErrOutOfBound) {
		t.Fatalf("AnswerAt(-1) = %v, want ErrOutOfBound", err)
	}
	if _, err := r.AppendWindow(ctx, nil, 0, total+1); !errors.Is(err, access.ErrOutOfBound) {
		t.Fatalf("AppendWindow past the end = %v, want ErrOutOfBound", err)
	}
}

func sameHead(head []cq.VarID, a, b order.Answer) bool {
	for _, v := range head {
		if a[v] != b[v] {
			return false
		}
	}
	return true
}
