package access

import (
	"context"
	"math/rand"
	"testing"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// twoPathInstance builds a random 2-path instance; the overlay tests
// edit its answer set and check every merged probe against a naive
// reference merge.
func twoPathInstance(rng *rand.Rand, n, dom int) (*cq.Query, *database.Instance) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	in := database.NewInstance()
	for i := 0; i < n; i++ {
		in.AddRow("R", values.Value(rng.Intn(dom)), values.Value(rng.Intn(dom)))
		in.AddRow("S", values.Value(rng.Intn(dom)), values.Value(rng.Intn(dom)))
	}
	return q, in
}

// refMerge applies adds/dels to the base answer list and re-sorts with
// the overlay's comparator.
func refMerge(base []order.Answer, adds, dels []order.Answer, cmp func(a, b order.Answer) int) []order.Answer {
	out := make([]order.Answer, 0, len(base)+len(adds))
	for _, a := range base {
		deleted := false
		for _, d := range dels {
			if cmp(a, d) == 0 {
				deleted = true
				break
			}
		}
		if !deleted {
			out = append(out, a)
		}
	}
	out = append(out, adds...)
	// Insertion sort suffices for test sizes and keeps the comparator
	// authoritative.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && cmp(out[j], out[j-1]) < 0; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// checkOverlay probes every merged position and rank against the
// reference.
func checkOverlay(t *testing.T, q *cq.Query, o *Overlay, want []order.Answer, cmp func(a, b order.Answer) int) {
	t.Helper()
	if o.Total() != int64(len(want)) {
		t.Fatalf("merged total %d, want %d", o.Total(), len(want))
	}
	ctx := context.Background()
	var flat []values.Value
	for k := range want {
		got, err := o.AnswerAt(ctx, nil, int64(k))
		if err != nil {
			t.Fatalf("AnswerAt(%d): %v", k, err)
		}
		if cmp(got, want[k]) != 0 {
			t.Fatalf("AnswerAt(%d) = %v, want %v", k, got, want[k])
		}
		r, member, err := o.RankOf(ctx, want[k])
		if err != nil || r != int64(k) || !member {
			t.Fatalf("Rank(answer %d) = (%d, %v)", k, r, member)
		}
		var one []values.Value
		one, err = o.AppendWindow(ctx, one, int64(k), int64(k)+1)
		if err != nil {
			t.Fatalf("AppendWindow(%d): %v", k, err)
		}
		for i, v := range q.Head {
			if one[i] != want[k][v] {
				t.Fatalf("AppendWindow(%d) col %d = %d, want %d", k, i, one[i], want[k][v])
			}
		}
	}
	var err error
	flat, err = o.AppendWindow(ctx, flat[:0], 0, o.Total())
	if err != nil {
		t.Fatalf("AppendWindow: %v", err)
	}
	w := len(q.Head)
	if len(flat) != len(want)*w {
		t.Fatalf("AppendWindow length %d, want %d", len(flat), len(want)*w)
	}
	for k := range want {
		for i, v := range q.Head {
			if flat[k*w+i] != want[k][v] {
				t.Fatalf("AppendWindow pos %d col %d = %d, want %d", k, i, flat[k*w+i], want[k][v])
			}
		}
	}
	if _, err := o.AnswerAt(ctx, nil, o.Total()); err == nil {
		t.Fatalf("AnswerAt(Total) should be out of bound")
	}
}

// editSets draws a random set of deletions from the base answers and a
// random set of additions guaranteed absent from it.
func editSets(rng *rand.Rand, q *cq.Query, base []order.Answer, cmp func(a, b order.Answer) int) (adds, dels []order.Answer) {
	inBase := func(a order.Answer) bool {
		for _, b := range base {
			if cmp(a, b) == 0 {
				return true
			}
		}
		return false
	}
	for _, a := range base {
		if rng.Intn(4) == 0 {
			dels = append(dels, a)
		}
	}
	for len(adds) < 5 {
		a := make(order.Answer, q.NumVars())
		for _, v := range q.Head {
			a[v] = values.Value(100 + rng.Intn(40)) // outside the data domain half the time
		}
		dup := false
		for _, p := range adds {
			if cmp(a, p) == 0 {
				dup = true
				break
			}
		}
		if !dup && !inBase(a) {
			adds = append(adds, a)
		}
	}
	return adds, dels
}

func TestOverlayLex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		q, in := twoPathInstance(rng, 60, 12)
		l, err := order.ParseLex(q, "y, x desc")
		if err != nil {
			t.Fatal(err)
		}
		la, err := BuildLex(q, in, l)
		if err != nil {
			t.Fatal(err)
		}
		var base []order.Answer
		for k := int64(0); k < la.Total(); k++ {
			a, err := la.Access(k)
			if err != nil {
				t.Fatal(err)
			}
			base = append(base, a)
		}
		adds, dels := editSets(rng, q, base, la.Compare)
		o, err := NewOverlay(q, la, adds, dels)
		if err != nil {
			t.Fatal(err)
		}
		checkOverlay(t, q, o, refMerge(base, adds, dels, la.Compare), la.Compare)
	}
}

func TestOverlayMatLex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		_, in := twoPathInstance(rng, 40, 8)
		// Project to (x, z): existential join variable, materialized
		// fallback territory for many orders; force the fallback.
		qp := cq.MustParse("Q(x, z) :- R(x, y), S(y, z)")
		l, err := order.ParseLex(qp, "z desc")
		if err != nil {
			t.Fatal(err)
		}
		m := BuildMaterializedLex(qp, in, l)
		var base []order.Answer
		for k := int64(0); k < m.Total(); k++ {
			a, err := m.Access(k)
			if err != nil {
				t.Fatal(err)
			}
			base = append(base, a)
		}
		adds, dels := editSets(rng, qp, base, m.Compare)
		o, err := NewOverlay(qp, m, adds, dels)
		if err != nil {
			t.Fatal(err)
		}
		checkOverlay(t, qp, o, refMerge(base, adds, dels, m.Compare), m.Compare)
	}
}

func TestOverlaySum(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	q := cq.MustParse("Q(x, y) :- R(x, y)")
	in := database.NewInstance()
	seen := map[[2]values.Value]bool{}
	for len(seen) < 50 {
		k := [2]values.Value{values.Value(rng.Intn(30)), values.Value(rng.Intn(30))}
		if !seen[k] {
			seen[k] = true
			in.AddRow("R", k[0], k[1])
		}
	}
	x, _ := q.VarByName("x")
	y, _ := q.VarByName("y")
	w := order.IdentitySum(x, y)
	s, err := BuildSum(q, in, w)
	if err != nil {
		t.Fatal(err)
	}
	var base []order.Answer
	for k := int64(0); k < s.Total(); k++ {
		a, err := s.Access(k)
		if err != nil {
			t.Fatal(err)
		}
		base = append(base, a)
	}
	adds, dels := editSets(rng, q, base, s.Compare)
	o, err := NewOverlay(q, s, adds, dels)
	if err != nil {
		t.Fatal(err)
	}
	checkOverlay(t, q, o, refMerge(base, adds, dels, s.Compare), s.Compare)
}

func TestOverlayRejectsBadEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q, in := twoPathInstance(rng, 30, 6)
	l, err := order.ParseLex(q, "x")
	if err != nil {
		t.Fatal(err)
	}
	la, err := BuildLex(q, in, l)
	if err != nil {
		t.Fatal(err)
	}
	a0, err := la.Access(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewOverlay(q, la, []order.Answer{a0}, nil); err == nil {
		t.Fatal("adding an existing answer should fail")
	}
	ghost := make(order.Answer, q.NumVars())
	for _, v := range q.Head {
		ghost[v] = 999
	}
	if _, err := NewOverlay(q, la, nil, []order.Answer{ghost}); err == nil {
		t.Fatal("deleting a missing answer should fail")
	}
}
