package access

import (
	"errors"
	"reflect"
	"testing"

	"rankedaccess/internal/cq"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// The materialized fallback must agree with the layered structure on
// tractable inputs (where both are available).
func TestMaterializedAgreesWithLayered(t *testing.T) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	l := lex(t, q, "x, y, z")
	la, err := BuildLex(q, fig2(), l)
	if err != nil {
		t.Fatal(err)
	}
	m := BuildMaterializedLex(q, fig2(), la.Completed)
	if m.Total() != la.Total() {
		t.Fatalf("totals differ: %d vs %d", m.Total(), la.Total())
	}
	for k := int64(0); k < m.Total(); k++ {
		ma, _ := m.Access(k)
		laA, _ := la.Access(k)
		if !reflect.DeepEqual(proj(q, ma), proj(q, laA)) {
			t.Fatalf("k=%d: %v vs %v", k, proj(q, ma), proj(q, laA))
		}
		inv, err := m.Inverted(ma)
		if err != nil || inv != k {
			t.Fatalf("materialized inverted(%d) = %d, %v", k, inv, err)
		}
	}
	if _, err := m.Access(m.Total()); !errors.Is(err, ErrOutOfBound) {
		t.Fatal("out of bound expected")
	}
}

// On an intractable order (the disruptive-trio case), the fallback is
// the only option and must produce the order the user asked for.
func TestMaterializedTrioOrder(t *testing.T) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	l := lex(t, q, "x, z, y")
	if _, err := BuildLex(q, fig2(), l); err == nil {
		t.Fatal("layered build should fail for the trio order")
	}
	m := BuildMaterializedLex(q, fig2(), l)
	// Figure 2(c) ordering.
	want := [][]values.Value{
		{1, 5, 3}, {1, 5, 4}, {1, 2, 5}, {1, 5, 6}, {6, 2, 5},
	}
	for k := range want {
		a, err := m.Access(int64(k))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(proj(q, a), want[k]) {
			t.Fatalf("k=%d: %v, want %v", k, proj(q, a), want[k])
		}
	}
	// Inverted on a non-answer.
	bad := make(order.Answer, q.NumVars())
	if _, err := m.Inverted(bad); !errors.Is(err, ErrNotAnAnswer) {
		t.Fatalf("expected ErrNotAnAnswer, got %v", err)
	}
}

func TestMaterializedSum(t *testing.T) {
	q := cq.MustParse("Q(x, y, z) :- R(x, y), S(y, z)")
	w := order.IdentitySum(q.Head...)
	m := BuildMaterializedSum(q, fig2(), w)
	want := []float64{8, 9, 10, 12, 13}
	for k, expected := range want {
		got, err := m.WeightAt(int64(k))
		if err != nil || got != expected {
			t.Fatalf("weight #%d = %v, %v", k, got, err)
		}
	}
	if _, err := m.WeightAt(5); !errors.Is(err, ErrOutOfBound) {
		t.Fatal("out of bound expected")
	}
}
