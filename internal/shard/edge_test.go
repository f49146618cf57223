package shard

import (
	"errors"
	"math/rand"
	"testing"

	"rankedaccess/internal/access"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/order"
)

// TestEmptyShardEdgeCases pins the network-path edge case: with few
// tuples and many shards, some shards receive ZERO tuples for the
// partitioned relation. Those shards must still build and answer
// Count=0 / Access→ErrOutOfBound, never error — a cluster node owning
// an empty slice of the hash space is a normal configuration, not a
// fault.
func TestEmptyShardEdgeCases(t *testing.T) {
	q, err := cq.Parse("Q(x, y, z) :- R(x, y), S(y, z)")
	if err != nil {
		t.Fatal(err)
	}
	in := database.NewInstance()
	// One join chain: exactly one answer, so at most one of the 16
	// shards is non-empty.
	in.AddRow("R", 1, 2)
	in.AddRow("S", 2, 3)
	pt, err := Choose(q, "", 16)
	if err != nil {
		t.Fatal(err)
	}

	l, err := order.ParseLex(q, "x, y, z")
	if err != nil {
		t.Fatal(err)
	}
	sh, err := BuildLex(q, in, l, pt)
	if err != nil {
		t.Fatalf("BuildLex with empty shards: %v", err)
	}
	if sh.Total() != 1 {
		t.Fatalf("Total = %d, want 1", sh.Total())
	}
	empties := 0
	for _, n := range sh.PartTotals() {
		if n == 0 {
			empties++
		}
	}
	if empties != 15 {
		t.Fatalf("%d empty shards, want 15", empties)
	}
	a, err := sh.AnswerAt(bg, nil, 0)
	if err != nil || a[q.Head[0]] != 1 || a[q.Head[1]] != 2 || a[q.Head[2]] != 3 {
		t.Fatalf("Access(0) = %v, %v", a, err)
	}
	if _, err := sh.AnswerAt(bg, nil, 1); !errors.Is(err, access.ErrOutOfBound) {
		t.Fatalf("Access(1) = %v, want ErrOutOfBound", err)
	}
	if n, err := Count(q, in, pt); err != nil || n != 1 {
		t.Fatalf("Count = %d, %v, want 1", n, err)
	}

	// Materialized fallback over the same mostly-empty split.
	if sh := mustBuildMatLex(t, q, in, l, pt); sh.Total() != 1 {
		t.Fatalf("BuildMaterializedLex with empty shards: total %d", sh.Total())
	}

	// The SUM structure (tractable for a single atom) with one tuple
	// and 16 shards: 15 empty SUM parts must build and merge.
	qs, err := cq.Parse("Q(x, y) :- R(x, y)")
	if err != nil {
		t.Fatal(err)
	}
	ins := database.NewInstance()
	ins.AddRow("R", 5, 7)
	pts, err := Choose(qs, "", 16)
	if err != nil {
		t.Fatal(err)
	}
	w := order.IdentitySum(qs.Head...)
	shs, err := BuildSum(qs, ins, w, pts)
	if err != nil || shs.Total() != 1 {
		t.Fatalf("BuildSum with empty shards: err %v", err)
	}
	if _, err := shs.AnswerAt(bg, nil, 1); !errors.Is(err, access.ErrOutOfBound) {
		t.Fatalf("SUM Access(1) = %v, want ErrOutOfBound", err)
	}

	// The fully empty instance: every shard is empty, the structure
	// still builds and answers the empty answer set.
	emptyIn := database.NewInstance()
	emptyIn.SetRelation("R", database.NewRelation(2))
	emptyIn.SetRelation("S", database.NewRelation(2))
	sh, err = BuildLex(q, emptyIn, l, pt)
	if err != nil {
		t.Fatalf("BuildLex over empty instance: %v", err)
	}
	if sh.Total() != 0 {
		t.Fatalf("empty instance Total = %d", sh.Total())
	}
	if _, err := sh.AnswerAt(bg, nil, 0); !errors.Is(err, access.ErrOutOfBound) {
		t.Fatalf("empty instance Access(0) = %v, want ErrOutOfBound", err)
	}
	if n, err := Count(q, emptyIn, pt); err != nil || n != 0 {
		t.Fatalf("empty instance Count = %d, %v", n, err)
	}
}

func mustBuildMatLex(t *testing.T, q *cq.Query, in *database.Instance, l order.Lex, pt Partitioning) *Handle {
	t.Helper()
	sh, err := BuildMaterializedLex(q, in, l, pt)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// TestSplitP1Degenerate pins that P=1 "sharding" is exactly the
// unsharded structure: the split shares every relation by reference
// (zero copying) and the single-part handle answers identically to the
// plain structure.
func TestSplitP1Degenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q, in := pathQuery(t, rng, 300, 40)
	pt, err := Choose(q, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	outs := Split(q, in, pt)
	if len(outs) != 1 {
		t.Fatalf("Split P=1 returned %d instances", len(outs))
	}
	for _, rel := range []string{"R", "S"} {
		if outs[0].Relation(rel) != in.Relation(rel) {
			t.Fatalf("P=1 split copied relation %s instead of sharing it", rel)
		}
	}

	l, err := order.ParseLex(q, "x, y desc, z")
	if err != nil {
		t.Fatal(err)
	}
	single, err := access.BuildLex(q, in, l)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := BuildLex(q, in, l, pt)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Total() != single.Total() {
		t.Fatalf("P=1 total %d, single %d", sh.Total(), single.Total())
	}
	for k := int64(0); k < sh.Total(); k++ {
		want, err := single.Access(k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sh.AnswerAt(bg, nil, k)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range q.Head {
			if want[v] != got[v] {
				t.Fatalf("k=%d: sharded %v, single %v", k, got, want)
			}
		}
	}
}

// TestOwnedBuild pins the node-side builders: building a subset of the
// shards yields the same per-shard totals, answers, and ranks the full
// in-process sharded handle computes for those shards.
func TestOwnedBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q, in := pathQuery(t, rng, 400, 30)
	pt, err := Choose(q, "", 4)
	if err != nil {
		t.Fatal(err)
	}
	l, err := order.ParseLex(q, "x, y, z")
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildLex(q, in, l, pt)
	if err != nil {
		t.Fatal(err)
	}
	owned := []int{1, 3}
	o, err := BuildOwnedLex(q, in, l, pt, owned)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Shards(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("owned shards = %v", got)
	}
	if !sameLex(o.Completed(), full.Completed) {
		t.Fatalf("owned completed %v, full %v", o.Completed().Entries, full.Completed.Entries)
	}
	totals := full.PartTotals()
	for _, s := range owned {
		n, err := o.Total(s)
		if err != nil {
			t.Fatal(err)
		}
		if n != totals[s] {
			t.Fatalf("shard %d total %d, want %d", s, n, totals[s])
		}
		for k := int64(0); k < n; k += 7 {
			a, err := o.Access(s, k)
			if err != nil {
				t.Fatal(err)
			}
			r, exact, err := o.Rank(s, a)
			if err != nil || !exact || r != k {
				t.Fatalf("shard %d Rank(Access(%d)) = (%d, %v, %v)", s, k, r, exact, err)
			}
		}
		rows, err := o.Range(s, 0, min64(n, 10))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(rows)) != min64(n, 10) {
			t.Fatalf("shard %d Range len %d", s, len(rows))
		}
	}
	if _, err := o.Total(0); err == nil {
		t.Fatal("probing a non-owned shard must error")
	}
	if _, err := o.Access(2, 0); err == nil {
		t.Fatal("accessing a non-owned shard must error")
	}
	if _, err := BuildOwnedLex(q, in, l, pt, []int{9}); err == nil {
		t.Fatal("owned shard outside [0, P) must error")
	}

	// CountOwned over a partition of the shards sums to the global count.
	nAll, err := Count(q, in, pt)
	if err != nil {
		t.Fatal(err)
	}
	n13, err := CountOwned(q, in, pt, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	n02, err := CountOwned(q, in, pt, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if n13+n02 != nAll {
		t.Fatalf("CountOwned partition: %d + %d != %d", n13, n02, nAll)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
