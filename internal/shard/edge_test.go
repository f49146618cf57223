package shard

import (
	"errors"
	"math/rand"
	"slices"
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
	sh, err := buildAll(q, in, pt, lexParts(q, l))
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
	if n, err := Count(q, in, pt, pt.All()); err != nil || n != 1 {
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
	shs, err := buildAll(qs, ins, pts, sumParts(qs, w))
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
	sh, err = buildAll(q, emptyIn, pt, lexParts(q, l))
	if err != nil {
		t.Fatalf("BuildLex over empty instance: %v", err)
	}
	if sh.Total() != 0 {
		t.Fatalf("empty instance Total = %d", sh.Total())
	}
	if _, err := sh.AnswerAt(bg, nil, 0); !errors.Is(err, access.ErrOutOfBound) {
		t.Fatalf("empty instance Access(0) = %v, want ErrOutOfBound", err)
	}
	if n, err := Count(q, emptyIn, pt, pt.All()); err != nil || n != 0 {
		t.Fatalf("empty instance Count = %d, %v", n, err)
	}
}

func mustBuildMatLex(t *testing.T, q *cq.Query, in *database.Instance, l order.Lex, pt Partitioning) *Handle {
	t.Helper()
	sh, err := buildAll(q, in, pt, matLexParts(q, l))
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
	outs := Split(q, in, pt, pt.All())
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
	sh, err := buildAll(q, in, pt, lexParts(q, l))
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

// TestOwnedBuild pins the node-side builds for every structure kind:
// building a subset of the shards yields the same per-shard totals,
// answers, and ranks the all-shards build computes for those shards,
// and the owned counts of a partition of the shards sum to the global
// count.
func TestOwnedBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	q, in := pathQuery(t, rng, 400, 30)
	keyed := cq.MustParse("Q(x, y) :- R(x, y), S(y, z)") // SUM-tractable: R holds the head
	x, _ := q.VarByName("x")
	z, _ := q.VarByName("z")
	lexOf := func(spec string) order.Lex {
		l, err := order.ParseLex(q, spec)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	kx, _ := keyed.VarByName("x")
	ky, _ := keyed.VarByName("y")
	kinds := []struct {
		name  string
		q     *cq.Query
		build func(*database.Instance) (access.Ranked, error)
	}{
		{"lex", q, lexParts(q, lexOf("x, y, z"))},
		{"sum", keyed, sumParts(keyed, order.IdentitySum(kx, ky))},
		{"materialized-lex", q, matLexParts(q, lexOf("z desc"))},
		{"materialized-sum", q, matSumParts(q, order.IdentitySum(x, z))},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			q := kind.q
			pt, err := Choose(q, "", 4)
			if err != nil {
				t.Fatal(err)
			}
			all, err := Build(q, in, pt, pt.All(), kind.build)
			if err != nil {
				t.Fatal(err)
			}
			full, err := all.Handle()
			if err != nil {
				t.Fatal(err)
			}
			totals := full.PartTotals()
			for _, owned := range [][]int{{0, 2}, {1, 3}} {
				o, err := Build(q, in, pt, owned, kind.build)
				if err != nil {
					t.Fatal(err)
				}
				if got := o.Shards(); !slices.Equal(got, owned) {
					t.Fatalf("owned shards = %v, want %v", got, owned)
				}
				if !slices.Equal(o.Completed().Entries, full.Completed.Entries) {
					t.Fatalf("owned completed %v, full %v", o.Completed().Entries, full.Completed.Entries)
				}
				if _, err := o.Handle(); err == nil {
					t.Fatal("merging a strict subset of the shards must error")
				}
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
						want, err := all.Access(s, k)
						if err != nil || !slices.Equal(a, want) {
							t.Fatalf("shard %d Access(%d) = %v, all-shards build %v (%v)", s, k, a, want, err)
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
				notOwned := 3 - owned[0] // 3 for {0, 2}, 2 for {1, 3}
				if _, err := o.Total(notOwned); err == nil {
					t.Fatal("probing a non-owned shard must error")
				}
				if _, err := o.Access(notOwned, 0); err == nil {
					t.Fatal("accessing a non-owned shard must error")
				}
			}
			if _, err := Build(q, in, pt, []int{9}, kind.build); err == nil {
				t.Fatal("owned shard outside [0, P) must error")
			}

			// Count over a partition of the shards sums to the global count.
			nAll, err := Count(q, in, pt, pt.All())
			if err != nil {
				t.Fatal(err)
			}
			if nAll != full.Total() {
				t.Fatalf("all-shards count %d, handle total %d", nAll, full.Total())
			}
			n13, err := Count(q, in, pt, []int{1, 3})
			if err != nil {
				t.Fatal(err)
			}
			n02, err := Count(q, in, pt, []int{0, 2})
			if err != nil {
				t.Fatal(err)
			}
			if n13+n02 != nAll {
				t.Fatalf("owned count partition: %d + %d != %d", n13, n02, nAll)
			}
		})
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
