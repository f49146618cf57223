package engine

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"rankedaccess/internal/access"
	"rankedaccess/internal/database"
	"rankedaccess/internal/values"
)

const twoPath = "Q(x, y, z) :- R(x, y), S(y, z)"

// smallInstance is the paper's Figure 2 running example.
func smallInstance() *database.Instance {
	in := database.NewInstance()
	in.AddRow("R", 1, 5)
	in.AddRow("R", 1, 2)
	in.AddRow("R", 6, 2)
	in.AddRow("S", 5, 3)
	in.AddRow("S", 5, 4)
	in.AddRow("S", 5, 6)
	in.AddRow("S", 2, 5)
	return in
}

// randomInstance generates a denser two-path instance for hammering.
func randomInstance(n int, dom int64, seed int64) *database.Instance {
	rng := rand.New(rand.NewSource(seed))
	in := database.NewInstance()
	for i := 0; i < n; i++ {
		in.AddRow("R", rng.Int63n(dom), rng.Int63n(dom))
		in.AddRow("S", rng.Int63n(dom), rng.Int63n(dom))
	}
	return in
}

func TestPrepareCachesAndPlans(t *testing.T) {
	e := New(smallInstance(), Options{})
	spec := Spec{Query: twoPath, Order: "x, y, z"}

	h1, err := e.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	if h1.Plan.Mode != ModeLayeredLex || !h1.Plan.Tractable {
		t.Fatalf("plan = %+v, want tractable layered-lex", h1.Plan)
	}
	if h1.Total() != 5 {
		t.Fatalf("total = %d, want 5", h1.Total())
	}
	h2, err := e.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatal("second Prepare did not hit the cache")
	}
	st := e.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestPlanFallsBackToMaterialized(t *testing.T) {
	e := New(smallInstance(), Options{})
	// ⟨x, z, y⟩ is the paper's canonical intractable order for the
	// two-path query.
	h, err := e.Prepare(Spec{Query: twoPath, Order: "x, z, y"})
	if err != nil {
		t.Fatal(err)
	}
	if h.Plan.Mode != ModeMaterialized || h.Plan.Tractable {
		t.Fatalf("plan = %+v, want intractable materialized", h.Plan)
	}
	if h.Plan.Verdict.Tractable {
		t.Fatal("verdict should be intractable")
	}
	if h.Total() != 5 {
		t.Fatalf("total = %d, want 5", h.Total())
	}
	// Inverted access works on the materialized fallback too.
	a, err := h.Access(2)
	if err != nil {
		t.Fatal(err)
	}
	k, err := h.Inverted(a)
	if err != nil || k != 2 {
		t.Fatalf("Inverted = (%d, %v), want (2, nil)", k, err)
	}
}

// TestNoInvertedForSumHandles pins that every SUM-ordered handle —
// plain, carrying a delta overlay, or sharded — refuses inverted access,
// while a lex handle with an overlay still answers it.
func TestNoInvertedForSumHandles(t *testing.T) {
	e := New(smallInstance(), Options{})
	sum := Spec{Query: "Q(x, y) :- R(x, y)", SumBy: []string{"x", "y"}}
	lex := Spec{Query: "Q(x, y) :- R(x, y)", Order: "x, y"}
	for _, s := range []Spec{sum, lex} {
		if _, err := e.Prepare(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddRows("R", [][]values.Value{{7, 7}}); err != nil {
		t.Fatal(err)
	}
	sharded := sum
	sharded.Shards = 2
	for _, s := range []Spec{sum, sharded} {
		h, err := e.Prepare(s)
		if err != nil {
			t.Fatal(err)
		}
		if s.Shards == 0 && h.DeltaEdits() == 0 {
			t.Fatal("write did not publish an overlay epoch")
		}
		if s.Shards != 0 && h.Plan.Shards != 2 {
			t.Fatalf("plan = %+v, want 2 shards", h.Plan)
		}
		a, err := h.Access(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Inverted(a); !errors.Is(err, ErrNoInverted) {
			t.Fatalf("shards=%d: inverted err = %v, want ErrNoInverted", s.Shards, err)
		}
	}
	h, err := e.Prepare(lex)
	if err != nil {
		t.Fatal(err)
	}
	if h.DeltaEdits() == 0 {
		t.Fatal("write did not publish an overlay epoch")
	}
	for k := int64(0); k < h.Total(); k++ {
		a, err := h.Access(k)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := h.Inverted(a); err != nil || got != k {
			t.Fatalf("overlay lex Inverted(answer %d) = %d, %v", k, got, err)
		}
	}
}

func TestPlanSumModes(t *testing.T) {
	e := New(smallInstance(), Options{})
	h, err := e.Prepare(Spec{Query: "Q(x, y) :- R(x, y)", SumBy: []string{"x", "y"}})
	if err != nil {
		t.Fatal(err)
	}
	if h.Plan.Mode != ModeSum || !h.Plan.Tractable {
		t.Fatalf("plan = %+v, want tractable sum", h.Plan)
	}
	if h.Total() != 3 {
		t.Fatalf("total = %d, want 3", h.Total())
	}
	// Sums: 1+5=6, 1+2=3, 6+2=8 → sorted 3, 6, 8.
	first, err := h.Access(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.HeadTuple(first); got[0]+got[1] != 3 {
		t.Fatalf("first by sum = %v, want weight 3", got)
	}
	if _, err := h.Inverted(first); !errors.Is(err, ErrNoInverted) {
		t.Fatalf("sum inverted err = %v, want ErrNoInverted", err)
	}

	// A SUM-intractable query (two-path with projection) falls back.
	h2, err := e.Prepare(Spec{Query: twoPath, SumBy: []string{"x", "z"}})
	if err != nil {
		t.Fatal(err)
	}
	if h2.Plan.Mode != ModeMaterialized {
		t.Fatalf("plan = %+v, want materialized fallback", h2.Plan)
	}
	if h2.Total() != 5 {
		t.Fatalf("total = %d, want 5", h2.Total())
	}
	// A SUM-sorted materialization has no inverse either.
	a2, err := h2.Access(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Inverted(a2); !errors.Is(err, ErrNoInverted) {
		t.Fatalf("materialized-sum inverted err = %v, want ErrNoInverted", err)
	}

	// Order is ignored (and not part of the cache key) when SumBy is set.
	h3, err := e.Prepare(Spec{Query: twoPath, SumBy: []string{"x", "z"}, Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	if h3 != h2 {
		t.Fatal("same SumBy spec with a stray Order rebuilt instead of hitting the cache")
	}
}

// TestConcurrentHammer drives one cached Accessor from many goroutines
// with mixed Access / Total / Inverted probes; run with -race.
func TestConcurrentHammer(t *testing.T) {
	e := New(randomInstance(2000, 64, 42), Options{})
	spec := Spec{Query: twoPath, Order: "x, y desc, z"}
	h0, err := e.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	total := h0.Total()
	if total == 0 {
		t.Fatal("empty join; pick a different seed")
	}
	// Golden answers computed serially up front.
	golden := make([][]values.Value, total)
	for k := int64(0); k < total; k++ {
		a, err := h0.Access(k)
		if err != nil {
			t.Fatal(err)
		}
		golden[k] = h0.HeadTuple(a)
	}

	const goroutines = 16
	const iters = 400
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				h, err := e.Prepare(spec)
				if err != nil {
					errs <- err
					return
				}
				if h.Total() != total {
					errs <- errors.New("total changed under a read-only workload")
					return
				}
				k := rng.Int63n(total)
				a, err := h.Access(k)
				if err != nil {
					errs <- err
					return
				}
				for p, v := range h.HeadTuple(a) {
					if golden[k][p] != v {
						errs <- errors.New("answer mismatch under concurrency")
						return
					}
				}
				if i%3 == 0 {
					back, err := h.Inverted(a)
					if err != nil {
						errs <- err
						return
					}
					if back != k {
						errs <- errors.New("inverted access disagreed with access")
						return
					}
				}
			}
		}(int64(g) + 1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 build for the hammered spec", st.Misses)
	}
}

// TestSingleFlight checks that concurrent cold requests for one spec
// share a single build.
func TestSingleFlight(t *testing.T) {
	e := New(randomInstance(500, 32, 7), Options{})
	spec := Spec{Query: twoPath, Order: "x, y, z"}
	const goroutines = 12
	var wg sync.WaitGroup
	handles := make([]*Handle, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h, err := e.Prepare(spec)
			if err == nil {
				handles[g] = h
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if handles[g] == nil || handles[g] != handles[0] {
			t.Fatal("concurrent cold Prepares returned distinct handles")
		}
	}
	if st := e.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (single-flight)", st.Misses)
	}
}

// TestSingleFlightWaiterOutlivesCanceledBuilder: a shared build runs
// under its first requester's context. When that requester is canceled
// mid-build, a waiter whose own context is still live must retry with a
// fresh flight and get a handle, not the stranger's cancellation.
func TestSingleFlightWaiterOutlivesCanceledBuilder(t *testing.T) {
	spec := Spec{Query: twoPath, Order: "x, y, z"}
	for attempt := 0; ; attempt++ {
		if attempt == 10 {
			t.Fatal("every build finished before its requester was canceled")
		}
		// Large enough that the layered build spans many ms of waves.
		e := New(randomInstance(10000, 1024, 31), Options{})
		bctx, cancel := context.WithCancel(context.Background())
		builder := make(chan error, 1)
		go func() {
			_, err := e.PrepareCtx(bctx, spec)
			builder <- err
		}()
		waitUntil(t, func() bool {
			e.cmu.Lock()
			defer e.cmu.Unlock()
			return len(e.flights) > 0
		})
		var h *Handle
		waiter := make(chan error, 1)
		go func() {
			var err error
			h, err = e.PrepareCtx(context.Background(), spec)
			waiter <- err
		}()
		waitUntil(t, func() bool { return flightWaiters() > 0 })
		cancel()
		berr := <-builder
		if err := <-waiter; err != nil || h == nil {
			t.Fatalf("waiter with a live context = (%v, %v), want a handle", h, err)
		}
		if berr == nil {
			continue // the build finished before the cancel landed
		}
		if !errors.Is(berr, context.Canceled) {
			t.Fatalf("canceled builder = %v, want context.Canceled", berr)
		}
		if st := e.Stats(); st.Misses != 2 {
			t.Fatalf("misses = %d, want 2 (the canceled build and the waiter's retry)", st.Misses)
		}
		want, err := New(randomInstance(10000, 1024, 31), Options{}).Prepare(spec)
		if err != nil {
			t.Fatal(err)
		}
		if h.Total() != want.Total() {
			t.Fatalf("retried build total %d, want %d", h.Total(), want.Total())
		}
		return
	}
}

// waitUntil polls cond until it holds, failing the test after 10s.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
	}
}

// flightWaiters counts the goroutines blocked waiting on a shared
// single-flight build.
func flightWaiters() int {
	buf := make([]byte, 1<<20)
	return bytes.Count(buf[:runtime.Stack(buf, true)], []byte("lru.(*Flight[...]).Wait("))
}

// TestMutationInvalidates checks that instance mutation is visible to the
// next Prepare instead of serving stale cached answers.
func TestMutationInvalidates(t *testing.T) {
	e := New(smallInstance(), Options{})
	spec := Spec{Query: twoPath, Order: "x, y, z"}
	h1, err := e.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	if h1.Total() != 5 {
		t.Fatalf("total = %d, want 5", h1.Total())
	}

	// R(7, 5) joins with the three S(5, ·) rows: three new answers.
	if err := e.AddRows("R", [][]values.Value{{7, 5}}); err != nil {
		t.Fatal(err)
	}
	// A bad batch is rejected before mutating anything.
	if err := e.AddRows("R", [][]values.Value{{1, 2}, {1, 2, 3}}); err == nil {
		t.Fatal("arity-mismatched batch accepted")
	}

	h2, err := e.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	if h2 == h1 {
		t.Fatal("mutation did not invalidate the cached handle")
	}
	if h2.Total() != 8 {
		t.Fatalf("total after mutation = %d, want 8", h2.Total())
	}
	// The old handle still answers from its consistent snapshot.
	if h1.Total() != 5 {
		t.Fatalf("old handle total = %d, want 5", h1.Total())
	}
	if st := e.Stats(); st.Version != 1 {
		t.Fatalf("version = %d, want 1", st.Version)
	}
}

// TestConcurrentMutateAndPrepare interleaves mutations with prepares and
// probes; correctness here is "no race, no crash, monotone totals".
func TestConcurrentMutateAndPrepare(t *testing.T) {
	e := New(smallInstance(), Options{})
	spec := Spec{Query: twoPath, Order: "x, y, z"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := e.AddRows("R", [][]values.Value{{int64(100 + i), 5}}); err != nil {
				t.Error(err)
				return
			}
		}
		close(stop)
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				h, err := e.Prepare(spec)
				if err != nil {
					t.Error(err)
					return
				}
				if n := h.Total(); n > 0 {
					if _, err := h.Access(rng.Int63n(n)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	h, err := e.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 5 original answers + 50 new R(·, 5) rows × 3 S(5, ·) rows.
	if h.Total() != 5+150 {
		t.Fatalf("final total = %d, want 155", h.Total())
	}
}

func TestAccessBatchSelectCount(t *testing.T) {
	e := New(smallInstance(), Options{})
	spec := Spec{Query: twoPath, Order: "x, y, z"}
	h, tuples, errs, err := e.Access(spec, []int64{0, 3, 99})
	if err != nil || h == nil {
		t.Fatalf("Access failed to plan: %v", err)
	}
	if errs[0] != nil || errs[1] != nil {
		t.Fatalf("in-bound errors: %v %v", errs[0], errs[1])
	}
	if !errors.Is(errs[2], access.ErrOutOfBound) {
		t.Fatalf("errs[2] = %v, want out of bound", errs[2])
	}
	if tuples[0][0] != 1 || tuples[2] != nil {
		t.Fatalf("tuples = %v", tuples)
	}

	sel, err := e.Select(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := h.Access(2)
	if err != nil {
		t.Fatal(err)
	}
	want := h.HeadTuple(direct)
	for i := range want {
		if sel[i] != want[i] {
			t.Fatalf("Select = %v, Access = %v", sel, want)
		}
	}

	n, err := e.Count(twoPath)
	if err != nil || n != 5 {
		t.Fatalf("Count = (%d, %v), want (5, nil)", n, err)
	}
}

func TestClassifyProblems(t *testing.T) {
	e := New(smallInstance(), Options{})
	spec := Spec{Query: twoPath, Order: "x, z, y"}
	v, err := e.Classify(ProblemDirectAccessLex, spec)
	if err != nil || v.Tractable {
		t.Fatalf("DA-lex on ⟨x,z,y⟩ = (%v, %v), want intractable", v.Tractable, err)
	}
	v, err = e.Classify(ProblemSelectionLex, spec)
	if err != nil || !v.Tractable {
		t.Fatalf("selection-lex on ⟨x,z,y⟩ = (%v, %v), want tractable", v.Tractable, err)
	}
	if _, err := e.Classify("nonsense", spec); err == nil {
		t.Fatal("unknown problem accepted")
	}
	// FDs flip the two-path DA-lex verdict for ⟨x,z,y⟩ when y → z.
	vFD, err := e.Classify(ProblemDirectAccessLex, Spec{
		Query: twoPath, Order: "x, z, y", FDs: []string{"S: y -> z"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !vFD.Tractable {
		t.Fatalf("FD-refined verdict = %+v, want tractable", vFD)
	}
}

func TestLRUEviction(t *testing.T) {
	e := New(smallInstance(), Options{CacheSize: 2})
	specs := []Spec{
		{Query: twoPath, Order: "x, y, z"},
		{Query: twoPath, Order: "y, x, z"},
		{Query: twoPath, Order: "y, z, x"},
	}
	for _, s := range specs {
		if _, err := e.Prepare(s); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.Entries != 2 {
		t.Fatalf("entries = %d, want cache bounded at 2", st.Entries)
	}
	// The least-recently-used spec rebuilds.
	before := e.Stats().Misses
	if _, err := e.Prepare(specs[0]); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Misses != before+1 {
		t.Fatal("evicted entry was served from cache")
	}
}

// TestAccessRangeMatchesAccess checks the batched range path against
// per-index access on all three structure modes.
func TestAccessRangeMatchesAccess(t *testing.T) {
	in := randomInstance(512, 64, 31)
	e := New(in, Options{})
	specs := []Spec{
		{Query: twoPath, Order: "x, y, z"},                       // layered-lex
		{Query: twoPath, Order: "x, z, y"},                       // materialized (intractable order)
		{Query: "Q(x, y) :- R(x, y)", SumBy: []string{"x", "y"}}, // sum
	}
	for _, s := range specs {
		h, err := e.Prepare(s)
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		total := h.Total()
		if total < 4 {
			t.Fatalf("%+v: too few answers (%d)", s, total)
		}
		k0, k1 := total/4, total/4+3
		_, flat, err := e.AccessRange(s, nil, k0, k1)
		if err != nil {
			t.Fatalf("%+v: AccessRange: %v", s, err)
		}
		w := h.Width()
		if len(flat) != int(k1-k0)*w {
			t.Fatalf("%+v: flat len %d, want %d", s, len(flat), int(k1-k0)*w)
		}
		for k := k0; k < k1; k++ {
			a, err := h.Access(k)
			if err != nil {
				t.Fatal(err)
			}
			want := h.HeadTuple(a)
			got := flat[(k-k0)*int64(w) : (k-k0+1)*int64(w)]
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("%+v k=%d: got %v, want %v", s, k, got, want)
				}
			}
			// AppendTuple agrees and respects dst.
			dst := []values.Value{-99}
			dst, err = h.AppendTuple(dst, k)
			if err != nil || dst[0] != -99 || len(dst) != 1+w {
				t.Fatalf("AppendTuple: dst=%v err=%v", dst, err)
			}
		}
		// Bad ranges fail cleanly.
		if _, err := h.AccessRange(nil, -1, 2); err == nil {
			t.Fatal("negative k0 accepted")
		}
		if _, err := h.AccessRange(nil, total, total+1); err == nil {
			t.Fatal("out-of-bound range accepted")
		}
	}
}
