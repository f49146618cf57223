// Allocation-regression suite for the hot paths the tuple-index rework
// targets: steady-state ranked access must not allocate at all, and the
// batched paths must amortize their bookkeeping across the window. Run
// the benchmarks with -benchmem and compare against the reference
// numbers in README.md ("Performance architecture").
package rankedaccess

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rankedaccess/internal/access"
	"rankedaccess/internal/engine"
	"rankedaccess/internal/order"
	"rankedaccess/internal/trace"
	"rankedaccess/internal/values"
	"rankedaccess/internal/workload"
)

func buildTwoPathLex(tb testing.TB, n int) *access.Lex {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	q, in := workload.TwoPath(rng, n, n/8, 0.3)
	l, err := order.ParseLex(q, "x, y, z")
	if err != nil {
		tb.Fatal(err)
	}
	la, err := access.BuildLex(q, in, l)
	if err != nil {
		tb.Fatal(err)
	}
	if la.Total() == 0 {
		tb.Fatal("empty join")
	}
	return la
}

// TestSteadyStateAccessZeroAllocs is the acceptance guard for the
// allocation-free access path: probing a built structure through a
// reused buffer must perform exactly zero allocations per access.
func TestSteadyStateAccessZeroAllocs(t *testing.T) {
	la := buildTwoPathLex(t, 1<<13)
	buf := la.NewBuf()
	total := la.Total()
	k := int64(0)
	step := total/97 + 1
	if n := testing.AllocsPerRun(500, func() {
		if _, err := la.AccessInto(buf, k); err != nil {
			t.Fatal(err)
		}
		k = (k + step) % total
	}); n != 0 {
		t.Fatalf("steady-state AccessInto allocates %v times per access, want 0", n)
	}
}

// TestAppendRangeAmortizedAllocs checks the batched path: a whole range
// through a pre-grown destination buffer must not allocate per answer.
func TestAppendRangeAmortizedAllocs(t *testing.T) {
	la := buildTwoPathLex(t, 1<<13)
	total := la.Total()
	width := int64(3) // head is (x, y, z)
	win := int64(64)
	if win > total {
		win = total
	}
	dst := make([]values.Value, 0, win*width)
	k := int64(0)
	// The pooled probe buffer may be re-created if a GC empties the
	// pool mid-measurement, so allow strictly-sub-per-answer noise
	// rather than demanding exact zero.
	perRun := testing.AllocsPerRun(200, func() {
		var err error
		dst, err = la.AppendRange(dst[:0], k, k+win)
		if err != nil {
			t.Fatal(err)
		}
		k = (k + win) % (total - win + 1)
	})
	if perRun >= float64(win)/4 {
		t.Fatalf("AppendRange allocates %v times per %d-answer window", perRun, win)
	}
}

// TestTracingDisabledZeroAllocs is the acceptance guard for the
// tracing integration: with tracing disabled (nil *trace.Tracer — the
// default configuration), the context-threaded serving probe path must
// allocate exactly as much as before tracing existed, i.e. zero. This
// pins both halves of the contract: Tracer.Start/Span.End on a nil
// tracer are free, and the ctx plumbing through the engine's *Ctx
// variants adds no hidden boxing.
func TestTracingDisabledZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	_, in := workload.TwoPath(rng, 1<<13, 1<<10, 0.3)
	e := engine.New(in, engine.Options{})
	pq, err := e.Register("guard", engine.Spec{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "x, y, z"})
	if err != nil {
		t.Fatal(err)
	}
	h, err := pq.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	total := h.Total()
	if total == 0 {
		t.Fatal("empty join")
	}
	var tracer *trace.Tracer
	dst := make([]values.Value, 0, 8)
	bg := context.Background()
	k := int64(0)
	step := total/89 + 1
	if n := testing.AllocsPerRun(500, func() {
		ctx, sp := tracer.Start(bg, "bench.access", trace.KindServer)
		h, err := pq.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		dst, err = h.AppendTupleCtx(ctx, dst[:0], k)
		if err != nil {
			t.Fatal(err)
		}
		sp.End()
		k = (k + step) % total
	}); n != 0 {
		t.Fatalf("tracing-disabled probe path allocates %v times per request, want 0", n)
	}
}

// TestEngineCacheHitAllocs guards the engine's by-spec cache hit. Keys
// are comparable structs, so keying the spec and finding its current
// handle allocates nothing. The whole of BenchmarkEngineAccessRange's
// loop (hit plus a 64-answer window into a reused buffer) stays within
// 3 allocations: it is 0 too, but under -race sync.Pool drops the
// pooled probe buffer at random.
func TestEngineCacheHitAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	_, in := workload.TwoPath(rng, 1<<13, 1<<10, 0.3)
	e := engine.New(in, engine.Options{})
	spec := engine.Spec{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "x, y, z"}
	h, err := e.Prepare(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() {
		if _, err := e.Prepare(spec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("engine cache hit allocates %v times per Prepare, want 0", n)
	}
	const win = 64
	total := h.Total()
	if total < win {
		t.Fatalf("total %d below the window", total)
	}
	dst := make([]values.Value, 0, win*3)
	k := int64(0)
	if n := testing.AllocsPerRun(500, func() {
		_, dst, err = e.AccessRange(spec, dst[:0], k, k+win)
		if err != nil {
			t.Fatal(err)
		}
		k = (k + win) % (total - win + 1)
	}); n > 3 {
		t.Fatalf("engine cache hit + range allocates %v times per call, want at most 3", n)
	}
	if st := e.Stats(); st.Misses != 1 {
		t.Fatalf("%d cache misses, want only the initial build", st.Misses)
	}
}

// --- Benchmarks: single access, buffered access, batched access ---

func BenchmarkAccess_Fresh(b *testing.B) {
	la := buildTwoPathLex(b, 1<<14)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := la.Access(rng.Int63n(la.Total())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccess_Buffered(b *testing.B) {
	la := buildTwoPathLex(b, 1<<14)
	rng := rand.New(rand.NewSource(2))
	buf := la.NewBuf()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := la.AccessInto(buf, rng.Int63n(la.Total())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccess_AppendTuple(b *testing.B) {
	la := buildTwoPathLex(b, 1<<14)
	rng := rand.New(rand.NewSource(2))
	dst := make([]values.Value, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = la.AppendTuple(dst[:0], rng.Int63n(la.Total()))
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessRange_Batched measures per-answer cost of contiguous
// windows against the per-call cost of BenchmarkAccess_Buffered.
func BenchmarkAccessRange_Batched(b *testing.B) {
	for _, win := range []int64{16, 256} {
		b.Run(fmt.Sprintf("window=%d", win), func(b *testing.B) {
			la := buildTwoPathLex(b, 1<<14)
			total := la.Total()
			if win > total {
				b.Skip("window wider than answer set")
			}
			dst := make([]values.Value, 0, win*3)
			k := int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				dst, err = la.AppendRange(dst[:0], k, k+win)
				if err != nil {
					b.Fatal(err)
				}
				k = (k + win) % (total - win + 1)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(win), "ns/answer")
		})
	}
}

// BenchmarkEngineAccessRange exercises the whole serving path: cache
// hit, pooled probe buffer, flat result buffer.
func BenchmarkEngineAccessRange(b *testing.B) {
	rng := rand.New(rand.NewSource(20))
	_, in := workload.TwoPath(rng, 1<<14, 1<<11, 0.3)
	e := engine.New(in, engine.Options{})
	spec := engine.Spec{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "x, y, z"}
	h, err := e.Prepare(spec)
	if err != nil {
		b.Fatal(err)
	}
	total := h.Total()
	const win = 64
	dst := make([]values.Value, 0, win*3)
	k := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, dst, err = e.AccessRange(spec, dst[:0], k, k+win)
		if err != nil {
			b.Fatal(err)
		}
		k = (k + win) % (total - win + 1)
	}
}
