package engine

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"rankedaccess/internal/database"
	"rankedaccess/internal/snapshot"
	"rankedaccess/internal/values"
	"rankedaccess/internal/workload"
)

// snapInstance builds a deterministic two-path instance.
func snapInstance(t testing.TB, n int) *database.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	_, in := workload.TwoPath(rng, n, n/8, 0.3)
	return in
}

// snapSpecs covers every persistable structure kind plus the skip
// paths (sharded, FDs).
var snapSpecs = []Spec{
	{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "x, y, z"},            // layered-lex
	{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "y desc, x"},          // layered-lex, partial+desc
	{Query: "Q(x, y) :- R(x, y)", SumBy: []string{"x", "y"}},               // sum
	{Query: "Q(x, z) :- R(x, y), S(y, z)", Order: "x, z"},                  // materialized (projection)
	{Query: "Q(x, z) :- R(x, y), S(y, z)", SumBy: []string{"x", "z"}},      // materialized sum
	{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "x, y, z", Shards: 4}, // sharded: skipped
}

// probeAll reads the first and last few answers of a handle.
func probeAll(t *testing.T, h *Handle) [][]values.Value {
	t.Helper()
	total := h.Total()
	ks := []int64{0, 1, total / 3, total / 2, total - 2, total - 1}
	var out [][]values.Value
	for _, k := range ks {
		if k < 0 || k >= total {
			continue
		}
		tu, err := h.AppendTuple(nil, k)
		if err != nil {
			t.Fatalf("access %d of %d: %v", k, total, err)
		}
		out = append(out, tu)
	}
	return out
}

func TestCheckpointOpenRoundTrip(t *testing.T) {
	in := snapInstance(t, 4096)
	e := New(in, Options{})
	want := make(map[int][][]values.Value)
	totals := make(map[int]int64)
	for i, s := range snapSpecs {
		h, err := e.Prepare(s)
		if err != nil {
			t.Fatalf("prepare %d: %v", i, err)
		}
		want[i] = probeAll(t, h)
		totals[i] = h.Total()
		if h.Plan.verdict == "" || h.Plan.verdict != h.Plan.Verdict.String() {
			t.Fatalf("spec %d: built verdict text %q, want it preformatted", i, h.Plan.verdict)
		}
	}
	if _, err := e.Register("roundtrip", snapSpecs[0]); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	info, err := e.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Structures != 5 || info.Skipped != 1 {
		t.Fatalf("persisted %d structures, skipped %d; want 5/1", info.Structures, info.Skipped)
	}
	if info.Registrations != 1 {
		t.Fatalf("persisted %d registrations, want 1", info.Registrations)
	}

	e2, warm, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if !warm {
		t.Fatal("Open found no snapshot")
	}
	st := e2.Stats()
	if st.WarmStructures != 5 {
		t.Fatalf("warm structures = %d, want 5", st.WarmStructures)
	}
	if st.Version != e.Version() {
		t.Fatalf("version %d, want %d", st.Version, e.Version())
	}
	if st.Tuples != in.Size() {
		t.Fatalf("tuples %d, want %d", st.Tuples, in.Size())
	}
	misses := st.Misses
	for i, s := range snapSpecs[:5] {
		h, err := e2.Prepare(s)
		if err != nil {
			t.Fatalf("warm prepare %d: %v", i, err)
		}
		if h.Total() != totals[i] {
			t.Fatalf("spec %d: warm total %d, want %d", i, h.Total(), totals[i])
		}
		if h.Plan.verdict == "" || h.Plan.verdict != h.Plan.Verdict.String() {
			t.Fatalf("spec %d: rehydrated verdict text %q, want it preformatted", i, h.Plan.verdict)
		}
		if got := probeAll(t, h); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("spec %d: warm answers %v, want %v", i, got, want[i])
		}
	}
	if st2 := e2.Stats(); st2.Misses != misses {
		t.Fatalf("warm prepares built %d structures; want pure cache hits", st2.Misses-misses)
	}
	// The skipped sharded spec rebuilds on demand and still answers
	// identically.
	for i, s := range snapSpecs[5:] {
		h, err := e2.Prepare(s)
		if err != nil {
			t.Fatalf("rebuild prepare %d: %v", i, err)
		}
		if got := probeAll(t, h); !reflect.DeepEqual(got, want[i+5]) {
			t.Fatalf("spec %d: rebuilt answers differ", i+5)
		}
	}
	// The registry rehydrated lazily: the first by-name acquire resolves
	// against the preloaded cache.
	pq, err := e2.Prepared("roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	h, err := pq.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if got := probeAll(t, h); !reflect.DeepEqual(got, want[0]) {
		t.Fatal("registry handle answers differ after warm start")
	}
}

// TestWarmStartFullScanByteIdentical compares the complete answer
// stream of a warm-started structure against the cold build, probed
// concurrently (run with -race).
func TestWarmStartFullScanByteIdentical(t *testing.T) {
	in := snapInstance(t, 2048)
	e := New(in, Options{})
	s := snapSpecs[0]
	h, err := e.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := h.AccessRange(nil, 0, h.Total())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := e.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	e2, warm, err := Open(dir, Options{})
	if err != nil || !warm {
		t.Fatalf("open: warm=%v err=%v", warm, err)
	}
	defer e2.Close()
	h2, err := e2.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			total := h2.Total()
			chunk := (total + 7) / 8
			k0, k1 := int64(g)*chunk, min(int64(g+1)*chunk, total)
			got, err := h2.AccessRange(nil, k0, k1)
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			w := h2.Width()
			if !reflect.DeepEqual(got, want[k0*int64(w):k1*int64(w)]) {
				t.Errorf("goroutine %d: warm answers differ in [%d, %d)", g, k0, k1)
			}
		}(g)
	}
	wg.Wait()
	// Inverted access works against the mapped structure too.
	a, err := h2.Access(17)
	if err != nil {
		t.Fatal(err)
	}
	k, err := h2.Inverted(a)
	if err != nil || k != 17 {
		t.Fatalf("inverted = %d, %v; want 17", k, err)
	}
}

// TestCheckpointSkipsFDStructures: FD-extended structures carry
// closures that do not persist; checkpoints skip them and warm starts
// rebuild them on demand.
func TestCheckpointSkipsFDStructures(t *testing.T) {
	e := New(nil, Options{})
	rows := make([][]values.Value, 64)
	for i := range rows {
		rows[i] = []values.Value{values.Value(i), values.Value(i % 8)}
	}
	if err := e.AddRows("R", rows); err != nil {
		t.Fatal(err)
	}
	s := Spec{Query: "Q(x, y) :- R(x, y)", Order: "y", FDs: []string{"R: x -> y"}}
	h, err := e.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	want := probeAll(t, h)
	dir := t.TempDir()
	info, err := e.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Skipped != 1 {
		t.Fatalf("skipped %d structures, want 1 (the FD-extended one)", info.Skipped)
	}
	e2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	h2, err := e2.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := probeAll(t, h2); !reflect.DeepEqual(got, want) {
		t.Fatal("FD structure rebuilt after warm start answers differently")
	}
}

func TestOpenEmptyDir(t *testing.T) {
	e, warm, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		t.Fatal("warm start from an empty directory")
	}
	if err := e.AddRows("R", [][]values.Value{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if n, err := e.Count("Q(x, y) :- R(x, y)"); err != nil || n != 1 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

// TestMutationAfterWarmStart: a warm-started engine is a normal engine;
// mutations invalidate mapped structures and rebuilds see the new data.
func TestMutationAfterWarmStart(t *testing.T) {
	in := snapInstance(t, 512)
	e := New(in, Options{})
	s := snapSpecs[0]
	h, err := e.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	before := h.Total()
	dir := t.TempDir()
	if _, err := e.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	e2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	// A y value present on both sides guarantees new answers.
	if err := e2.AddRows("R", [][]values.Value{{1 << 40, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := e2.AddRows("S", [][]values.Value{{3, 1 << 41}}); err != nil {
		t.Fatal(err)
	}
	h2, err := e2.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Total() <= before {
		t.Fatalf("total %d after mutation, was %d before", h2.Total(), before)
	}
}

func TestRestoreIntoLiveEngine(t *testing.T) {
	in := snapInstance(t, 512)
	e := New(in, Options{})
	s := snapSpecs[0]
	h, err := e.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	want := probeAll(t, h)
	dir := t.TempDir()
	ck, err := e.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}

	// A different live engine, with other data and its own registration.
	e2 := New(nil, Options{})
	if err := e2.AddRows("R", [][]values.Value{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Register("other", Spec{Query: "Q(x, y) :- R(x, y)"}); err != nil {
		t.Fatal(err)
	}
	vBefore := e2.Version()
	info, err := e2.Restore(filepath.Join(dir, ck.Name))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	if info.Version <= vBefore || info.Version <= ck.Version {
		t.Fatalf("restore version %d does not move forward past %d/%d", info.Version, vBefore, ck.Version)
	}
	if _, err := e2.Prepared("other"); err == nil {
		t.Fatal("pre-restore registration survived the restore")
	}
	h2, err := e2.Prepare(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := probeAll(t, h2); !reflect.DeepEqual(got, want) {
		t.Fatal("restored answers differ")
	}
	if st := e2.Stats(); st.Restores != 1 {
		t.Fatalf("restores = %d, want 1", st.Restores)
	}
}

func TestRestoreCorruptFileFailsCleanly(t *testing.T) {
	e := New(snapInstance(t, 256), Options{})
	if _, err := e.Prepare(snapSpecs[0]); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ck, err := e.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ck.Name)
	corruptFile(t, path, 100)
	vBefore := e.Version()
	if _, err := e.Restore(path); err == nil {
		t.Fatal("restore of a corrupt snapshot succeeded")
	}
	if e.Version() != vBefore {
		t.Fatal("failed restore mutated the engine")
	}
	if n, err := e.Count(snapSpecs[0].Query); err != nil || n == 0 {
		t.Fatalf("engine unusable after failed restore: %d, %v", n, err)
	}
}

func corruptFile(t *testing.T, path string, off int64) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[off] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointList checks the directory listing and latest-selection
// helpers through multiple checkpoints.
func TestCheckpointList(t *testing.T) {
	e := New(snapInstance(t, 256), Options{})
	dir := t.TempDir()
	if _, err := e.Checkpoint(dir); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRows("R", [][]values.Value{{9, 9}}); err != nil {
		t.Fatal(err)
	}
	ck2, err := e.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := snapshot.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("listed %d snapshots, want 2", len(infos))
	}
	latest, ok, err := snapshot.Latest(dir)
	if err != nil || !ok {
		t.Fatalf("latest: %v %v", ok, err)
	}
	if latest != ck2.Name {
		t.Fatalf("latest = %q, want %q", latest, ck2.Name)
	}
	if infos[0].EngineVersion != ck2.Version {
		t.Fatalf("listed version %d, want %d", infos[0].EngineVersion, ck2.Version)
	}
}

func BenchmarkColdBuild(b *testing.B) {
	in := snapInstance(b, 1<<16)
	s := Spec{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "x, y, z"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := New(in, Options{})
		h, err := e.Prepare(s)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Access(h.Total() / 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWarmStart(b *testing.B) {
	in := snapInstance(b, 1<<16)
	s := Spec{Query: "Q(x, y, z) :- R(x, y), S(y, z)", Order: "x, y, z"}
	e := New(in, Options{})
	if _, err := e.Prepare(s); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if _, err := e.Checkpoint(dir); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		we, warm, err := Open(dir, Options{})
		if err != nil || !warm {
			b.Fatalf("warm=%v err=%v", warm, err)
		}
		h, err := we.Prepare(s)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.Access(h.Total() / 2); err != nil {
			b.Fatal(err)
		}
		we.Close()
	}
}

func TestCheckpointTinyEngine(t *testing.T) {
	e := New(nil, Options{})
	if err := e.AddRows("R", [][]values.Value{{1, 10}, {2, 20}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Prepare(Spec{Query: "Q(x, y) :- R(x, y)", Order: "x"}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	info, err := e.Checkpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if info.Structures != 1 {
		t.Fatalf("persisted %d structures, want 1", info.Structures)
	}
	warm, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	h, err := warm.Prepare(Spec{Query: "Q(x, y) :- R(x, y)", Order: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != 2 {
		t.Fatalf("total = %d, want 2", h.Total())
	}
}
