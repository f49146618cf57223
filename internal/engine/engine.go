// Package engine serves repeated ranked-access workloads over one
// mutable database instance.
//
// The paper's structures pay O(n log n) preprocessing per (query, order)
// pair and then answer each access in O(log n); a service answering many
// probes of the same pair must therefore build once and probe many
// times. The Engine does exactly that:
//
//   - it plans each request by running the paper's classification first
//     and picking the best structure — the layered lexicographic
//     structure (Theorem 4.1), the SUM structure (Theorem 5.1), or the
//     materialize-and-sort fallback on the intractable side
//     (generalizing the facade's NewDirectAccessAny);
//   - it caches built structures in an LRU keyed by (query text, order,
//     FD set, SUM variables, instance version), so repeated requests
//     skip preprocessing entirely;
//   - concurrent requests for the same missing key share one build
//     (single-flight), and all structures are immutable after
//     construction, so any number of goroutines may probe one cached
//     Handle;
//   - mutations are MVCC: every write appends a batch to a write-ahead
//     log (internal/delta) and bumps the version, but never purges the
//     cache. A later Prepare of a stale structure catches up by
//     replaying the logged batches — republishing the structure
//     unchanged when no batch touches its relations, merging the
//     answer-level delta in as a small sorted overlay
//     (internal/access.Overlay) when one does, and falling back to a
//     full rebuild only when the delta is opaque (Engine.Mutate), the
//     log tail no longer reaches back, or the overlay grew past the
//     hard limit. Once an overlay crosses the soft threshold a
//     background re-preprocess rebuilds the structure and atomically
//     swaps it into the cache while readers keep probing the published
//     epoch. Handles and cursors always answer from the immutable epoch
//     they were acquired on, so writes never invalidate an in-progress
//     scan.
package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rankedaccess/internal/access"
	"rankedaccess/internal/classify"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/delta"
	"rankedaccess/internal/faultfs"
	"rankedaccess/internal/fd"
	"rankedaccess/internal/lru"
	"rankedaccess/internal/order"
	"rankedaccess/internal/reqid"
	"rankedaccess/internal/selection"
	"rankedaccess/internal/shard"
	"rankedaccess/internal/trace"
	"rankedaccess/internal/values"
)

// ErrNoInverted reports that the planned structure cannot answer
// inverted access (the SUM structures have no inverse).
var ErrNoInverted = errors.New("engine: inverted access unsupported for this structure")

// ErrNotPrepared reports that no prepared query with the requested name
// is registered (see Engine.Register / Engine.Prepared).
var ErrNotPrepared = errors.New("engine: query not prepared")

// DefaultCacheSize bounds the accessor cache when Options.CacheSize is
// unset.
const DefaultCacheSize = 64

// DefaultDeltaSoft is the overlay edit count past which a background
// re-preprocess is scheduled (the overlay keeps serving meanwhile).
const DefaultDeltaSoft = 512

// DefaultDeltaHard is the overlay edit count past which a catch-up
// gives up on merging and rebuilds synchronously: beyond it the
// O(log d) overlay search and the delta evaluation stop being cheaper
// than preprocessing.
const DefaultDeltaHard = 4096

// Options configures an Engine.
type Options struct {
	// CacheSize bounds the number of cached access structures;
	// DefaultCacheSize when <= 0.
	CacheSize int
	// DeltaSoft is the overlay size that triggers a background rebuild;
	// DefaultDeltaSoft when <= 0.
	DeltaSoft int
	// DeltaHard is the overlay size that forces a synchronous rebuild;
	// DefaultDeltaHard when <= 0.
	DeltaHard int
	// FS is the filesystem the durability layer (WAL, checkpoints) runs
	// on; faultfs.OS() when nil. Chaos tests substitute a
	// faultfs.Injector here.
	FS faultfs.FS
	// Logger, when non-nil, receives structured events from the
	// engine's slow paths — synchronous structure builds, background
	// rebuilds, WAL append failures. Build events carry the request id
	// of the triggering request (internal/reqid) when the context has
	// one, so operators can join an expensive build to the request that
	// paid for it. Nil disables engine logging; the hot probe paths
	// never log either way.
	Logger *slog.Logger
	// Remote, when non-nil, turns the engine into a distributed
	// coordinator: Prepare delegates planning and building to the
	// RemoteBuilder, Count scatters to the cluster, and the write path
	// returns ErrReadOnly (the coordinator owns no data). All caching,
	// single-flight, registry, and cursor machinery still applies —
	// remote handles are cached and shared like local ones.
	Remote RemoteBuilder
}

// Spec identifies a ranked-access request against the engine's instance.
// Exactly the textual inputs a remote caller can send; the engine parses
// and validates them.
type Spec struct {
	// Query is the conjunctive query text, e.g. "Q(x, z) :- R(x, y), S(y, z)".
	Query string
	// Order is a lexicographic order such as "x, z desc" (possibly
	// partial, possibly empty). Ignored when SumBy is set.
	Order string
	// SumBy, when non-empty, requests ranking by the sum of the named
	// variables' values (the identity-weight SUM order).
	SumBy []string
	// FDs are unary functional dependencies "R: x -> y" to refine the
	// classification (§8).
	FDs []string
	// Shards, when ≥ 2, requests hash-partitioned execution: the
	// instance is split on a partition variable, per-shard structures
	// are built in parallel, and accesses merge per-shard answer counts
	// (internal/shard). Queries that cannot be partitioned fall back to
	// a single structure; Plan.ShardNote records why. Values above
	// shard.MaxShards are clamped.
	Shards int
	// ShardBy optionally names the partition variable, which must be a
	// free variable of the query; empty picks the free variable
	// appearing in the most atoms. Ignored unless Shards ≥ 2.
	ShardBy string
}

// normShards canonicalizes a requested shard count: anything below 2 is
// unsharded, anything above the shard package's bound is clamped.
func normShards(p int) int {
	if p < 2 {
		return 1
	}
	if p > shard.MaxShards {
		return shard.MaxShards
	}
	return p
}

// Mode names the structure a plan selected.
type Mode string

const (
	// ModeLayeredLex is the ⟨n log n, log n⟩ layered structure.
	ModeLayeredLex Mode = "layered-lex"
	// ModeSum is the ⟨n log n, 1⟩ SUM structure.
	ModeSum Mode = "sum"
	// ModeMaterialized is the Θ(|Q(I)|) materialize-and-sort fallback
	// used on the intractable side of the dichotomies.
	ModeMaterialized Mode = "materialized"
)

// Plan records the planning outcome for a Spec.
type Plan struct {
	// Mode is the structure chosen.
	Mode Mode
	// Tractable reports the side of the paper's dichotomy the request
	// fell on.
	Tractable bool
	// Verdict is the classification with its certificate.
	Verdict classify.Verdict
	// Shards is the shard count actually used (0 when unsharded).
	Shards int
	// ShardBy is the partition variable actually used (empty when
	// unsharded).
	ShardBy string
	// ShardNote records why a sharding request fell back to a single
	// structure (empty when sharding succeeded or was not requested).
	ShardNote string

	// verdict is Verdict.String(), formatted once when the handle was
	// built or rehydrated.
	verdict string
}

// VerdictText returns the verdict with its certificate as text. Handles
// carry it preformatted, so serving it costs no formatting per request.
func (p Plan) VerdictText() string {
	if p.verdict == "" {
		return p.Verdict.String()
	}
	return p.verdict
}

// Handle is a prepared, immutable, concurrency-safe access structure.
// Any number of goroutines may call its methods.
type Handle struct {
	// Query is the parsed query (answers index its variables).
	Query *cq.Query
	// Plan records how the request was served.
	Plan Plan

	// spec is the request this handle was built from; checkpoints
	// persist it so a warm start can re-key the structure.
	spec Spec

	// version is the instance version (WAL sequence) this handle's
	// answers reflect: the epoch it was built or caught up to.
	version uint64
	// rels is the set of relation symbols the query references; batches
	// touching none of them republish the handle unchanged.
	rels map[string]bool

	// r answers every probe: the built structure (layered lex, SUM,
	// materialized, sharded, or a sharded FD-extension view), or a
	// delta overlay over it.
	r access.Ranked

	// Delta overlay: base is the structure r merges over and
	// ovAdds/ovDels are the answer-level edits accumulated since base
	// was built; all nil while r is the built structure itself.
	// Immutable, like everything else on a Handle: a catch-up publishes
	// a new Handle with a new overlay.
	base   access.Ranked
	ovAdds []order.Answer
	ovDels []order.Answer

	// partTotals and partNanos are the per-shard answer counts and
	// build wall times of a sharded handle (nil when unsharded).
	partTotals, partNanos []int64
}

// Version returns the instance version (epoch) the handle answers for.
func (h *Handle) Version() uint64 { return h.version }

// DeltaEdits returns the number of answer-level edits the handle's
// overlay carries (0 for a handle serving its base structure directly).
func (h *Handle) DeltaEdits() int { return len(h.ovAdds) + len(h.ovDels) }

// Total returns |Q(I)| as of the handle's build.
func (h *Handle) Total() int64 { return h.r.Total() }

// Access returns the k-th answer in the handle's order.
func (h *Handle) Access(k int64) (order.Answer, error) {
	return h.AccessCtx(context.Background(), k)
}

// AccessCtx is Access with a caller context: on a coordinator handle
// the context rides the network scatter (trace propagation, deadline);
// in-process structures ignore it.
func (h *Handle) AccessCtx(ctx context.Context, k int64) (order.Answer, error) {
	return h.r.AnswerAt(ctx, nil, k)
}

// Inverted returns the index of an answer. SUM-ordered handles have no
// inverse (ErrNoInverted); layered and materialized lex structures do.
func (h *Handle) Inverted(a order.Answer) (int64, error) {
	if len(h.spec.SumBy) > 0 {
		return 0, ErrNoInverted
	}
	k, member, err := h.r.RankOf(context.Background(), a)
	if err != nil {
		return 0, err
	}
	if !member {
		return 0, access.ErrNotAnAnswer
	}
	return k, nil
}

// HeadTuple projects an answer onto the query head, in head order.
func (h *Handle) HeadTuple(a order.Answer) []values.Value {
	return h.AppendHeadTuple(make([]values.Value, 0, len(h.Query.Head)), a)
}

// AppendHeadTuple appends the head projection of a to dst and returns
// the extended slice, allocating only when dst lacks capacity.
func (h *Handle) AppendHeadTuple(dst []values.Value, a order.Answer) []values.Value {
	for _, v := range h.Query.Head {
		dst = append(dst, a[v])
	}
	return dst
}

// Width returns the number of head columns of each answer tuple.
func (h *Handle) Width() int { return len(h.Query.Head) }

// ShardBuildNanos returns the per-shard build wall times of a sharded
// handle (nil when unsharded), for benchmarking and diagnostics.
func (h *Handle) ShardBuildNanos() []int64 { return slices.Clone(h.partNanos) }

// ShardTotals returns the per-shard answer counts of a sharded handle
// (nil when unsharded).
func (h *Handle) ShardTotals() []int64 { return slices.Clone(h.partTotals) }

// AppendTuple appends the head tuple of the k-th answer to dst and
// returns the extended slice. Every structure serves it as a one-answer
// window; the layered structure's runs allocation-free on stack
// scratch, so all structures only pay dst growth.
func (h *Handle) AppendTuple(dst []values.Value, k int64) ([]values.Value, error) {
	return h.AppendTupleCtx(context.Background(), dst, k)
}

// AppendTupleCtx is AppendTuple with a caller context (see AccessCtx).
func (h *Handle) AppendTupleCtx(ctx context.Context, dst []values.Value, k int64) ([]values.Value, error) {
	if k < 0 || k >= h.r.Total() {
		return dst, access.ErrOutOfBound
	}
	return h.r.AppendWindow(ctx, dst, k, k+1)
}

// AccessRange appends the head tuples of answers k0 ≤ k < k1 to dst
// (Width values each, concatenated) and returns the extended slice. The
// per-call planning and buffer overhead is paid once for the whole
// range, so batched scans of a built structure run allocation-free
// modulo dst growth.
func (h *Handle) AccessRange(dst []values.Value, k0, k1 int64) ([]values.Value, error) {
	return h.AccessRangeCtx(context.Background(), dst, k0, k1)
}

// AccessRangeCtx is AccessRange with a caller context (see AccessCtx).
func (h *Handle) AccessRangeCtx(ctx context.Context, dst []values.Value, k0, k1 int64) ([]values.Value, error) {
	if k0 < 0 || k1 < k0 {
		return dst, fmt.Errorf("engine: bad access range [%d, %d)", k0, k1)
	}
	return h.r.AppendWindow(ctx, dst, k0, k1)
}

// Stats is a snapshot of engine counters.
type Stats struct {
	// Hits and Misses count cache lookups by Prepare.
	Hits, Misses uint64
	// Entries is the current number of cached structures.
	Entries int
	// Version is the instance version (bumped by every mutation).
	Version uint64
	// Tuples is the instance size n.
	Tuples int
	// Prepared is the number of registered named queries.
	Prepared int
	// RegistryHits counts by-name probes served from a registered
	// query's current handle with zero spec re-parsing (not even a
	// cache-key construction).
	RegistryHits uint64
	// Reprepares counts automatic rebuilds of registered queries after
	// an instance-version change.
	Reprepares uint64
	// Checkpoints and Restores count snapshot writes and loads over the
	// engine's lifetime.
	Checkpoints, Restores uint64
	// WarmStructures is the number of access structures rehydrated from
	// the snapshot by the most recent Open/Restore (0 for a cold
	// engine).
	WarmStructures uint64
	// WALBatches counts mutation batches applied through the write path.
	WALBatches uint64
	// DeltaSkips counts stale structures republished unchanged because
	// no logged batch touched their relations.
	DeltaSkips uint64
	// DeltaEpochs counts overlay epochs published: stale structures that
	// absorbed writes by merging the answer-level delta instead of
	// rebuilding.
	DeltaEpochs uint64
	// DeltaRebuilds counts stale structures that had to rebuild
	// synchronously (opaque reset, truncated log tail, ineligible
	// structure, or an overlay past the hard limit).
	DeltaRebuilds uint64
	// BGRebuilds counts background re-preprocesses that completed and
	// swapped a fresh structure into the cache.
	BGRebuilds uint64
	// WALErrors counts durable-WAL append failures that were absorbed
	// rather than returned (Mutate's reset marker, whose replay is a
	// no-op anyway). Nonzero means the disk under the WAL is unhealthy.
	WALErrors uint64
}

// Engine is a concurrency-safe planner/cache over one database instance.
type Engine struct {
	// mu guards the instance and version: builds and one-shot reads hold
	// it shared for their full duration, mutations hold it exclusively,
	// so a mutation never interleaves with a build.
	mu      sync.RWMutex
	in      *database.Instance
	version uint64

	// vnow mirrors version for lock-free staleness checks by registered
	// queries and cursors; it is written only under mu exclusive.
	vnow atomic.Uint64

	// snapDir is the snapshot directory a WAL-attached engine was opened
	// from; a live Restore checkpoints into it so the restored lineage
	// is durable before the pre-restore WAL frames are discarded.
	snapDir string

	// wlog is the in-memory WAL tail stale structures catch up from;
	// wal, when non-nil (snapshot-dir engines), is the durable on-disk
	// log. Both are appended under mu exclusive.
	wlog *delta.Log
	wal  *delta.WAL

	// deltaSoft/deltaHard are the overlay thresholds (see Options).
	deltaSoft, deltaHard int

	// fs is the filesystem under the WAL and checkpoint files (see
	// Options.FS).
	fs faultfs.FS

	// cmu guards the structure cache and the in-flight builds.
	cmu     sync.Mutex
	cache   *lru.Cache[specKey, *Handle]
	flights map[flightKey]*lru.Flight[*Handle]

	// bg tracks background re-preprocess goroutines (Quiesce waits).
	bg sync.WaitGroup

	// life is the engine's lifetime context: background rebuilds build
	// under it, so Close abandons them at the next wave boundary instead
	// of waiting out a full O(n log n) preprocess.
	life context.Context
	stop context.CancelFunc

	// log receives slow-path events (see Options.Logger); nil means
	// logging is off.
	log *slog.Logger

	// remote, when non-nil, makes this a coordinator engine (see
	// Options.Remote).
	remote RemoteBuilder

	// rmu guards the named-query registry.
	rmu      sync.Mutex
	registry map[string]*PreparedQuery
	regGen   uint64

	hits, misses        atomic.Uint64
	regHits, reprepares atomic.Uint64

	walBatches, deltaSkips, deltaEpochs atomic.Uint64
	deltaRebuilds, bgRebuilds           atomic.Uint64
	walErrors                           atomic.Uint64

	// Snapshot state: counters plus the open file mappings warm
	// structures alias (released by Close, never before).
	checkpoints, restores, warmStructures atomic.Uint64
	smu                                   sync.Mutex
	mappings                              []io.Closer
}

// New returns an Engine over the given instance. The Engine owns the
// instance from here on: mutate it only through the write path
// (ApplyBatch/AddRows/DeleteRows/Mutate).
func New(in *database.Instance, opts Options) *Engine {
	if in == nil {
		in = database.NewInstance()
	}
	size := opts.CacheSize
	if size <= 0 {
		size = DefaultCacheSize
	}
	soft := opts.DeltaSoft
	if soft <= 0 {
		soft = DefaultDeltaSoft
	}
	hard := opts.DeltaHard
	if hard <= 0 {
		hard = DefaultDeltaHard
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = faultfs.OS()
	}
	life, stop := context.WithCancel(context.Background())
	return &Engine{
		in:        in,
		wlog:      delta.NewLog(0),
		deltaSoft: soft,
		deltaHard: hard,
		fs:        fsys,
		life:      life,
		stop:      stop,
		log:       opts.Logger,
		remote:    opts.Remote,
		cache:     lru.New[specKey, *Handle](size),
		flights:   make(map[flightKey]*lru.Flight[*Handle]),
		registry:  make(map[string]*PreparedQuery),
	}
}

// versionNow reads the instance version without locking; registered
// queries use it for staleness checks on their hot paths.
func (e *Engine) versionNow() uint64 { return e.vnow.Load() }

// ApplyBatch atomically applies one batch of relational mutations: the
// batch is validated in full, appended to the durable WAL (when one is
// attached) and the in-memory log, applied to the instance, and
// published as the new instance version, which it returns. Cached
// structures are NOT purged: the next request for one catches up from
// the log — see the package comment.
func (e *Engine) ApplyBatch(muts []delta.Mutation) (uint64, error) {
	return e.ApplyBatchCtx(context.Background(), muts)
}

// ApplyBatchCtx is ApplyBatch with a caller context, used only for
// trace attribution: the WAL append and in-memory apply are recorded
// as span events on the request's span when one is active.
func (e *Engine) ApplyBatchCtx(ctx context.Context, muts []delta.Mutation) (uint64, error) {
	if e.remote != nil {
		return 0, ErrReadOnly
	}
	for i := range muts {
		if err := muts[i].Validate(); err != nil {
			return 0, fmt.Errorf("engine: %w", err)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := validateArity(e.in, muts); err != nil {
		return 0, err
	}
	b := delta.Batch{Seq: e.version + 1, Muts: muts}
	if e.wal != nil {
		walStart := time.Now()
		if err := e.wal.Append(b); err != nil {
			if e.log != nil {
				e.log.LogAttrs(context.Background(), slog.LevelError, "engine: wal append failed",
					slog.Uint64("seq", b.Seq), slog.String("error", err.Error()))
			}
			return 0, fmt.Errorf("engine: %w", err)
		}
		trace.FromContext(ctx).AddEvent("wal.append",
			trace.Int("seq", int64(b.Seq)),
			trace.Int("mutations", int64(len(muts))),
			trace.Int("duration_us", time.Since(walStart).Microseconds()))
	}
	applyMuts(e.in, muts)
	e.wlog.Append(b)
	e.version = b.Seq
	e.vnow.Store(b.Seq)
	e.walBatches.Add(1)
	return b.Seq, nil
}

// validateArity checks every mutation's arity against the instance AND
// against earlier mutations in the same batch, so a batch that creates
// a relation cannot disagree with itself about its arity. This must
// catch everything applyMuts would choke on BEFORE the batch reaches
// the durable WAL: a poisoned frame would otherwise fail again on every
// replay, turning one bad request into a crash loop across restarts.
func validateArity(in *database.Instance, muts []delta.Mutation) error {
	var created map[string]int
	for i := range muts {
		m := &muts[i]
		if m.Op == delta.OpReset {
			continue
		}
		if r := in.Relation(m.Rel); r != nil {
			if r.Arity() != m.Arity {
				return fmt.Errorf("engine: relation %s has arity %d, %s has %d", m.Rel, r.Arity(), m.Op, m.Arity)
			}
			continue
		}
		if a, ok := created[m.Rel]; ok {
			if a != m.Arity {
				return fmt.Errorf("engine: relation %s has arity %d earlier in the batch, %s has %d", m.Rel, a, m.Op, m.Arity)
			}
			continue
		}
		if created == nil {
			created = make(map[string]int)
		}
		created[m.Rel] = m.Arity
	}
	return nil
}

// applyMuts applies validated mutations to the instance. OpReset
// applies nothing: it is a marker for an opaque change that already
// happened (live) or that only the next checkpoint carries (replay).
func applyMuts(in *database.Instance, muts []delta.Mutation) {
	for i := range muts {
		m := &muts[i]
		switch m.Op {
		case delta.OpInsert:
			for r := 0; r < m.NumRows(); r++ {
				in.AddRow(m.Rel, m.Row(r)...)
			}
		case delta.OpDelete:
			for r := 0; r < m.NumRows(); r++ {
				in.DeleteRow(m.Rel, m.Row(r)...)
			}
		}
	}
}

// AddRows appends rows to the named relation (creating it on first
// use) through the write path. The rows are validated against the
// relation's arity (or each other, for a new relation) before anything
// is appended, so a bad batch leaves the instance untouched.
func (e *Engine) AddRows(rel string, rows [][]values.Value) error {
	m, err := rowsMutation(delta.OpInsert, rel, rows)
	if err != nil || m == nil {
		return err
	}
	_, err = e.ApplyBatch([]delta.Mutation{*m})
	return err
}

// DeleteRows removes every occurrence of each given row from the named
// relation through the write path. Rows absent from the relation are
// ignored (deletion is idempotent, which also makes WAL replay safe).
func (e *Engine) DeleteRows(rel string, rows [][]values.Value) error {
	m, err := rowsMutation(delta.OpDelete, rel, rows)
	if err != nil || m == nil {
		return err
	}
	_, err = e.ApplyBatch([]delta.Mutation{*m})
	return err
}

// rowsMutation flattens row slices into one mutation record, checking
// the rows agree on one arity (nil for an empty batch).
func rowsMutation(op delta.Op, rel string, rows [][]values.Value) (*delta.Mutation, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	arity := len(rows[0])
	flat := make([]values.Value, 0, len(rows)*arity)
	for _, row := range rows {
		if len(row) != arity {
			return nil, fmt.Errorf("engine: relation %s has arity %d, row has %d", rel, arity, len(row))
		}
		flat = append(flat, row...)
	}
	return &delta.Mutation{Op: op, Rel: rel, Arity: arity, Rows: flat}, nil
}

// Mutate applies an opaque mutation f to the instance under the
// exclusive lock. The engine fingerprints every relation before and
// after f and logs one OpReset batch naming exactly the relations that
// changed, so structures over untouched relations republish cheaply
// while structures over reset relations rebuild (a row-level delta is
// unknowable for an opaque f). The version moves only when something
// actually changed. The reset is logged even when f panics: a partial
// mutation must not be served from stale structures.
func (e *Engine) Mutate(f func(*database.Instance)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	before := fingerprints(e.in)
	defer func() {
		after := fingerprints(e.in)
		var muts []delta.Mutation
		for name, fp := range after {
			if b, ok := before[name]; !ok || b != fp {
				muts = append(muts, delta.Mutation{Op: delta.OpReset, Rel: name})
			}
		}
		for name := range before {
			if _, ok := after[name]; !ok {
				muts = append(muts, delta.Mutation{Op: delta.OpReset, Rel: name})
			}
		}
		if len(muts) == 0 {
			return
		}
		sort.Slice(muts, func(i, j int) bool { return muts[i].Rel < muts[j].Rel })
		b := delta.Batch{Seq: e.version + 1, Muts: muts}
		if e.wal != nil {
			// A reset replays as a no-op either way (opaque changes are
			// durable only through the next checkpoint), so a failed
			// append loses nothing but the seq advance marker — but it
			// is still an I/O error on the durability path, so count it
			// (Stats.WALErrors) instead of dropping it on the floor.
			if err := e.wal.Append(b); err != nil {
				e.walErrors.Add(1)
				if e.log != nil {
					e.log.LogAttrs(context.Background(), slog.LevelWarn, "engine: wal append failed (absorbed)",
						slog.Uint64("seq", b.Seq), slog.String("error", err.Error()))
				}
			}
		}
		e.wlog.Append(b)
		e.version = b.Seq
		e.vnow.Store(b.Seq)
		e.walBatches.Add(1)
	}()
	f(e.in)
}

// relFP fingerprints one relation for Mutate's touched-set detection:
// arity and length compared exactly, contents compared by a 64-bit
// FNV-1a hash. Equal fingerprints are treated as "unchanged", which is
// a deliberate tradeoff: a same-length hash collision would skip the
// OpReset and leave stale structures published. With random data that
// is a ~2^-64 event per relation per Mutate; callers that cannot
// accept it (adversarial tuple values chosen to collide) should use the
// explicit write path (ApplyBatch/AddRows/DeleteRows), which needs no
// fingerprinting at all.
type relFP struct {
	arity, n int
	hash     uint64
}

// fingerprints hashes every relation's contents, keyed by name, so
// Mutate can detect which relations an opaque mutation touched.
func fingerprints(in *database.Instance) map[string]relFP {
	out := make(map[string]relFP)
	for _, name := range in.Names() {
		r := in.Relation(name)
		h := uint64(14695981039346656037)
		data := r.Data()
		for _, v := range data {
			h ^= uint64(v)
			h *= 1099511628211
		}
		out[name] = relFP{arity: r.Arity(), n: len(data), hash: h}
	}
	return out
}

// Quiesce blocks until every in-flight background re-preprocess has
// finished (tests and shutdown paths use it; serving code never needs
// to).
func (e *Engine) Quiesce() { e.bg.Wait() }

// Version returns the current instance version.
func (e *Engine) Version() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.version
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	version, tuples := e.version, e.in.Size()
	e.mu.RUnlock()
	e.cmu.Lock()
	entries := e.cache.Len()
	e.cmu.Unlock()
	e.rmu.Lock()
	prepared := len(e.registry)
	e.rmu.Unlock()
	return Stats{
		Hits:           e.hits.Load(),
		Misses:         e.misses.Load(),
		Entries:        entries,
		Version:        version,
		Tuples:         tuples,
		Prepared:       prepared,
		RegistryHits:   e.regHits.Load(),
		Reprepares:     e.reprepares.Load(),
		Checkpoints:    e.checkpoints.Load(),
		Restores:       e.restores.Load(),
		WarmStructures: e.warmStructures.Load(),
		WALBatches:     e.walBatches.Load(),
		DeltaSkips:     e.deltaSkips.Load(),
		DeltaEpochs:    e.deltaEpochs.Load(),
		DeltaRebuilds:  e.deltaRebuilds.Load(),
		BGRebuilds:     e.bgRebuilds.Load(),
		WALErrors:      e.walErrors.Load(),
	}
}

// Health is a point-in-time degradation snapshot: the readiness signal
// behind serve's /readyz and its write shedding.
type Health struct {
	// WALBroken reports an unrecoverable WAL append failure; writes fail
	// fast with ErrWALBroken until a restart replays the good prefix.
	WALBroken bool
	// WALErrors is the count of absorbed durable-append failures
	// (Stats.WALErrors); nonzero means the disk under the WAL is
	// unhealthy even if the log itself is still usable.
	WALErrors uint64
	// MaxOverlayEdits is the largest delta overlay any cached structure
	// carries. At or past DeltaHard the next probe of that structure
	// pays a synchronous O(n log n) rebuild — the rebuild backlog is
	// behind, and accepting more writes only digs the hole deeper.
	MaxOverlayEdits int
	// BGRebuilding is the number of background re-preprocesses in
	// flight.
	BGRebuilding int
	// DeltaHard echoes the engine's hard overlay limit so callers can
	// compare MaxOverlayEdits against it without config plumbing.
	DeltaHard int
}

// Degraded reports whether the engine should shed writes: the WAL can
// no longer durably accept them, or the rebuild backlog has fallen past
// the hard overlay limit (reads still serve, from published epochs).
func (h Health) Degraded() bool {
	return h.WALBroken || h.MaxOverlayEdits >= h.DeltaHard
}

// Health samples the engine's degradation state. It takes the read
// lock briefly (WAL state is written under the write lock) but never
// blocks on builds.
func (e *Engine) Health() Health {
	h := Health{WALErrors: e.walErrors.Load(), DeltaHard: e.deltaHard}
	e.mu.RLock()
	if e.wal != nil {
		h.WALBroken = e.wal.Broken()
	}
	e.mu.RUnlock()
	e.cmu.Lock()
	for _, ch := range e.cache.All() {
		h.MaxOverlayEdits = max(h.MaxOverlayEdits, ch.DeltaEdits())
	}
	for fk := range e.flights {
		if fk.bg {
			h.BGRebuilding++
		}
	}
	e.cmu.Unlock()
	return h
}

// specKey is a Spec's canonical cache key. It is versionless — one
// cache slot per spec, holding the handle for whatever epoch it last
// built or caught up to (Handle.version records which).
type specKey struct {
	query, order, sumBy, fds, shardBy string
	shards                            int
}

// key canonicalizes a Spec, allocating only to sort two or more FDs or
// summed variables. FD and SumBy lists are order-insensitive, and Order
// is dropped when SumBy is set (parse ignores it, so the built
// structure is identical). The shard count and partition variable are
// part of the accessor identity: the same query sharded differently is
// a different structure. ShardBy is dropped when the request is
// unsharded.
func (s Spec) key() specKey {
	k := specKey{query: s.Query, order: s.Order, fds: sortedJoin(s.FDs, ";"), shards: normShards(s.Shards)}
	if len(s.SumBy) > 0 {
		k.order, k.sumBy = "", sortedJoin(s.SumBy, ",")
	}
	if k.shards > 1 {
		k.shardBy = s.ShardBy
	}
	return k
}

// compare orders keys field by field, for deterministic checkpoints.
func (k specKey) compare(o specKey) int {
	return cmp.Or(
		strings.Compare(k.query, o.query), strings.Compare(k.order, o.order),
		strings.Compare(k.sumBy, o.sumBy), strings.Compare(k.fds, o.fds),
		cmp.Compare(k.shards, o.shards), strings.Compare(k.shardBy, o.shardBy))
}

// sortedJoin joins a set of names independently of their order.
func sortedJoin(names []string, sep string) string {
	if len(names) < 2 {
		return strings.Join(names, sep)
	}
	return strings.Join(slices.Sorted(slices.Values(names)), sep)
}

// flightKey names one in-flight build: a request's build or catch-up,
// scoped to one version so an old epoch is never handed to a requester
// of a new one, or (bg) the spec's one background rebuild.
type flightKey struct {
	spec    specKey
	version uint64
	bg      bool
}

// parsed is a Spec after parsing against its own query.
type parsed struct {
	q   *cq.Query
	l   order.Lex
	w   order.Sum
	fds fd.Set
	sum bool
}

func (s Spec) parse() (*parsed, error) {
	q, err := cq.Parse(s.Query)
	if err != nil {
		return nil, err
	}
	p := &parsed{q: q}
	for _, src := range s.FDs {
		set, err := fd.Parse(q, src)
		if err != nil {
			return nil, err
		}
		p.fds = append(p.fds, set...)
	}
	if len(s.SumBy) > 0 {
		p.sum = true
		vars := make([]cq.VarID, len(s.SumBy))
		for i, name := range s.SumBy {
			id, ok := q.VarByName(name)
			if !ok {
				return nil, fmt.Errorf("engine: sum variable %q not in query", name)
			}
			vars[i] = id
		}
		p.w = order.IdentitySum(vars...)
		return p, nil
	}
	l, err := order.ParseLex(q, s.Order)
	if err != nil {
		return nil, err
	}
	p.l = l
	return p, nil
}

// Prepare plans the request and returns a ready Handle, serving it from
// the cache when the same Spec was already built against the current
// instance version. Concurrent calls for the same missing key perform a
// single build.
func (e *Engine) Prepare(s Spec) (*Handle, error) {
	return e.PrepareCtx(context.Background(), s)
}

// PrepareCtx is Prepare with cancellation: a request whose deadline
// expires stops waiting on a shared in-flight build immediately, and a
// build it runs itself is abandoned at the next preprocessing wave
// boundary. The error then wraps ctx.Err().
func (e *Engine) PrepareCtx(ctx context.Context, s Spec) (*Handle, error) {
	h, _, err := e.prepareVersionedCtx(ctx, s)
	return h, err
}

// ctxErr reports whether an error is (or wraps) a context cancellation
// or deadline expiry.
func ctxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// prepareVersionedCtx resolves a spec against the current version and
// returns also that version, so registered queries can record which
// snapshot their current handle answers for.
//
// A cached handle at the current version is a plain hit. A cached
// handle at an older version is advanced instead of discarded:
// republished unchanged when no logged batch touched its relations,
// extended with a delta overlay when one did, rebuilt from scratch only
// when neither works (see advance). Concurrent requesters for the same
// spec at the same version share one catch-up/build through the flight
// table.
//
// A shared flight builds under its FIRST requester's context. When that
// requester gives up mid-build, waiters whose own deadlines are still
// live retry with a fresh flight rather than inheriting the stranger's
// cancellation.
func (e *Engine) prepareVersionedCtx(ctx context.Context, s Spec) (*Handle, uint64, error) {
	key := s.key()
	for {
		h, version, retry, err := e.prepareOnce(ctx, s, key)
		if retry && ctx.Err() == nil {
			continue
		}
		return h, version, err
	}
}

// prepareOnce is one attempt of prepareVersionedCtx; retry=true means
// the flight it joined died of its builder's cancellation, not ours.
func (e *Engine) prepareOnce(ctx context.Context, s Spec, key specKey) (*Handle, uint64, bool, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	version := e.version

	e.cmu.Lock()
	stale, cached := e.cache.Get(key)
	if cached && stale.version == version {
		e.cmu.Unlock()
		e.hits.Add(1)
		return stale, version, false, nil
	}
	fk := flightKey{spec: key, version: version}
	if fl, ok := e.flights[fk]; ok {
		e.cmu.Unlock()
		// The builder also holds mu.RLock, so waiting here cannot
		// deadlock with a writer: both readers run to completion first.
		h, err := fl.Wait(ctx)
		if ctxErr(err) {
			return nil, 0, true, err
		}
		e.hits.Add(1)
		return h, version, false, err
	}
	fl := lru.NewFlight[*Handle]()
	e.flights[fk] = fl
	e.cmu.Unlock()

	var h *Handle
	var err error
	if cached {
		h = e.advance(s, key, stale, version)
	}
	if h != nil {
		e.hits.Add(1)
	} else {
		e.misses.Add(1)
		start := time.Now()
		h, err = e.build(ctx, s)
		if err == nil {
			h.version = version
		}
		e.logBuild(ctx, s, version, cached, time.Since(start), err)
		trace.FromContext(ctx).AddEvent("engine.build",
			trace.Str("query", s.Query),
			trace.Int("version", int64(version)),
			trace.Int("duration_us", time.Since(start).Microseconds()))
	}

	e.land(fk, fl, h, err)
	return h, version, false, err
}

// land ends flight fk: it publishes a successful build, deregisters the
// flight and wakes its waiters, reporting whether the handle stuck.
func (e *Engine) land(fk flightKey, fl *lru.Flight[*Handle], h *Handle, err error) bool {
	e.cmu.Lock()
	stuck := err == nil && e.publish(fk.spec, h)
	// Deregister before waking waiters: a waiter retrying after a
	// canceled build must find either the cached result or no flight at
	// all, never the dead flight again (which would spin).
	delete(e.flights, fk)
	e.cmu.Unlock()
	fl.Finish(h, err)
	return stuck
}

// publish is the only way a handle enters the cache, and so the one
// place that keeps a spec's published epoch from regressing. Candidates
// are ordered totally by version, then by fewer overlay edits: an older
// version never replaces a newer one, and an edit-free rebuilt
// structure beats an overlay of the same version whichever is published
// first. It reports whether h is now the cached handle. The caller
// holds cmu.
func (e *Engine) publish(key specKey, h *Handle) bool {
	if cur, ok := e.cache.Get(key); ok && (cur.version > h.version ||
		cur.version == h.version && cur.DeltaEdits() < h.DeltaEdits()) {
		return false
	}
	e.cache.Add(key, h)
	return true
}

// logBuild emits one structured event for a synchronous structure
// build (a cache miss, or a stale handle that could not catch up via
// the delta overlay), tagged with the request id of the triggering
// request when its context carries one — that join is what lets an
// operator attribute a latency spike to the build that caused it.
func (e *Engine) logBuild(ctx context.Context, s Spec, version uint64, rebuild bool, d time.Duration, err error) {
	if e.log == nil {
		return
	}
	level := slog.LevelInfo
	attrs := make([]slog.Attr, 0, 6)
	attrs = append(attrs,
		slog.String("query", s.Query),
		slog.Uint64("version", version),
		slog.Bool("rebuild", rebuild),
		slog.Duration("duration", d),
	)
	if id := reqid.From(ctx); id != "" {
		attrs = append(attrs, slog.String("request_id", id))
	}
	if err != nil {
		level = slog.LevelWarn
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	e.log.LogAttrs(ctx, level, "engine: structure build", attrs...)
}

// build plans and constructs a structure, on this process or (on a
// coordinator) through the RemoteBuilder; the caller holds mu.RLock, so
// the instance is stable throughout.
func (e *Engine) build(ctx context.Context, s Spec) (*Handle, error) {
	build := e.buildLocal
	if e.remote != nil {
		build = e.buildRemote
	}
	h, err := build(ctx, s)
	if err != nil {
		return nil, err
	}
	h.Plan.verdict = h.Plan.Verdict.String()
	return h, nil
}

// buildLocal is build over the engine's own instance. Layered-lex
// builds check ctx at every preprocessing wave boundary; the other
// structure kinds check it once before their (uninterruptible)
// construction.
func (e *Engine) buildLocal(ctx context.Context, s Spec) (*Handle, error) {
	p, err := s.parse()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	shards := normShards(s.Shards)
	if shards > 1 && s.ShardBy != "" {
		// Reject a bad explicit partition variable instead of silently
		// falling back: the caller asked for something specific.
		if err := shard.ValidateBy(p.q, s.ShardBy); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}
	h := &Handle{Query: p.q, spec: s, rels: queryRels(p.q)}
	var wfd classify.WithFDs // FD witness, reused by the sharded build
	h.Plan.Verdict, wfd = p.classify()
	if shards > 1 {
		err := e.buildSharded(ctx, h, p, wfd, s.ShardBy, shards)
		if err == nil {
			return h, nil
		}
		if ctxErr(err) {
			return nil, err
		}
		h.Plan.ShardNote = err.Error()
	}
	if p.sum {
		if h.Plan.Verdict.Tractable {
			var sa *access.Sum
			if len(p.fds) == 0 {
				sa, err = access.BuildSum(p.q, e.in, p.w)
			} else {
				sa, err = access.BuildSumFD(p.q, e.in, p.w, p.fds)
			}
			if err == nil {
				h.Plan.Mode, h.Plan.Tractable, h.r = ModeSum, true, sa
				return h, nil
			}
			var ie *access.IntractableError
			if !errors.As(err, &ie) {
				return nil, err
			}
		}
		h.Plan.Mode = ModeMaterialized
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		h.r = access.BuildMaterializedSum(p.q, e.in, p.w)
		return h, nil
	}

	if h.Plan.Verdict.Tractable {
		var la *access.Lex
		if len(p.fds) == 0 {
			la, err = access.BuildLexCtx(ctx, p.q, e.in, p.l)
		} else {
			la, err = access.BuildLexFDCtx(ctx, p.q, e.in, p.l, p.fds)
		}
		if ctxErr(err) {
			return nil, err
		}
		if err == nil {
			h.Plan.Mode, h.Plan.Tractable, h.r = ModeLayeredLex, true, la
			return h, nil
		}
		var ie *access.IntractableError
		if !errors.As(err, &ie) {
			return nil, err
		}
	}
	h.Plan.Mode = ModeMaterialized
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h.r = access.BuildMaterializedLex(p.q, e.in, p.l)
	return h, nil
}

// classify decides the spec's side of the dichotomy, returning also
// the FD witness (zero without FDs).
func (p *parsed) classify() (classify.Verdict, classify.WithFDs) {
	switch {
	case p.sum && len(p.fds) == 0:
		return classify.DirectAccessSum(p.q), classify.WithFDs{}
	case p.sum:
		return classify.DirectAccessSumFD(p.q, p.fds)
	case len(p.fds) == 0:
		return classify.DirectAccessLex(p.q, p.l), classify.WithFDs{}
	}
	return classify.DirectAccessLexFD(p.q, p.l, p.fds)
}

// queryRels collects the relation symbols a query references.
func queryRels(q *cq.Query) map[string]bool {
	rels := make(map[string]bool, len(q.Atoms))
	for i := range q.Atoms {
		rels[q.Atoms[i].Rel] = true
	}
	return rels
}

// buildSharded is buildLocal's sharded branch: the mode ladder over
// all P shards, merged into one handle. A tractable FD spec is extended
// globally first — the extension shares variable ids with the original
// query, the reordered order L⁺ sorts Q⁺(I⁺) exactly as L sorts Q(I)
// (Lemma 8.16), and promoted variables weigh zero (Lemma 8.5) — and the
// plain extension is then partitioned, so every shard prices foreign
// candidates against complete FD-implied values. The materialized
// fallback needs no extension: FDs change neither its answer set nor
// its order. A non-nil error other than ctx's leaves h untouched and
// is the fallback note for the unsharded build.
func (e *Engine) buildSharded(ctx context.Context, h *Handle, p *parsed, w classify.WithFDs, by string, shards int) error {
	sp, in := *p, e.in // sp is the FD-free spec the shards serve
	sp.fds = nil
	var extend func(order.Answer) (order.Answer, bool)
	if h.Plan.Verdict.Tractable && len(p.fds) > 0 {
		if w.Ext == nil {
			return errors.New("no FD extension available")
		}
		if err := p.fds.Check(p.q, e.in); err != nil {
			return err
		}
		iplus, err := w.Ext.ExtendInstance(p.q, e.in)
		if err != nil {
			return err
		}
		if !p.sum { // SUM orders have no inverse to extend for
			if extend, err = w.Ext.AnswerExtender(p.q, e.in); err != nil {
				return err
			}
		}
		sp.q, sp.l, in = w.Ext.Query, w.LPlus, iplus
	}
	pt, err := shard.Choose(sp.q, by, shards)
	if err != nil {
		return err
	}
	o, mode, err := buildShards(ctx, &sp, in, pt, pt.All())
	if err != nil {
		return err
	}
	sh, err := o.Handle()
	if err != nil {
		return err
	}
	h.r, h.partTotals, h.partNanos = viewFD(p.q, sh, extend), sh.PartTotals(), sh.BuildNanos
	h.Plan.Mode, h.Plan.Tractable = mode, mode != ModeMaterialized
	h.Plan.Shards, h.Plan.ShardBy = pt.P, pt.VarName
	return nil
}

// buildShards is the mode ladder over the owned shards of pt, shared by
// in-process sharding (owned = pt.All()) and cluster nodes (BuildOwned):
// classify the spec, build the tractable structure — layered lex, or
// SUM — and fall back to materialize-and-sort when the spec is
// intractable or the build reports an intractability certificate.
// Layered builds stop at the next preprocessing wave boundary once ctx
// is done. p must be FD-free: FD specs are extended globally by the
// caller, and classifying the extension plainly is exactly the FD
// classification (Theorems 8.9 and 8.21).
func buildShards(ctx context.Context, p *parsed, in *database.Instance, pt shard.Partitioning, owned []int) (*shard.Owned, Mode, error) {
	if v, _ := p.classify(); v.Tractable {
		mode, build := ModeLayeredLex, func(si *database.Instance) (access.Ranked, error) {
			return access.BuildLexCtx(ctx, p.q, si, p.l)
		}
		if p.sum {
			mode, build = ModeSum, func(si *database.Instance) (access.Ranked, error) {
				return access.BuildSum(p.q, si, p.w)
			}
		}
		o, err := shard.Build(p.q, in, pt, owned, build)
		var ie *access.IntractableError
		if err == nil || !errors.As(err, &ie) {
			return o, mode, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, ModeMaterialized, err
	}
	o, err := shard.Build(p.q, in, pt, owned, func(si *database.Instance) (access.Ranked, error) {
		if p.sum {
			return access.BuildMaterializedSum(p.q, si, p.w), nil
		}
		return access.BuildMaterializedLex(p.q, si, p.l), nil
	})
	return o, ModeMaterialized, err
}

// fdView serves a structure built over an FD-extension Q⁺ as one for
// the original query q: answers are projected back onto q, and caller
// tuples are extended to Q⁺ before ranking (extend is nil for SUM
// orders, which have no inverse). Q⁺ shares q's variable ids and
// appends its promoted variables to q's head, so every Q⁺ head tuple
// starts with the q head tuple.
type fdView struct {
	access.Ranked
	q      *cq.Query
	wide   int // Q⁺'s head width
	extend func(order.Answer) (order.Answer, bool)
}

// viewFD wraps sh in an fdView when it was built over an FD-extension
// of q, and returns it unchanged otherwise.
func viewFD(q *cq.Query, sh *shard.Handle, extend func(order.Answer) (order.Answer, bool)) access.Ranked {
	if sh.Query == q {
		return sh
	}
	return fdView{Ranked: sh, q: q, wide: len(sh.Query.Head), extend: extend}
}

func (v fdView) AnswerAt(ctx context.Context, dst order.Answer, k int64) (order.Answer, error) {
	a, err := v.Ranked.AnswerAt(ctx, dst, k)
	if err != nil {
		return nil, err
	}
	return fd.ProjectAnswer(v.q, a), nil
}

// AppendWindow keeps the leading q columns of every Q⁺ head tuple,
// compacting the appended rows in place.
func (v fdView) AppendWindow(ctx context.Context, dst []values.Value, k0, k1 int64) ([]values.Value, error) {
	narrow := len(v.q.Head)
	if v.wide == narrow {
		return v.Ranked.AppendWindow(ctx, dst, k0, k1)
	}
	start := len(dst)
	dst, err := v.Ranked.AppendWindow(ctx, dst, k0, k1)
	n := (len(dst) - start) / v.wide
	for i := 0; i < n; i++ {
		row := dst[start+i*v.wide:]
		copy(dst[start+i*narrow:start+(i+1)*narrow], row[:narrow])
	}
	return dst[:start+n*narrow], err
}

// RankOf ranks the tuple's Q⁺ extension; a tuple with no extension
// disagrees with the FDs and is no answer.
func (v fdView) RankOf(ctx context.Context, a order.Answer) (int64, bool, error) {
	if v.extend == nil {
		return v.Ranked.RankOf(ctx, a)
	}
	ext, ok := v.extend(a)
	if !ok {
		r, _, err := v.Ranked.RankOf(ctx, a)
		return r, false, err
	}
	return v.Ranked.RankOf(ctx, ext)
}

// Access is Prepare plus a batch of probes in one call: it returns the
// handle (for Total and further probes) and one head tuple or error per
// requested index. The final error reports a planning failure (bad
// query, bad order); per-index failures such as out-of-bound indices
// land in errs without failing the batch.
func (e *Engine) Access(s Spec, ks []int64) (*Handle, [][]values.Value, []error, error) {
	h, err := e.Prepare(s)
	if err != nil {
		return nil, nil, nil, err
	}
	tuples := make([][]values.Value, len(ks))
	errs := make([]error, len(ks))
	// One flat backing array serves the whole batch; each answer is a
	// capped sub-slice of it.
	flat := make([]values.Value, 0, len(ks)*h.Width())
	for i, k := range ks {
		start := len(flat)
		flat, err = h.AppendTuple(flat, k)
		if err != nil {
			errs[i] = err
			flat = flat[:start]
			continue
		}
		tuples[i] = flat[start:len(flat):len(flat)]
	}
	return h, tuples, errs, nil
}

// AccessRange is Prepare plus a contiguous probe batch: it returns the
// handle and the head tuples of answers k0 ≤ k < k1 appended to dst
// (h.Width values per answer), amortizing planning, cache lookup, and
// probe-buffer setup over the whole range.
func (e *Engine) AccessRange(s Spec, dst []values.Value, k0, k1 int64) (*Handle, []values.Value, error) {
	h, err := e.Prepare(s)
	if err != nil {
		return nil, dst, err
	}
	dst, err = h.AccessRange(dst, k0, k1)
	return h, dst, err
}

// Select answers the one-shot selection problem — O(n) for lex orders,
// O(n log n) for SUM — without building or caching any structure.
func (e *Engine) Select(s Spec, k int64) ([]values.Value, error) {
	if e.remote != nil {
		return e.selectRemote(s, k)
	}
	p, err := s.parse()
	if err != nil {
		return nil, err
	}
	return e.selectParsed(p, k)
}

// selectParsed is Select after parsing; registered queries call it with
// their cached parse, skipping per-request spec processing.
func (e *Engine) selectParsed(p *parsed, k int64) ([]values.Value, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var err error
	var a order.Answer
	switch {
	case p.sum && len(p.fds) == 0:
		a, err = selection.SelectSum(p.q, e.in, p.w, k)
	case p.sum:
		a, err = selection.SelectSumFD(p.q, e.in, p.w, p.fds, k)
	case len(p.fds) == 0:
		a, err = selection.SelectLex(p.q, e.in, p.l, k)
	default:
		a, err = selection.SelectLexFD(p.q, e.in, p.l, p.fds, k)
	}
	if err != nil {
		return nil, err
	}
	out := make([]values.Value, len(p.q.Head))
	for i, v := range p.q.Head {
		out[i] = a[v]
	}
	return out, nil
}

// Count returns |Q(I)| in linear time for free-connex queries.
func (e *Engine) Count(query string) (int64, error) {
	n, _, err := e.CountSharded(query, 0, "")
	return n, err
}

// CountInfo reports how a CountSharded request was executed: the shard
// count and partition variable actually used (zero/empty when the
// count ran unsharded), and the fallback reason if sharding was
// requested but impossible.
type CountInfo struct {
	Shards    int
	ShardBy   string
	ShardNote string
}

// CountSharded is Count with scatter-gather: for shards ≥ 2 the
// instance is partitioned, every shard is counted in parallel, and the
// counts sum (shard answer sets partition Q(I)). Queries that cannot
// be partitioned fall back to the single-instance count, recorded in
// the returned CountInfo; an explicit partition variable that is not a
// free variable of the query is an error.
func (e *Engine) CountSharded(query string, shards int, by string) (int64, CountInfo, error) {
	if e.remote != nil {
		// A coordinator counts by scatter-gather over its cluster; the
		// cluster's own shard count applies, not the request's.
		return e.remote.CountRemote(context.Background(), query, by)
	}
	var info CountInfo
	q, err := cq.Parse(query)
	if err != nil {
		return 0, info, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if p := normShards(shards); p > 1 {
		pt, err := shard.Choose(q, by, p)
		var ue *shard.UnshardableError
		switch {
		case err == nil:
			if n, err := shard.Count(q, e.in, pt, pt.All()); err == nil {
				info.Shards, info.ShardBy = pt.P, pt.VarName
				return n, info, nil
			}
			// Per-shard counting failures are query-level (not
			// free-connex); the single-instance path reproduces the
			// error exactly.
			info.ShardNote = "per-shard count failed; recounted unsharded"
		case errors.As(err, &ue):
			info.ShardNote = err.Error()
		default:
			return 0, info, err
		}
	}
	n, err := selection.CountAnswers(q, e.in)
	return n, info, err
}

// Problem names for Classify.
const (
	ProblemDirectAccessLex = "direct-access-lex"
	ProblemSelectionLex    = "selection-lex"
	ProblemDirectAccessSum = "direct-access-sum"
	ProblemSelectionSum    = "selection-sum"
)

// Classify runs the paper's dichotomy for the named problem on a Spec.
func (e *Engine) Classify(problem string, s Spec) (classify.Verdict, error) {
	p, err := s.parse()
	if err != nil {
		return classify.Verdict{}, err
	}
	return classifyParsed(problem, p)
}

// classifyParsed is Classify after parsing (the dichotomies depend only
// on the query, order, and FDs — never on data).
func classifyParsed(problem string, p *parsed) (classify.Verdict, error) {
	hasFDs := len(p.fds) > 0
	switch problem {
	case ProblemDirectAccessLex:
		if hasFDs {
			v, _ := classify.DirectAccessLexFD(p.q, p.l, p.fds)
			return v, nil
		}
		return classify.DirectAccessLex(p.q, p.l), nil
	case ProblemSelectionLex:
		if hasFDs {
			v, _ := classify.SelectionLexFD(p.q, p.l, p.fds)
			return v, nil
		}
		return classify.SelectionLex(p.q, p.l), nil
	case ProblemDirectAccessSum:
		if hasFDs {
			v, _ := classify.DirectAccessSumFD(p.q, p.fds)
			return v, nil
		}
		return classify.DirectAccessSum(p.q), nil
	case ProblemSelectionSum:
		if hasFDs {
			v, _ := classify.SelectionSumFD(p.q, p.fds)
			return v, nil
		}
		return classify.SelectionSum(p.q), nil
	default:
		return classify.Verdict{}, fmt.Errorf("engine: unknown problem %q", problem)
	}
}
