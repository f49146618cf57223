package engine

import (
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"rankedaccess/internal/access"
	"rankedaccess/internal/classify"
	"rankedaccess/internal/cq"
	"rankedaccess/internal/database"
	"rankedaccess/internal/delta"
	"rankedaccess/internal/order"
	"rankedaccess/internal/snapshot"
	"rankedaccess/internal/values"
)

// WALFileName is the durable write-ahead log's file name within a
// snapshot directory (alongside the snapshot files themselves).
const WALFileName = "wal.log"

// This file is the engine's durability layer: Checkpoint serializes the
// instance, the built access structures, and the prepared-query
// registry into an internal/snapshot file; Open and Restore rebuild an
// engine from one, reconstructing every structure zero-copy over the
// mapped file instead of re-running the O(n log n) preprocessing.
//
// What is persisted: the instance (all relations plus the value
// dictionary), every cached or registered unsharded structure built
// without FDs (their flat columns map back verbatim), and the registry
// names and specs. Sharded and FD-extended structures carry closures
// and per-shard state that do not serialize; they are skipped and
// simply rebuild on first use after a warm start, exactly as on a cold
// cache miss. The registry itself always survives: registrations are
// rehydrated lazily, so the first by-name probe after a warm start hits
// the preloaded structure cache instead of re-preparing.

// CheckpointInfo reports what a Checkpoint wrote.
type CheckpointInfo struct {
	// Name is the snapshot file name within the checkpoint directory.
	Name string
	// Bytes is the file size.
	Bytes int64
	// Version is the instance version the snapshot captured.
	Version uint64
	// Structures counts persisted access structures; Skipped counts
	// cached structures that cannot be persisted (sharded or
	// FD-extended) and will rebuild on demand after a warm start.
	Structures, Skipped int
	// Registrations counts persisted prepared-query registrations.
	Registrations int
}

// RestoreInfo reports what an Open or Restore loaded.
type RestoreInfo struct {
	// Name is the snapshot file name loaded.
	Name string
	// Version is the instance version after the load (the persisted
	// version for a fresh Open; strictly newer than both the persisted
	// and the pre-restore version for a live Restore).
	Version uint64
	// Tuples is the restored instance size.
	Tuples int
	// Structures counts access structures rehydrated into the cache;
	// Registrations counts rehydrated prepared queries.
	Structures, Registrations int
}

// Checkpoint atomically persists the engine's current state into dir
// (write to a temporary file, fsync, rename). It holds the instance
// read lock for the duration, so it runs concurrently with queries but
// delays mutations.
func (e *Engine) Checkpoint(dir string) (CheckpointInfo, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.checkpointLocked(dir)
}

// checkpointLocked is Checkpoint's body; the caller holds e.mu (shared
// suffices, the restore path holds it exclusively).
func (e *Engine) checkpointLocked(dir string) (CheckpointInfo, error) {
	info := CheckpointInfo{Version: e.version}
	b := snapshot.NewBuilder(e.version, time.Now().UnixNano())
	for _, name := range e.in.Names() {
		r := e.in.Relation(name)
		b.AddRelation(name, r.Arity(), r.Data())
	}
	if d := e.in.Dict; d != nil {
		b.SetDict(d.Names())
	}

	// Candidate structures: everything cached (all current-version by
	// construction) plus the registrations' current handles, deduped by
	// spec identity and persisted in deterministic order.
	var handles []*Handle
	e.cmu.Lock()
	for _, h := range e.cache.All() {
		handles = append(handles, h)
	}
	e.cmu.Unlock()
	e.rmu.Lock()
	regs := make([]*PreparedQuery, 0, len(e.registry))
	for _, pq := range e.registry {
		regs = append(regs, pq)
	}
	e.rmu.Unlock()
	sort.Slice(regs, func(i, j int) bool { return regs[i].id.Name < regs[j].id.Name })
	for _, pq := range regs {
		if cur := pq.cur.Load(); cur != nil && cur.version == e.version {
			handles = append(handles, cur.h)
		}
	}
	byKey := make(map[specKey]*Handle, len(handles))
	for _, h := range handles {
		// Only structures answering for the checkpointed version persist;
		// a stale handle or an overlay epoch (whose edits have no flat
		// encoding) simply rebuilds on demand after a warm start.
		if h.version != e.version || h.base != nil {
			info.Skipped++
			continue
		}
		if key := h.spec.key(); byKey[key] == nil {
			byKey[key] = h
		}
	}
	for _, key := range slices.SortedFunc(maps.Keys(byKey), specKey.compare) {
		sm, ok := structureMeta(b, byKey[key])
		if !ok {
			info.Skipped++
			continue
		}
		b.AddStructure(sm)
		info.Structures++
	}
	for _, pq := range regs {
		b.AddRegistration(pq.id.Name, specMeta(pq.spec))
		info.Registrations++
	}

	name, size, err := snapshot.WriteFileFS(e.fs, dir, b)
	if err != nil {
		return info, fmt.Errorf("engine: checkpoint: %w", err)
	}
	// Every logged batch with Seq ≤ e.version is now inside the durable
	// snapshot, and the read lock held here excludes concurrent appends,
	// so the WAL can be emptied. Replay is version-guarded anyway
	// (batches with Seq ≤ the snapshot version are skipped), so a crash
	// between the rename above and this truncation loses nothing.
	if e.wal != nil {
		if err := e.wal.TruncateAll(); err != nil {
			return info, fmt.Errorf("engine: checkpoint: truncating WAL: %w", err)
		}
	}
	info.Name, info.Bytes = name, size
	e.checkpoints.Add(1)
	return info, nil
}

// Open warm-starts an engine from the newest snapshot in dir: the
// instance is restored, every persisted structure is reconstructed
// zero-copy over the mapped file into the accessor cache, the
// prepared-query registry is rehydrated (handles resolve lazily, on
// first probe, against that cache), and the durable WAL in dir is
// replayed — batches newer than the snapshot are re-applied to the
// instance and re-enter the in-memory log, so acknowledged writes
// survive a crash between checkpoints. The opened engine keeps the WAL
// attached: every later write appends to it. warm is false when dir
// holds no snapshot (the WAL may still have replayed writes into the
// otherwise-fresh engine).
func Open(dir string, opts Options) (*Engine, bool, error) {
	name, ok, err := snapshot.Latest(dir)
	if err != nil {
		return nil, false, fmt.Errorf("engine: open %s: %w", dir, err)
	}
	e := New(nil, opts)
	if ok {
		if _, err := e.loadSnapshot(filepath.Join(dir, name), true); err != nil {
			return nil, false, err
		}
	}
	w, batches, err := delta.OpenWALFS(e.fs, filepath.Join(dir, WALFileName))
	if err != nil {
		e.Close()
		return nil, false, fmt.Errorf("engine: open %s: %w", dir, err)
	}
	e.mu.Lock()
	for i, b := range batches {
		if b.Seq <= e.version {
			continue // already inside the snapshot
		}
		if verr := validateArity(e.in, b.Muts); verr != nil {
			// A frame that passes its CRC but fails validation against
			// the state it replays onto cannot come from the engine's own
			// write path (ApplyBatch validates before appending); it is
			// corruption the framing layer cannot see. Salvage like a
			// torn tail — keep the good prefix, truncate the rest — so
			// one bad frame cannot turn every restart into a crash.
			if terr := w.DiscardFrom(i, e.version); terr != nil {
				e.mu.Unlock()
				w.Close()
				e.Close()
				return nil, false, fmt.Errorf("engine: open %s: WAL frame %d invalid (%v) and untruncatable: %w", dir, i, verr, terr)
			}
			break
		}
		applyMuts(e.in, b.Muts)
		e.wlog.Append(b)
		e.version = b.Seq
	}
	e.vnow.Store(e.version)
	e.wal = w
	e.snapDir = dir
	e.mu.Unlock()
	return e, ok, nil
}

// Restore replaces the engine's live state with a snapshot file's:
// instance, structure cache, and registry. The instance version moves
// strictly forward (never back to the persisted number), so handles and
// cursors acquired before the restore keep answering their own
// consistent pre-restore snapshot and prepared queries transparently
// re-resolve — the same semantics as any other mutation.
//
// On a WAL-attached engine (one from Open) the restore is made durable
// immediately: the restored state is checkpointed into the engine's
// snapshot directory and the WAL — whose frames describe the
// pre-restore lineage — is emptied with its sequence floor moved to the
// restored version, so a crash right after Restore reopens into the
// restored state, not into pre-restore frames replayed onto the wrong
// base.
func (e *Engine) Restore(path string) (RestoreInfo, error) {
	return e.loadSnapshot(path, false)
}

// Close waits for background rebuilds, closes the durable WAL, and
// releases the snapshot file mappings backing warm-started structures.
// Call it only when the engine and every handle or cursor obtained from
// it are no longer in use; mapped structures must not be probed
// afterwards.
func (e *Engine) Close() error {
	e.stop() // abandon in-flight background rebuilds at their next wave
	e.bg.Wait()
	var first error
	e.mu.Lock()
	if e.wal != nil {
		if err := e.wal.Close(); err != nil {
			first = err
		}
		e.wal = nil
	}
	e.mu.Unlock()
	e.smu.Lock()
	defer e.smu.Unlock()
	for _, m := range e.mappings {
		if err := m.Close(); err != nil && first == nil {
			first = err
		}
	}
	e.mappings = nil
	return first
}

// loadSnapshot maps a snapshot file and installs its contents. fresh
// distinguishes the boot-time warm start (adopt the persisted version)
// from a live restore (bump past both versions and count it).
func (e *Engine) loadSnapshot(path string, fresh bool) (RestoreInfo, error) {
	var info RestoreInfo
	m, err := snapshot.Open(path)
	if err != nil {
		return info, fmt.Errorf("engine: %w", err)
	}
	f := m.File()

	// Rebuild the instance on the heap: relations are mutable (sorted
	// and appended in place by later loads), so they must not alias the
	// read-only mapping. The structures below stay zero-copy — they are
	// immutable by construction.
	in := database.NewInstance()
	for _, rm := range f.Meta.Relations {
		col, err := f.ColI64(rm.Col)
		if err != nil {
			m.Close()
			return info, fmt.Errorf("engine: %w", err)
		}
		r, err := database.FromFlat(rm.Arity, append([]values.Value(nil), col...))
		if err != nil {
			m.Close()
			return info, fmt.Errorf("engine: %w", err)
		}
		in.SetRelation(rm.Name, r)
	}
	if f.Meta.Dict != nil {
		in.Dict = values.DictFromNames(f.DictNames())
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	version := f.Meta.EngineVersion
	if !fresh {
		if v := e.version; v >= version {
			version = v + 1
		} else {
			version++
		}
	}

	// Rehydrate structures before touching engine state, so a corrupt
	// snapshot leaves a live engine unchanged.
	type entry struct {
		key specKey
		h   *Handle
	}
	entries := make([]entry, 0, len(f.Meta.Structures))
	for i := range f.Meta.Structures {
		h, err := e.rehydrate(f, &f.Meta.Structures[i])
		if err != nil {
			m.Close()
			return info, fmt.Errorf("engine: snapshot structure %d: %w", i, err)
		}
		h.version = version
		entries = append(entries, entry{key: h.spec.key(), h: h})
	}
	type reg struct {
		name string
		pq   *PreparedQuery
	}
	regs := make([]reg, 0, len(f.Meta.Registrations))
	for _, rm := range f.Meta.Registrations {
		if !validName(rm.Name) {
			m.Close()
			return info, fmt.Errorf("engine: snapshot registration has invalid name %q", rm.Name)
		}
		s := specFromMeta(rm.Spec)
		p, err := s.parse()
		if err != nil {
			m.Close()
			return info, fmt.Errorf("engine: snapshot registration %q: %w", rm.Name, err)
		}
		regs = append(regs, reg{name: rm.Name, pq: &PreparedQuery{e: e, spec: s, p: p}})
	}

	e.in = in
	e.version = version
	e.vnow.Store(version)
	// The log tail cannot express the wholesale replacement that just
	// happened: declare the new version its floor, so every structure
	// from before the load reports "cannot catch up" and rebuilds.
	e.wlog.Reset(version)
	e.cmu.Lock()
	e.cache.Clear()
	// Publish in reverse so the first persisted structure ends up most
	// recently used (checkpoint order is deterministic, not LRU).
	for i := len(entries) - 1; i >= 0; i-- {
		e.publish(entries[i].key, entries[i].h)
	}
	e.cmu.Unlock()
	e.rmu.Lock()
	for _, pq := range e.registry {
		pq.evicted.Store(true)
	}
	clear(e.registry)
	for _, r := range regs {
		e.regGen++
		r.pq.id = PreparedID{Name: r.name, Gen: e.regGen}
		e.registry[r.name] = r.pq
	}
	e.rmu.Unlock()
	e.smu.Lock()
	e.mappings = append(e.mappings, m)
	e.smu.Unlock()
	e.warmStructures.Store(uint64(len(entries)))
	if !fresh {
		if e.wal != nil {
			// The durable WAL holds pre-restore frames: replaying them
			// onto whatever snapshot the next Open loads would rebuild
			// the wrong lineage, and their seqs no longer mean anything
			// against the restored state. Persist the restored state as a
			// fresh checkpoint first (so the new lineage survives a
			// crash), then empty the WAL and align its sequence floor
			// with the restored version. The checkpoint happens before
			// the truncation: if it fails, the old frames stay and the
			// pre-restore lineage remains recoverable.
			if _, err := e.checkpointLocked(e.snapDir); err != nil {
				return info, fmt.Errorf("engine: restore: checkpointing restored state: %w", err)
			}
			if err := e.wal.Reset(version); err != nil {
				return info, fmt.Errorf("engine: restore: resetting WAL: %w", err)
			}
		}
		e.restores.Add(1)
	}
	info = RestoreInfo{
		Name: filepath.Base(path), Version: version, Tuples: in.Size(),
		Structures: len(entries), Registrations: len(regs),
	}
	return info, nil
}

// rehydrate reconstructs one persisted structure as a ready Handle. The
// spec is re-parsed and re-classified (query-level work, microseconds);
// only the data-level arrays come from the file, zero-copy.
func (e *Engine) rehydrate(f *snapshot.File, sm *snapshot.StructureMeta) (*Handle, error) {
	s := specFromMeta(sm.Spec)
	if len(s.FDs) > 0 || normShards(s.Shards) > 1 {
		return nil, fmt.Errorf("snapshot holds a structure for an unsupported spec (FDs or shards)")
	}
	p, err := s.parse()
	if err != nil {
		return nil, err
	}
	h := &Handle{Query: p.q, spec: s, rels: queryRels(p.q)}
	if p.sum {
		h.Plan.Verdict = classify.DirectAccessSum(p.q)
	} else {
		h.Plan.Verdict = classify.DirectAccessLex(p.q, p.l)
	}
	h.Plan.Tractable = sm.Tractable
	switch sm.Kind {
	case snapshot.KindLayeredLex:
		if p.sum {
			return nil, fmt.Errorf("layered-lex structure for a SUM spec")
		}
		lp, err := lexPartsFromMeta(f, sm)
		if err != nil {
			return nil, err
		}
		la, err := access.LexFromParts(p.q, lp)
		if err != nil {
			return nil, err
		}
		if la.Total() != sm.Total {
			return nil, fmt.Errorf("structure total %d, meta claims %d", la.Total(), sm.Total)
		}
		h.Plan.Mode, h.r = ModeLayeredLex, la
	case snapshot.KindSum:
		if !p.sum {
			return nil, fmt.Errorf("SUM structure for a lex spec")
		}
		sp, err := rowPartsFromMeta(f, sm, true)
		if err != nil {
			return nil, err
		}
		sa, err := access.SumFromParts(p.q, p.w, &access.SumParts{
			NumVars: sp.NumVars, Flat: sp.Flat, Weights: sp.Weights,
		})
		if err != nil {
			return nil, err
		}
		h.Plan.Mode, h.r = ModeSum, sa
	case snapshot.KindMaterialized:
		if sm.MatIsLex == p.sum {
			return nil, fmt.Errorf("materialized order kind disagrees with the spec")
		}
		mp, err := rowPartsFromMeta(f, sm, p.sum)
		if err != nil {
			return nil, err
		}
		mp.Lex, mp.Sum, mp.BySum = p.l, p.w, p.sum
		ma, err := access.MatFromParts(p.q, mp)
		if err != nil {
			return nil, err
		}
		h.Plan.Mode, h.r = ModeMaterialized, ma
	default:
		return nil, fmt.Errorf("unknown structure kind %q", sm.Kind)
	}
	if h.Total() != sm.Total {
		return nil, fmt.Errorf("structure total %d, meta claims %d", h.Total(), sm.Total)
	}
	h.Plan.verdict = h.Plan.Verdict.String()
	return h, nil
}

// structureMeta serializes one handle's structure into the builder,
// reporting ok=false for handles that cannot be persisted (sharded
// execution, FD closures, or shapes the flat encoding cannot carry).
func structureMeta(b *snapshot.Builder, h *Handle) (snapshot.StructureMeta, bool) {
	sm := snapshot.StructureMeta{
		Spec:       specMeta(h.spec),
		Tractable:  h.Plan.Tractable,
		Total:      h.Total(),
		NumVars:    h.Query.NumVars(),
		AnswersCol: snapshot.NoCol,
		WeightsCol: snapshot.NoCol,
	}
	if len(h.spec.FDs) > 0 {
		return sm, false
	}
	switch st := h.r.(type) {
	case *access.Lex:
		lp, ok := st.Parts()
		if !ok {
			return sm, false
		}
		sm.Kind = snapshot.KindLayeredLex
		sm.Boolean, sm.BoolTrue = lp.Boolean, lp.BoolTrue
		sm.NumVars = lp.NumVars
		for _, entry := range lp.Completed.Entries {
			sm.Completed = append(sm.Completed, snapshot.OrderEntryMeta{
				Var: int(entry.Var), Desc: entry.Dir == order.Desc,
			})
		}
		for i := range lp.Layers {
			l := &lp.Layers[i]
			lm := snapshot.LayerMeta{
				Var: int(l.Var), Desc: l.Desc, Parent: l.Parent, Buckets: l.Buckets,
				ValsCol: b.I64Col(l.Vals), WeightsCol: b.I64Col(l.Weights), StartsCol: b.I64Col(l.Starts),
				BucketStartCol: b.IntCol(l.BucketStart), BucketEndCol: b.IntCol(l.BucketEnd),
				BucketWeightCol: b.I64Col(l.BucketWeight),
				BucketKeysCol:   b.I64Col(l.BucketKeys), BucketTableCol: b.I32Col(l.BucketTable),
			}
			for _, u := range l.KeyVars {
				lm.KeyVars = append(lm.KeyVars, int(u))
			}
			sm.Layers = append(sm.Layers, lm)
		}
		return sm, true
	case *access.Sum:
		sp, ok := st.Parts()
		if !ok {
			return sm, false
		}
		if sp.NumVars == 0 && len(sp.Weights) > 0 {
			return sm, false // variable-free answers do not flat-encode
		}
		sm.Kind = snapshot.KindSum
		sm.NumVars = sp.NumVars
		sm.Rows = len(sp.Weights)
		sm.AnswersCol = b.I64Col(sp.Flat)
		sm.WeightsCol = b.F64Col(sp.Weights)
		return sm, true
	case *access.Materialized:
		mp := st.Parts()
		if mp.NumVars == 0 && st.Total() > 0 {
			return sm, false // variable-free answers do not flat-encode
		}
		sm.Kind = snapshot.KindMaterialized
		sm.NumVars = mp.NumVars
		sm.MatIsLex = !mp.BySum
		if mp.NumVars > 0 {
			sm.Rows = len(mp.Flat) / mp.NumVars
		}
		sm.AnswersCol = b.I64Col(mp.Flat)
		if mp.Weights != nil {
			sm.WeightsCol = b.F64Col(mp.Weights)
		}
		return sm, true
	default: // sharded structures and overlays
		return sm, false
	}
}

// lexPartsFromMeta resolves a layered-lex structure's columns into
// access parts, all zero-copy views of the mapped file.
func lexPartsFromMeta(f *snapshot.File, sm *snapshot.StructureMeta) (*access.LexParts, error) {
	lp := &access.LexParts{
		Total: sm.Total, NumVars: sm.NumVars,
		Boolean: sm.Boolean, BoolTrue: sm.BoolTrue,
	}
	for _, entry := range sm.Completed {
		dir := order.Asc
		if entry.Desc {
			dir = order.Desc
		}
		lp.Completed.Entries = append(lp.Completed.Entries, order.LexEntry{Var: cq.VarID(entry.Var), Dir: dir})
	}
	for i := range sm.Layers {
		lm := &sm.Layers[i]
		l := access.LexLayerParts{
			Var: cq.VarID(lm.Var), Desc: lm.Desc, Parent: lm.Parent, Buckets: lm.Buckets,
		}
		for _, u := range lm.KeyVars {
			l.KeyVars = append(l.KeyVars, cq.VarID(u))
		}
		var err error
		if l.Vals, err = f.ColI64(lm.ValsCol); err != nil {
			return nil, err
		}
		if l.Weights, err = f.ColI64(lm.WeightsCol); err != nil {
			return nil, err
		}
		if l.Starts, err = f.ColI64(lm.StartsCol); err != nil {
			return nil, err
		}
		if l.BucketStart, err = f.ColInt(lm.BucketStartCol); err != nil {
			return nil, err
		}
		if l.BucketEnd, err = f.ColInt(lm.BucketEndCol); err != nil {
			return nil, err
		}
		if l.BucketWeight, err = f.ColI64(lm.BucketWeightCol); err != nil {
			return nil, err
		}
		if l.BucketKeys, err = f.ColI64(lm.BucketKeysCol); err != nil {
			return nil, err
		}
		if l.BucketTable, err = f.ColI32(lm.BucketTableCol); err != nil {
			return nil, err
		}
		lp.Layers = append(lp.Layers, l)
	}
	return lp, nil
}

// rowPartsFromMeta resolves a SUM or materialized structure's columns
// (answers flat in rank order, optional weights).
func rowPartsFromMeta(f *snapshot.File, sm *snapshot.StructureMeta, wantWeights bool) (*access.MatParts, error) {
	flat, err := f.ColI64(sm.AnswersCol)
	if err != nil {
		return nil, err
	}
	p := &access.MatParts{NumVars: sm.NumVars, Flat: flat}
	if sm.WeightsCol != snapshot.NoCol {
		if p.Weights, err = f.ColF64(sm.WeightsCol); err != nil {
			return nil, err
		}
	} else if wantWeights {
		return nil, fmt.Errorf("weighted structure without a weights column")
	}
	return p, nil
}

func specMeta(s Spec) snapshot.SpecMeta {
	return snapshot.SpecMeta{
		Query: s.Query, Order: s.Order, SumBy: s.SumBy, FDs: s.FDs,
		Shards: s.Shards, ShardBy: s.ShardBy,
	}
}

func specFromMeta(sm snapshot.SpecMeta) Spec {
	return Spec{
		Query: sm.Query, Order: sm.Order, SumBy: sm.SumBy, FDs: sm.FDs,
		Shards: sm.Shards, ShardBy: sm.ShardBy,
	}
}
