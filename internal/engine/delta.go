package engine

import (
	"context"
	"log/slog"
	"time"

	"rankedaccess/internal/access"
	"rankedaccess/internal/delta"
	"rankedaccess/internal/lru"
	"rankedaccess/internal/order"
	"rankedaccess/internal/values"
)

// This file is the engine's catch-up path: advancing a structure built
// at an old instance version to the current one without (usually)
// rebuilding it. The caller holds mu.RLock, so the instance and version
// are stable throughout.

// advance tries to bring a stale handle to the given version, returning
// nil when only a full rebuild can (truncated log tail, opaque reset of
// a referenced relation, an overlay-ineligible structure, or a delta
// past the hard limit).
func (e *Engine) advance(s Spec, key specKey, stale *Handle, version uint64) *Handle {
	batches, ok := e.wlog.Since(stale.version)
	if !ok || stale.rels == nil {
		e.deltaRebuilds.Add(1)
		return nil
	}
	touched := false
	for i := range batches {
		if batches[i].Touches(stale.rels) {
			touched = true
			break
		}
	}
	if !touched {
		// The writes cannot have changed this query's answers: republish
		// the same structure (overlay and all) as the new epoch. This is
		// what keeps mutations of relation A from invalidating prepared
		// queries over relation B.
		nh := *stale
		nh.version = version
		e.deltaSkips.Add(1)
		return &nh
	}
	base := stale.base
	if base == nil {
		if !overlayEligible(stale) {
			e.deltaRebuilds.Add(1)
			return nil
		}
		base = stale.r
	}
	sp, ok := delta.CollectSpan(batches, stale.rels)
	if !ok {
		e.deltaRebuilds.Add(1)
		return nil
	}
	member := func(a order.Answer) bool {
		_, m, _ := stale.r.RankOf(context.Background(), a)
		return m
	}
	adds, dels := delta.Diff(stale.Query, e.in, sp, member)
	newAdds, newDels := mergeEdits(stale, adds, dels)
	if len(newAdds)+len(newDels) > e.deltaHard {
		e.deltaRebuilds.Add(1)
		return nil
	}
	ov, err := access.NewOverlay(stale.Query, base, newAdds, newDels)
	if err != nil {
		// Construction errors mean the delta disagrees with the base
		// (should not happen); a rebuild restores a known-good state.
		e.deltaRebuilds.Add(1)
		return nil
	}
	nh := *stale
	nh.version = version
	nh.r, nh.base = ov, base
	nh.ovAdds, nh.ovDels = newAdds, newDels
	e.deltaEpochs.Add(1)
	if ov.Edits() > e.deltaSoft {
		e.spawnRebuild(s, key)
	}
	return &nh
}

// overlayEligible reports whether a handle's structure can take a
// delta overlay: sharded and FD-extended handles carry per-shard state
// or extended answer spaces the answer-level delta cannot edit, Boolean
// queries have no answer tuples, and SUM-ordered handles qualify only
// when every summed variable is a head variable (delta answers zero the
// existential slots, which would corrupt weights otherwise).
func overlayEligible(h *Handle) bool {
	return h.Plan.Shards == 0 && len(h.spec.FDs) == 0 && len(h.Query.Head) > 0 && sumByInHead(h)
}

// sumByInHead reports whether every summed variable of the handle's
// spec is a head variable of its query.
func sumByInHead(h *Handle) bool {
	for _, name := range h.spec.SumBy {
		id, ok := h.Query.VarByName(name)
		if !ok {
			return false
		}
		inHead := false
		for _, v := range h.Query.Head {
			if v == id {
				inHead = true
				break
			}
		}
		if !inHead {
			return false
		}
	}
	return true
}

// mergeEdits folds a fresh answer-level diff into the handle's existing
// edit sets, flattening cancellations: an answer that reappears erases
// its pending delete, one that disappears erases its pending add. The
// returned sets are always relative to the handle's BASE structure, so
// the overlay never chains.
func mergeEdits(h *Handle, adds, dels []order.Answer) (newAdds, newDels []order.Answer) {
	addm := make(map[string]order.Answer, len(h.ovAdds)+len(adds))
	delm := make(map[string]order.Answer, len(h.ovDels)+len(dels))
	for _, a := range h.ovAdds {
		addm[headKey(h, a)] = a
	}
	for _, d := range h.ovDels {
		delm[headKey(h, d)] = d
	}
	for _, a := range adds {
		k := headKey(h, a)
		if _, ok := delm[k]; ok {
			delete(delm, k) // deleted base answer came back
		} else {
			addm[k] = a
		}
	}
	for _, d := range dels {
		k := headKey(h, d)
		if _, ok := addm[k]; ok {
			delete(addm, k) // previously added answer is gone again
		} else {
			delm[k] = d
		}
	}
	newAdds = make([]order.Answer, 0, len(addm))
	for _, a := range addm {
		newAdds = append(newAdds, a)
	}
	newDels = make([]order.Answer, 0, len(delm))
	for _, d := range delm {
		newDels = append(newDels, d)
	}
	return newAdds, newDels
}

// headKey encodes an answer's head projection as a map key.
func headKey(h *Handle, a order.Answer) string {
	buf := make([]byte, 0, len(h.Query.Head)*8)
	for _, v := range h.Query.Head {
		u := uint64(values.Value(a[v]))
		buf = append(buf,
			byte(u>>56), byte(u>>48), byte(u>>40), byte(u>>32),
			byte(u>>24), byte(u>>16), byte(u>>8), byte(u))
	}
	return string(buf)
}

// spawnRebuild schedules a background re-preprocess for the spec, one
// at a time per spec. The goroutine builds against whatever version it
// observes (≥ the caller's) and publishes the fresh structure; readers
// keep probing the published overlay epoch until the swap, which
// Stats.BGRebuilds counts only if it sticks.
func (e *Engine) spawnRebuild(s Spec, key specKey) {
	fk := flightKey{spec: key, bg: true}
	e.cmu.Lock()
	if _, ok := e.flights[fk]; ok {
		e.cmu.Unlock()
		return
	}
	fl := lru.NewFlight[*Handle]()
	e.flights[fk] = fl
	e.cmu.Unlock()
	e.bg.Add(1)
	go func() {
		defer e.bg.Done()
		start := time.Now()
		e.mu.RLock()
		v := e.version
		// Build under the engine's lifetime context: Close abandons the
		// rebuild at the next wave boundary instead of waiting it out.
		h, err := e.build(e.life, s)
		e.mu.RUnlock()
		if err == nil {
			h.version = v
		}
		swapped := e.land(fk, fl, h, err)
		if swapped {
			e.bgRebuilds.Add(1)
		}
		if e.log != nil {
			level, attrs := slog.LevelInfo, []slog.Attr{
				slog.String("query", s.Query),
				slog.Uint64("version", v),
				slog.Bool("swapped", swapped),
				slog.Duration("duration", time.Since(start)),
			}
			if err != nil {
				level = slog.LevelWarn
				attrs = append(attrs, slog.String("error", err.Error()))
			}
			e.log.LogAttrs(context.Background(), level, "engine: background rebuild", attrs...)
		}
	}()
}
