package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// pct is the nearest-rank percentile of xs (0 for an empty sample).
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return pct(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// usOf returns the latencies of samples, in µs.
func usOf(ls []lat) []float64 {
	out := make([]float64, len(ls))
	for i, l := range ls {
		out[i] = l.us
	}
	return out
}

// inPhase returns the samples from chunks of one parity: 0 untraced
// (every sample, in an untraced run), 1 traced.
func inPhase(ls []lat, phase int8) []lat {
	var out []lat
	for _, x := range ls {
		if x.phase == phase {
			out = append(out, x)
		}
	}
	return out
}

// latsOf returns the readers' samples of one kind from chunks of one
// parity.
func latsOf(rs []*readerOut, pick func(*readerOut) []lat, phase int8) []lat {
	var out []lat
	for _, r := range rs {
		out = append(out, inPhase(pick(r), phase)...)
	}
	return out
}

func accessLats(r *readerOut) []lat { return r.access }
func rangeLats(r *readerOut) []lat  { return r.rng }

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(setupTimes []float64, heapMB float64, rs []*readerOut) *metricSet {
	m := newMetricSet()
	m.set("setup_s", "s", median(setupTimes))
	m.set("heap_mb", "MB", heapMB)
	m.set("access_p50_ms", "ms", median(usOf(latsOf(rs, accessLats, 0)))/1e3)
	m.set("range_p50_ms", "ms", median(usOf(latsOf(rs, rangeLats, 0)))/1e3)
	return m
}

// throughput is the untraced chunks' completed reads per second.
func throughput(rs []*readerOut, untracedTime time.Duration) float64 {
	n := len(latsOf(rs, accessLats, 0)) + len(latsOf(rs, rangeLats, 0))
	return ratio(float64(n), untracedTime.Seconds())
}

// layerInputs is everything a traced run measured.
type layerInputs struct {
	readers           []*readerOut
	writer            *writerOut
	spans             []span // load phase, traced chunks
	probes            *probeOut
	before, after     counters
	fsBefore, fsAfter walCount
	buildTimes        []float64
	proc              [2]procSample
	untracedTime      time.Duration // load-phase time spent in untraced chunks
	rpcPer            *rpcPerAccess
	attempted, failed int64
}

type walCount struct{ bytes, syncs int64 }

func walCounts(rec *recorder) walCount {
	if rec == nil {
		return walCount{}
	}
	return walCount{rec.walWriteBytes.Load(), rec.walSyncs.Load()}
}

// spanIndex links the spans of one request: client → round trip →
// serve, by parent ids.
type spanIndex struct {
	byID  map[uint64]span
	serve []span
	fs    []span // WAL writes and syncs, by start
	ofKnd map[spanKind][]span
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{byID: make(map[uint64]span, len(spans)), ofKnd: make(map[spanKind][]span)}
	for _, s := range spans {
		ix.byID[s.id] = s
		ix.ofKnd[s.kind] = append(ix.ofKnd[s.kind], s)
		switch s.kind {
		case kServe:
			ix.serve = append(ix.serve, s)
		case kFSWrite, kFSSync:
			ix.fs = append(ix.fs, s)
		}
	}
	sort.Slice(ix.fs, func(i, j int) bool { return ix.fs[i].start < ix.fs[j].start })
	return ix
}

// client returns the SDK span a serve span answered, if linked.
func (ix *spanIndex) client(sv span) (span, bool) {
	rt, ok := ix.byID[sv.parent]
	if !ok || rt.kind != kRoundTrip {
		return span{}, false
	}
	cl, ok := ix.byID[rt.parent]
	return cl, ok && cl.kind == kClient
}

// serveUS returns serve span durations of one op, in µs.
func (ix *spanIndex) serveUS(op opKind) []float64 {
	var out []float64
	for _, s := range ix.serve {
		if s.op == op {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// transportUS is, per linked request of one op, the client span minus
// the serve span: SDK encode/decode, net/http, and loopback.
func (ix *spanIndex) transportUS(op opKind) []float64 {
	var out []float64
	for _, s := range ix.serve {
		if s.op != op {
			continue
		}
		if cl, ok := ix.client(s); ok {
			out = append(out, float64(cl.dur()-s.dur())/1e3)
		}
	}
	return out
}

// clientUS returns client span durations of one op, in µs.
func (ix *spanIndex) clientUS(op opKind) []float64 {
	var out []float64
	for _, s := range ix.ofKnd[kClient] {
		if s.op == op {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// writePart is one traced write split along its spans, in µs.
// transport is the client span minus the serve span, and is negative
// when the serve span has no linked client span.
type writePart struct {
	transport, apply, walWrite, walSync float64
}

// writeParts splits every traced write's serve span into its WAL
// filesystem children (write and sync) and the rest, which is the
// engine's apply including the wait for the engine lock. Only one
// writer runs, so the filesystem spans inside a write's serve span are
// its own.
func (ix *spanIndex) writeParts() []writePart {
	var out []writePart
	for _, s := range ix.serve {
		if s.op != opWrite {
			continue
		}
		var w, y int64
		i := sort.Search(len(ix.fs), func(i int) bool { return ix.fs[i].start >= s.start })
		for ; i < len(ix.fs) && ix.fs[i].start < s.end; i++ {
			f := ix.fs[i]
			if f.end > s.end {
				continue
			}
			if f.kind == kFSSync {
				y += f.dur()
			} else {
				w += f.dur()
			}
		}
		p := writePart{transport: -1, apply: float64(s.dur()-w-y) / 1e3, walWrite: float64(w) / 1e3, walSync: float64(y) / 1e3}
		if cl, ok := ix.client(s); ok {
			p.transport = float64(cl.dur()-s.dur()) / 1e3
		}
		out = append(out, p)
	}
	return out
}

func durUS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = float64(s.dur()) / 1e3
	}
	return out
}

// buildSeconds is the structure build inside one set-up: the serve span
// of the register call on a single node, the slowest node's Prepare on
// the cluster (nodes build their shards in parallel).
func buildSeconds(spans []span) float64 {
	var reg, prep int64
	for _, s := range spans {
		switch {
		case s.kind == kServe && s.op == opRegister:
			reg = max(reg, s.dur())
		case s.kind == kNodePrep:
			prep = max(prep, s.dur())
		}
	}
	if prep > 0 {
		return float64(prep) / 1e9
	}
	return float64(reg) / 1e9
}

// perLayer computes the per-layer metrics of a traced run. Metrics of
// a layer the workload does not exercise read 0.
func perLayer(in layerInputs) *metricSet {
	m := newMetricSet()
	ix := indexSpans(in.spans)
	p := in.probes
	acked := float64(len(in.writer.acked))
	eb, ea := in.before.eng, in.after.eng
	sb, sa := in.before.srv, in.after.srv

	m.set("error_rate", "ratio", ratio(float64(in.failed), float64(in.attempted)))
	m.set("access_p99_ms", "ms", pct(usOf(latsOf(in.readers, accessLats, 0)), 99)/1e3)
	m.set("range_p99_ms", "ms", pct(usOf(latsOf(in.readers, rangeLats, 0)), 99)/1e3)
	m.set("throughput_rps", "req/s", throughput(in.readers, in.untracedTime))
	wr := usOf(inPhase(in.writer.ack, 0))
	m.set("write_p50_ms", "ms", pct(wr, 50)/1e3)
	m.set("write_p99_ms", "ms", pct(wr, 99)/1e3)
	m.set("loadgen.late_ms_p99", "ms", pct(usOf(inPhase(in.writer.late, 0)), 99)/1e3)

	m.set("client.transport_us_p50", "us", median(ix.transportUS(opAccess)))
	sacc := ix.serveUS(opAccess)
	m.set("serve.access_us_p50", "us", pct(sacc, 50))
	m.set("serve.access_us_p99", "us", pct(sacc, 99))
	m.set("serve.range_us_p50", "us", median(ix.serveUS(opRange)))
	m.set("serve.handler_allocs", "count", p.handlerAllocs)
	hits, misses := float64(sa.CoalesceHits-sb.CoalesceHits), float64(sa.CoalesceMisses-sb.CoalesceMisses)
	m.set("serve.coalesce_hit_ratio", "ratio", ratio(hits, hits+misses))
	m.set("serve.shed_total", "count", float64((sa.Shed429-sb.Shed429)+(sa.Shed503-sb.Shed503)+(sa.WriteSheds-sb.WriteSheds)))

	m.set("engine.build_s", "s", median(in.buildTimes))
	m.set("engine.acquire_us_p50", "us", pct(p.acquire, 50))
	m.set("engine.acquire_us_p99", "us", pct(p.acquire, 99))
	m.set("engine.overlay_edits_mean", "count", mean(p.overlay))
	m.set("engine.delta_epochs_per_write", "count", ratio(float64(ea.DeltaEpochs-eb.DeltaEpochs), acked))
	m.set("engine.bg_rebuilds", "count", float64(ea.BGRebuilds-eb.BGRebuilds))
	m.set("engine.delta_rebuilds", "count", float64(ea.DeltaRebuilds-eb.DeltaRebuilds))
	ch, cm := float64(ea.Hits-eb.Hits), float64(ea.Misses-eb.Misses)
	m.set("engine.cache_hit_ratio", "ratio", ratio(ch, ch+cm))
	var apply []float64
	for _, w := range ix.writeParts() {
		apply = append(apply, w.apply)
	}
	m.set("engine.write_apply_us_p50", "us", pct(apply, 50))
	m.set("engine.write_apply_us_p99", "us", pct(apply, 99))

	m.set("access.tuple_us_p50", "us", median(p.tuple))
	m.set("access.range64_us_p50", "us", median(p.rng64))

	m.set("delta.wal_syncs_per_write", "count", ratio(float64(in.fsAfter.syncs-in.fsBefore.syncs), acked))
	m.set("delta.wal_bytes_per_write", "bytes", ratio(float64(in.fsAfter.bytes-in.fsBefore.bytes), acked))
	syncs := durUS(ix.ofKnd[kFSSync])
	m.set("delta.wal_sync_us_p50", "us", pct(syncs, 50))
	m.set("delta.wal_sync_us_p99", "us", pct(syncs, 99))

	var rp rpcPerAccess
	if in.rpcPer != nil {
		rp = *in.rpcPer
	}
	m.set("cluster.rank_rpcs_per_access", "count", rp.rank)
	m.set("cluster.rank_rpcs_max", "count", float64(rp.maxRank))
	m.set("cluster.access_rpcs_per_access", "count", rp.access)
	m.set("cluster.node_rank_us_p50", "us", median(durUS(ix.ofKnd[kNodeRank])))
	m.set("cluster.coordinator_self_us_p50", "us", median(p.coordSelf))
	m.set("rpc.rank_rtt_us_p50", "us", median(p.rankRTT))
	m.set("rpc.overhead_us_p50", "us", median(p.rpcOverhead))
	m.set("rpc.bytes_per_access", "bytes", rp.bytes)

	u := in.proc[0]
	var reqs int64
	for _, r := range in.readers {
		reqs += r.phaseReqs[0]
	}
	reqs += in.writer.phaseReqs[0]
	m.set("proc.allocs_per_req", "count", ratio(float64(u.allocs), float64(reqs)))
	m.set("proc.gc_cpu_fraction", "ratio", ratio(u.gcCPU, u.totalCPU))

	m.set("trace.overhead_ratio", "ratio", ratio(
		median(usOf(latsOf(in.readers, accessLats, 1))),
		median(usOf(latsOf(in.readers, accessLats, 0)))))
	return m
}

// unattributed labels the remainder of a table built from medians.
const unattributed = "unattributed (medians do not add)"

// budgetRow is one line of the cost-budget table.
type budgetRow struct {
	layer string
	us    float64
	count string
}

// printBudget prints the layer cost budget of a single-k access, a
// 64-window range and (on the write workload) a write: each layer's
// self time, its share of the request's client time, and the counts
// that explain it. Reads use medians, writes means.
func printBudget(w io.Writer, wd workloadDef, spans []span, p *probeOut, rp *rpcPerAccess) {
	ix := indexSpans(spans)
	fmt.Fprintf(w, "layer cost budget, %s (medians; self time = span minus its children;\n", wd.name)
	fmt.Fprintf(w, "  direct probes run alone, so contention from the load lands in the serve row)\n")

	accTotal := median(ix.clientUS(opAccess))
	sAcc := median(ix.serveUS(opAccess))
	var acc []budgetRow
	acc = append(acc, budgetRow{"client (SDK + net/http + loopback)", median(ix.transportUS(opAccess)), fmt.Sprintf("%d requests", len(ix.clientUS(opAccess)))})
	if wd.nodes > 0 {
		dist := median(p.tuple)
		acc = append(acc,
			budgetRow{"serve (handler, registry, encode)", sAcc - dist, fmt.Sprintf("%.0f allocs/req", p.handlerAllocs)},
			budgetRow{"cluster.coordinator (self)", median(p.coordSelf), ""},
			budgetRow{"rpc (wire + codec)", dist - median(p.coordSelf) - median(p.nodeBusy), fmt.Sprintf("%.1f rank + %.1f access RPCs, %.0f B", rp.rank, rp.access, rp.bytes)},
			budgetRow{"cluster.node (backend)", median(p.nodeBusy), ""},
		)
	} else {
		acc = append(acc,
			budgetRow{"serve (handler, coalesce, encode)", sAcc - median(p.acquire) - median(p.tuple), fmt.Sprintf("%.0f allocs/req", p.handlerAllocs)},
			budgetRow{"engine.acquire", median(p.acquire), fmt.Sprintf("%.1f overlay edits", mean(p.overlay))},
			budgetRow{"access (descent)", median(p.tuple), ""},
		)
	}
	printTable(w, "single-k access, median at the client", accTotal, acc, unattributed)

	rngTotal := median(ix.clientUS(opRange))
	sRng := median(ix.serveUS(opRange))
	rows := []budgetRow{{"client (SDK + net/http + loopback)", median(ix.transportUS(opRange)), fmt.Sprintf("%d requests", len(ix.clientUS(opRange)))}}
	if wd.nodes > 0 {
		rows = append(rows,
			budgetRow{"serve (handler, registry, encode)", sRng - median(p.rng64), ""},
			budgetRow{"cluster path (coordinator + rpc + nodes)", median(p.rng64), ""},
		)
	} else {
		rows = append(rows,
			budgetRow{"serve (handler, coalesce, encode)", sRng - median(p.acquire) - median(p.rng64), ""},
			budgetRow{"engine.acquire", median(p.acquire), ""},
			budgetRow{"access (64-window)", median(p.rng64), ""},
		)
	}
	printTable(w, "64-window range, median at the client", rngTotal, rows, unattributed)

	if wd.writeRate > 0 {
		// A write's latency is dominated by a few slow fsyncs, so the
		// medians of its parts say little about its median. The write
		// table instead averages each part over the traced writes
		// linked to their client span; the rows add up to the mean.
		var parts [4][]float64
		for _, wp := range ix.writeParts() {
			if wp.transport < 0 {
				continue
			}
			for i, v := range [4]float64{wp.transport, wp.apply, wp.walWrite, wp.walSync} {
				parts[i] = append(parts[i], v)
			}
		}
		rows := []budgetRow{
			{"client (SDK + net/http + loopback)", mean(parts[0]), fmt.Sprintf("%d writes", len(parts[0]))},
			{"serve + engine apply (incl. lock wait)", mean(parts[1]), ""},
			{"delta.wal write", mean(parts[2]), ""},
			{"delta.wal fsync", mean(parts[3]), ""},
		}
		var total float64
		for _, r := range rows {
			total += r.us
		}
		title := fmt.Sprintf("write (median %.1f us at the client; rows are means, so they add up)", median(ix.clientUS(opWrite)))
		printTable(w, title, total, rows, "")
	}
}

// printTable prints one request's budget. remainder, when set, labels
// the row of total time the layers' rows do not cover.
func printTable(w io.Writer, title string, total float64, rows []budgetRow, remainder string) {
	fmt.Fprintf(w, "  %s: %.1f us\n", title, total)
	fmt.Fprintf(w, "    %-42s %10s %7s  %s\n", "layer", "self_us", "share", "counts")
	var sum float64
	for _, r := range rows {
		sum += r.us
		fmt.Fprintf(w, "    %-42s %10.1f %6.1f%%  %s\n", r.layer, r.us, 100*ratio(r.us, total), r.count)
	}
	if remainder != "" {
		fmt.Fprintf(w, "    %-42s %10.1f %6.1f%%\n", remainder, total-sum, 100*ratio(total-sum, total))
	}
}

// writeSummary prints the run's request accounting to stderr.
func writeSummary(w io.Writer, wd workloadDef, rs []*readerOut, wo *writerOut, rp *rpcPerAccess, chk *checker, untracedTime time.Duration) {
	acc, rng := latsOf(rs, accessLats, 0), latsOf(rs, rangeLats, 0)
	fmt.Fprintf(w, "requests: %d attempted, %d failed (%d wrong), error_rate %.6f; %d accesses, %d ranges timed untraced\n",
		chk.attempted, chk.failed, chk.wrong, ratio(float64(chk.failed), float64(chk.attempted)), len(acc), len(rng))
	fmt.Fprintf(w, "throughput_rps %.1f; access_p99_ms %.4f range_p99_ms %.4f\n",
		throughput(rs, untracedTime), pct(usOf(acc), 99)/1e3, pct(usOf(rng), 99)/1e3)
	if wd.writeRate > 0 {
		wr, late := usOf(inPhase(wo.ack, 0)), usOf(inPhase(wo.late, 0))
		fmt.Fprintf(w, "writes: %d acknowledged of %d at %d/s, %d timed untraced in the load phase; write_p50_ms %.4f write_p99_ms %.4f; generator late p50 %.4f ms p99 %.4f ms\n",
			len(wo.acked), wo.attempted, wd.writeRate, len(wr), pct(wr, 50)/1e3, pct(wr, 99)/1e3, pct(late, 50)/1e3, pct(late, 99)/1e3)
	}
	if rp != nil {
		fmt.Fprintf(w, "distributed bound: %.2f rank RPCs per access over %d sequential accesses, bound %d (checked on the mean); per-access max %d, %d accesses above the bound (reported, not checked)\n",
			rp.rank, rp.n, rp.bound, rp.maxRank, rp.overBound)
	}
	for _, p := range chk.problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	fmt.Fprintf(w, "correct: %v\n", chk.ok())
}
