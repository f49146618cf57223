package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"rankedaccess/client"
)

// chunkLen is the length of one traced or untraced chunk of a traced
// run's load phase. Alternating short chunks keeps machine drift out of
// the traced-over-untraced comparison.
const chunkLen = 250 * time.Millisecond

// lat is one latency sample and the chunk parity it ran in (0
// untraced, 1 traced). Samples that straddled a chunk boundary are
// dropped.
type lat struct {
	us    float64
	phase int8
}

// answerRec is one answer the SDK returned, kept for the oracle.
type answerRec struct {
	k  int64
	h  uint64
	op opKind
}

// readerOut is one closed-loop reader's record.
type readerOut struct {
	access, rng              []lat
	answers                  []answerRec
	attempted, failed, wrong int64
	firstErr                 string
	phaseReqs                [2]int64
}

// writerOut is the open-loop writer's record.
type writerOut struct {
	ack       []lat // from due time to acknowledgement, load phase only
	late      []lat // how far the send ran behind its due time, load phase only
	acked     [][]client.Write
	attempted int64
	failed    int64
	firstErr  string
	phaseReqs [2]int64
}

// procSample is a point reading of the process-wide counters.
type procSample struct {
	allocs   uint64  // heap objects allocated
	gcCPU    float64 // GC CPU seconds
	totalCPU float64 // available CPU seconds (GOMAXPROCS × wall)
}

var procNames = []string{"/gc/heap/allocs:objects", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readProc() procSample {
	s := make([]metrics.Sample, len(procNames))
	for i, n := range procNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var p procSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		p.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		p.totalCPU = s[2].Value.Float64()
	}
	return p
}

func (p procSample) sub(q procSample) procSample {
	return procSample{allocs: p.allocs - q.allocs, gcCPU: p.gcCPU - q.gcCPU, totalCPU: p.totalCPU - q.totalCPU}
}

func (p procSample) add(q procSample) procSample {
	return procSample{allocs: p.allocs + q.allocs, gcCPU: p.gcCPU + q.gcCPU, totalCPU: p.totalCPU + q.totalCPU}
}

// loader drives one stack: closed-loop readers and an open-loop writer.
type loader struct {
	s     *stack
	w     workloadDef
	seed  int64
	rec   *recorder // nil: untraced run, no chunking
	chunk atomic.Int64
	stop  atomic.Bool

	proc     [2]procSample // process counters accumulated per chunk parity
	untraced time.Duration // load-phase time spent in untraced chunks
}

// phase is the parity of the current chunk: 1 while spans record.
func (l *loader) phase(c int64) int8 { return int8(c & 1) }

// runReaders runs the closed-loop readers for d and returns their
// records. In a traced run the chunks alternate between untraced and
// traced, starting untraced.
func (l *loader) runReaders(d time.Duration) []*readerOut {
	outs := make([]*readerOut, l.w.readers)
	var wg sync.WaitGroup
	l.stop.Store(false)
	for i := range outs {
		outs[i] = &readerOut{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l.reader(outs[i], l.seed*7919+int64(i)+1)
		}(i)
	}
	l.chunks(d)
	l.stop.Store(true)
	wg.Wait()
	return outs
}

// chunks waits out the load phase, flipping span recording at every
// chunk boundary of a traced run and charging process counters to the
// chunk that just ended.
func (l *loader) chunks(d time.Duration) {
	end := time.Now().Add(d)
	if l.rec == nil {
		time.Sleep(d)
		l.untraced = d
		return
	}
	last, lastT := readProc(), time.Now()
	for {
		left := time.Until(end)
		if left <= 0 {
			break
		}
		time.Sleep(min(chunkLen, left))
		now, nowT := readProc(), time.Now()
		c := l.chunk.Load()
		l.proc[l.phase(c)] = l.proc[l.phase(c)].add(now.sub(last))
		if l.phase(c) == 0 {
			l.untraced += nowT.Sub(lastT)
		}
		last, lastT = now, nowT
		l.rec.on.Store(l.phase(c+1) == 1)
		l.chunk.Add(1)
	}
	l.rec.on.Store(false)
	l.chunk.Add(1) // samples still in flight count as straddling
}

func (l *loader) reader(out *readerOut, seed int64) {
	d := newRankDist(l.s.total, l.w.hot, seed)
	verify := !l.w.hot && l.w.writeRate == 0 // answers of a moving instance are checked after the run
	ctx := context.Background()
	for !l.stop.Load() {
		c0 := l.chunk.Load()
		cctx, id, st := l.rec.clientSpan(ctx)
		out.attempted++
		if d.isAccess() {
			k := d.access()
			t0 := time.Now()
			ans, err := l.s.pq.Access(cctx, k)
			el := time.Since(t0)
			l.rec.end(id, 0, st, kClient, opAccess)
			if err == nil && (len(ans) != 1 || ans[0].K != k || ans[0].Err != "" || len(ans[0].Tuple) != 3) {
				err = fmt.Errorf("access %d: malformed answer %v", k, ans)
				out.wrong++
			}
			if err != nil {
				out.fail(err)
				continue
			}
			l.sample(&out.access, &out.phaseReqs, c0, t0, el)
			if verify {
				out.answers = append(out.answers, answerRec{k: k, h: hashRows(ans[0].Tuple), op: opAccess})
			}
		} else {
			k0 := d.window()
			k1 := min(k0+rangeWidth, l.s.total)
			t0 := time.Now()
			rows, err := l.s.pq.Range(cctx, k0, k1)
			el := time.Since(t0)
			l.rec.end(id, 0, st, kClient, opRange)
			if err == nil && !wellFormedRange(rows, int(k1-k0)) {
				err = fmt.Errorf("range [%d, %d): malformed or unsorted window", k0, k1)
				out.wrong++
			}
			if err != nil {
				out.fail(err)
				continue
			}
			l.sample(&out.rng, &out.phaseReqs, c0, t0, el)
			if verify {
				out.answers = append(out.answers, answerRec{k: k0, h: hashRows(rows...), op: opRange})
			}
		}
	}
}

func (l *loader) sample(dst *[]lat, reqs *[2]int64, c0 int64, t0 time.Time, el time.Duration) {
	if c1 := l.chunk.Load(); c1 != c0 {
		return // straddled a chunk boundary
	}
	p := l.phase(c0)
	*dst = append(*dst, lat{us: us(el), phase: p})
	reqs[p]++
}

func (o *readerOut) fail(err error) {
	o.failed++
	if o.firstErr == "" {
		o.firstErr = err.Error()
	}
}

// writer sends one batch per period, each due at a fixed time from
// start regardless of how the earlier ones fared, until stop closes.
// A batch is timed from its due time, so a stall also charges the
// batches queued behind it; late records how far the sender itself
// ran behind schedule. Only batches sent and acknowledged within the
// load phase are timed: in a traced run the writer keeps going through
// the direct probes, whose batches are checked but not timed.
func (l *loader) writer(out *writerOut, gen *writeGen, start time.Time, stop <-chan struct{}) {
	period := time.Second / time.Duration(l.w.writeRate)
	ctx := context.Background()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return
			case <-timer.C:
			}
		}
		select {
		case <-stop:
			return
		default:
		}
		c0 := l.chunk.Load()
		timed := !l.stop.Load()
		if timed {
			out.late = append(out.late, lat{us: us(time.Since(due)), phase: l.phase(c0)})
		}
		batch := gen.next()
		cctx, id, st := l.rec.clientSpan(ctx)
		out.attempted++
		_, err := l.s.cl.Write(cctx, batch...)
		el := time.Since(due)
		l.rec.end(id, 0, st, kClient, opWrite)
		if err != nil {
			out.failed++
			if out.firstErr == "" {
				out.firstErr = err.Error()
			}
			continue
		}
		out.acked = append(out.acked, batch)
		if c1 := l.chunk.Load(); c1 == c0 && timed && !l.stop.Load() {
			p := l.phase(c0)
			out.ack = append(out.ack, lat{us: us(el), phase: p})
			out.phaseReqs[p]++
		}
	}
}

// wellFormedRange checks a range reply without an oracle: the expected
// number of 3-column rows in ascending (x, y, z) order.
func wellFormedRange(rows [][]client.Value, want int) bool {
	if len(rows) != want {
		return false
	}
	for i, r := range rows {
		if len(r) != 3 {
			return false
		}
		if i > 0 && compareRows(rows[i-1], r) > 0 {
			return false
		}
	}
	return true
}

func compareRows(a, b []client.Value) int {
	for i := range a {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// hashRows fingerprints answer rows for the oracle comparison.
func hashRows(rows ...[]client.Value) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, r := range rows {
		for _, v := range r {
			u := uint64(v)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}
