package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rankedaccess/client"
	"rankedaccess/internal/database"
	"rankedaccess/internal/engine"
)

// runConfig is one invocation's settings.
type runConfig struct {
	w       workloadDef
	seed    int64
	seconds float64
	traced  bool
	log     io.Writer
}

// setupCount is the number of independent set-ups per run; setup_s is
// their median.
const setupCount = 9

// counters is a snapshot of the engine and server counters a run diffs.
type counters struct {
	eng engine.Stats
	srv client.Stats
}

func snapshot(ctx context.Context, s *stack) (counters, error) {
	c := counters{eng: s.e.Stats()}
	var err error
	c.srv, err = s.cl.Stats(ctx)
	return c, err
}

// clusterBound is the paper's distributed bound on rank RPCs per
// access: every node is asked once per binary-search round, and there
// are at most ⌈log₂ |Q(I)|⌉ + P rounds.
func clusterBound(w workloadDef, total int64) int64 {
	return int64(w.nodes) * (int64(math.Ceil(math.Log2(float64(total)))) + int64(w.p))
}

// runWorkload runs one workload end to end and returns its result.
func runWorkload(cfg runConfig) (*result, error) {
	w := cfg.w
	ctx := context.Background()
	fmt.Fprintf(cfg.log, "e2ebench: workload %s seed %d n %d seconds %g traced %v\n", w.name, cfg.seed, w.n, cfg.seconds, cfg.traced)
	// The WAL directories go under $TMPDIR, which run.sh points into
	// the checkout.
	runDir, err := os.MkdirTemp("", "e2ebench-run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
		rec.on.Store(true) // set-up spans give engine.build_s
	}

	// Set-up, several times; the last stack serves the load.
	var setupTimes, buildTimes []float64
	var s *stack
	for i := 0; i < setupCount; i++ {
		var in *database.Instance
		var nodeIns []*database.Instance
		if w.nodes > 0 {
			for j := 0; j < w.nodes; j++ {
				nodeIns = append(nodeIns, generate(w.n, cfg.seed))
			}
		} else {
			in = generate(w.n, cfg.seed)
		}
		dir := filepath.Join(runDir, fmt.Sprintf("wal%d", i))
		// Every set-up starts from a collected heap, so none pays for
		// the garbage of the generator or of the set-up before it.
		runtime.GC()
		st, d, err := boot(w, in, nodeIns, dir, rec)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setupTimes = append(setupTimes, d.Seconds())
		if rec != nil {
			buildTimes = append(buildTimes, buildSeconds(rec.take()))
		}
		if i < setupCount-1 {
			st.close()
		} else {
			s = st
		}
	}
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	fmt.Fprintf(cfg.log, "set-up seconds, %d set-ups:", len(setupTimes))
	for _, t := range setupTimes {
		fmt.Fprintf(cfg.log, " %.4f", t)
	}
	fmt.Fprintf(cfg.log, "; |Q(I)| = %d\n", s.total)
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapInuse) / 1e6
	if rec != nil {
		rec.on.Store(false)
	}

	var gen *writeGen
	if w.writeRate > 0 {
		gen = newWriteGen(generate(w.n, cfg.seed), w.n, cfg.seed*104729+17)
	}
	before, err := snapshot(ctx, s)
	if err != nil {
		return nil, err
	}
	fsBefore := walCounts(rec)
	version0 := s.e.Version()

	// Load phase: closed-loop readers for the measured seconds and, on
	// the write workload, the open-loop writer alongside. In a traced
	// run the writer keeps its schedule through the direct probes too,
	// so acquire catch-up is probed under writes.
	loadStart := time.Now()
	l := &loader{s: s, w: w, seed: cfg.seed, rec: rec}
	wout := &writerOut{}
	stopW := make(chan struct{})
	doneW := make(chan struct{})
	if gen != nil {
		go func() {
			defer close(doneW)
			l.writer(wout, gen, loadStart, stopW)
		}()
	} else {
		close(doneW)
	}
	loadLen := time.Duration(cfg.seconds * float64(time.Second))
	readers := l.runReaders(loadLen)
	var loadSpans []span
	var probes *probeOut
	if rec != nil {
		loadSpans = rec.take()
		probes, err = runProbes(ctx, s, w, cfg.seed, rec)
		if err != nil {
			close(stopW)
			<-doneW
			return nil, fmt.Errorf("probes: %w", err)
		}
	}
	close(stopW)
	<-doneW
	s.e.Quiesce()
	after, err := snapshot(ctx, s)
	if err != nil {
		return nil, err
	}
	fsAfter := walCounts(rec)
	if probes != nil {
		probes.handlerAllocs = handlerAllocs(s, w, cfg.seed)
	}

	chk := &checker{}
	for _, r := range readers {
		chk.attempted += r.attempted
		chk.failed += r.failed
		chk.wrong += r.wrong
		chk.note(r.firstErr)
	}
	chk.attempted += wout.attempted
	chk.failed += wout.failed
	chk.note(wout.firstErr)

	// The distributed bound, asserted live on sequential accesses.
	var rpcPer *rpcPerAccess
	if w.nodes > 0 {
		rpcPer, err = checkClusterBound(ctx, s, w, cfg.seed, rec, chk)
		if err != nil {
			return nil, err
		}
	}

	// Oracle checks.
	if w.writeRate > 0 {
		if err := checkWritten(ctx, s, w, cfg.seed, version0, wout.acked, chk); err != nil {
			return nil, err
		}
	} else {
		var recs []answerRec
		for _, r := range readers {
			recs = append(recs, r.answers...)
		}
		if rpcPer != nil {
			recs = append(recs, rpcPer.answers...)
		}
		s.close()
		s = nil
		if err := chk.checkAnswers(w, cfg.seed, recs); err != nil {
			return nil, err
		}
	}

	res := &result{Correct: chk.ok(), Attempted: chk.attempted, Failed: chk.failed}
	if !cfg.traced {
		e2e := endToEnd(setupTimes, heapMB, readers)
		res.Metrics = e2e.m
		e2e.report(cfg.log, "end-to-end metrics:")
	} else {
		pl := perLayer(layerInputs{
			readers: readers, writer: wout, spans: loadSpans, probes: probes,
			before: before, after: after, fsBefore: fsBefore, fsAfter: fsAfter,
			buildTimes: buildTimes, proc: l.proc, untracedTime: l.untraced, rpcPer: rpcPer,
			attempted: chk.attempted, failed: chk.failed,
		})
		res.Metrics = pl.m
		pl.report(cfg.log, "per-layer metrics:")
		printBudget(cfg.log, w, loadSpans, probes, rpcPer)
	}
	writeSummary(cfg.log, w, readers, wout, rpcPer, chk, l.untraced)
	return res, nil
}
