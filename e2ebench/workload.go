package main

import (
	"math/rand"

	"rankedaccess/client"
	"rankedaccess/internal/database"
	"rankedaccess/internal/values"
	"rankedaccess/internal/workload"
)

// The registered query of every workload: the two-path join ranked
// lexicographically by (x, y, z), registered once as a prepared query.
const (
	queryText = "Q(x, y, z) :- R(x, y), S(y, z)"
	orderText = "x, y, z"
	queryName = "bench"
)

// clientConns is the fixed number of client connections the load uses,
// in total, on every workload.
const clientConns = 2

// rangeWidth is the window of every range request.
const rangeWidth = 64

// accessShare is the fraction of reads that are single-k accesses; the
// rest are rangeWidth-wide ranges.
const accessShare = 0.9

// Hot-head distribution of read_hot_write: ranks and pages drawn Zipf
// with exponent zipfS over the first hotHead ranks of the ranking.
const (
	hotHead = 4096
	zipfS   = 1.1
)

// workloadDef fixes one workload's inputs and load shape.
type workloadDef struct {
	name string
	n    int // tuples per relation
	// nodes > 0 serves through a coordinator over that many shard
	// nodes holding placement[i]'s shards of p shards.
	nodes     int
	p         int
	placement [][]int
	wal       bool // engine.Open on a scratch dir: every write is fsynced
	readers   int  // closed-loop readers
	writeRate int  // open-loop write batches per second; 0 = no writer
	hot       bool // Zipf over the ranking's head instead of uniform ranks
}

var workloads = map[string]workloadDef{
	"read_uniform": {
		name: "read_uniform", n: 262144, readers: 2,
	},
	"read_hot_write": {
		name: "read_hot_write", n: 65536, wal: true, readers: 1, writeRate: 25, hot: true,
	},
	// Placement is pinned: rendezvous hashing over ephemeral loopback
	// ports changes the shard split from run to run, which made the
	// access latency bimodal.
	"cluster_read": {
		name: "cluster_read", n: 262144, readers: 2,
		nodes: 2, p: 4, placement: [][]int{{0, 2}, {1, 3}},
	},
}

// generate returns the workload's instance for a seed: the same seed
// always gives the same instance.
func generate(n int, seed int64) *database.Instance {
	_, in := workload.TwoPath(rand.New(rand.NewSource(seed)), n, max(n/4, 1), 0.4)
	return in
}

// rankDist draws ranks and range starts for the read mix.
type rankDist struct {
	total int64
	hot   bool
	rng   *rand.Rand
	zk    *rand.Zipf // hot: rank within the head
	zp    *rand.Zipf // hot: page within the head
}

func newRankDist(total int64, hot bool, seed int64) *rankDist {
	d := &rankDist{total: total, hot: hot, rng: rand.New(rand.NewSource(seed))}
	if hot {
		head := min(int64(hotHead), total)
		d.zk = rand.NewZipf(d.rng, zipfS, 1, uint64(head-1))
		pages := max(head/rangeWidth, 1)
		d.zp = rand.NewZipf(d.rng, zipfS, 1, uint64(pages-1))
	}
	return d
}

// isAccess reports whether the next read is a single-k access.
func (d *rankDist) isAccess() bool { return d.rng.Float64() < accessShare }

// access draws a rank for a single-k access.
func (d *rankDist) access() int64 {
	if d.hot {
		return int64(d.zk.Uint64())
	}
	return d.rng.Int63n(d.total)
}

// window draws the start of a rangeWidth-wide range that fits the
// ranking.
func (d *rankDist) window() int64 {
	if d.hot {
		return min(int64(d.zp.Uint64())*rangeWidth, max(d.total-rangeWidth, 0))
	}
	return d.rng.Int63n(max(d.total-rangeWidth+1, 1))
}

// writeGen produces the open-loop writer's batches: two fresh R rows
// per batch, and on every fourth batch the deletion of one row an
// earlier batch inserted. Inserted rows never duplicate a row already
// in R, so a deletion removes exactly the row it names.
type writeGen struct {
	rng      *rand.Rand
	dom      int64
	present  map[[2]values.Value]bool
	inserted [][2]values.Value
	i        int
}

func newWriteGen(in *database.Instance, n int, seed int64) *writeGen {
	g := &writeGen{rng: rand.New(rand.NewSource(seed)), dom: int64(max(n/4, 1)), present: make(map[[2]values.Value]bool)}
	r := in.Relation("R")
	for i := 0; i < r.Len(); i++ {
		t := r.Tuple(i)
		g.present[[2]values.Value{t[0], t[1]}] = true
	}
	return g
}

// next returns the next batch in SDK form.
func (g *writeGen) next() []client.Write {
	w := client.Write{Relation: "R"}
	for len(w.Insert) < 2 {
		row := [2]values.Value{values.Value(g.rng.Int63n(g.dom)), values.Value(g.rng.Int63n(g.dom))}
		if g.present[row] {
			continue
		}
		g.present[row] = true
		g.inserted = append(g.inserted, row)
		w.Insert = append(w.Insert, []client.Value{int64(row[0]), int64(row[1])})
	}
	if g.i%4 == 3 {
		j := g.rng.Intn(len(g.inserted) - 2) // never this batch's own rows
		row := g.inserted[j]
		g.inserted = append(g.inserted[:j], g.inserted[j+1:]...)
		delete(g.present, row)
		w.Delete = [][]client.Value{{int64(row[0]), int64(row[1])}}
	}
	g.i++
	return []client.Write{w}
}

// applyWrites replays acknowledged batches onto an instance, in order:
// the oracle's view of the written instance.
func applyWrites(in *database.Instance, batches [][]client.Write) {
	for _, b := range batches {
		for _, w := range b {
			for _, row := range w.Insert {
				in.AddRow(w.Relation, row...)
			}
			for _, row := range w.Delete {
				in.DeleteRow(w.Relation, row...)
			}
		}
	}
}
