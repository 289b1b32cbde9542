package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"edgeauth/internal/query"
	"edgeauth/internal/schema"
	"edgeauth/internal/workload"
)

// The seeded generator. -seed is the only source of randomness in the
// benchmark: the table content, the key permutation, the zipf stream,
// the range starts and the insert slots all derive from it, and the
// servers and the client receive nothing but the operations generated
// here. (RSA key generation reads crypto/rand and cannot be seeded; it
// decides no input.)

const (
	// keyStride spaces the initial ids so fresh keys fit between them:
	// row i has id i*keyStride, and the keyStride-1 ids after it are its
	// gap, where write rounds place their runs.
	keyStride = 1024
	// rangeSpan is how many consecutive rows one read.range query covers.
	rangeSpan = 256
	// zipfS is the skew of the point-read key distribution.
	zipfS = 1.1
	// deleteLag is how many rounds an inserted run lives before a later
	// round deletes it, so the table holds steady at the initial rows
	// plus deleteLag batches.
	deleteLag = 64
	// numShards is the partition count of the one deployment.
	numShards = 4
)

// rangeProject is the 3-of-10 column projection of read.range: the VO
// then carries D_P digests for the 7 filtered attributes of every row.
var rangeProject = []string{"id", "cat", "a2"}

func rowKey(i int) int64 { return int64(i) * keyStride }

// subSeed derives an independent stream seed from the run's seed.
func subSeed(seed int64, stream string, n int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, stream, n)
	return int64(h.Sum64())
}

// generator holds what every stream of one run shares.
type generator struct {
	seed int64
	rows int
	perm []int // zipf rank -> row index
}

func newGenerator(seed int64, rows int) *generator {
	return &generator{
		seed: seed,
		rows: rows,
		perm: rand.New(rand.NewSource(subSeed(seed, "perm", 0))).Perm(rows),
	}
}

// tuples builds the initial table: workload.DefaultSpec content with the
// ids spread keyStride apart.
func (g *generator) tuples() (*schema.Schema, []schema.Tuple, error) {
	spec := workload.DefaultSpec(g.rows)
	spec.Seed = subSeed(g.seed, "table", 0)
	sch, err := spec.Schema()
	if err != nil {
		return nil, nil, err
	}
	tuples, err := spec.Tuples()
	if err != nil {
		return nil, nil, err
	}
	for i := range tuples {
		tuples[i].Values[0] = schema.Int64(rowKey(i))
	}
	return sch, tuples, nil
}

// readOp is one generated query: the closed key range [lo, hi] and the
// projection (nil = all columns).
type readOp struct {
	lo, hi  int64
	project []string
}

func (op readOp) preds() []query.Predicate {
	if op.lo == op.hi {
		return []query.Predicate{{Column: "id", Op: query.OpEQ, Value: schema.Int64(op.lo)}}
	}
	return []query.Predicate{
		{Column: "id", Op: query.OpGE, Value: schema.Int64(op.lo)},
		{Column: "id", Op: query.OpLE, Value: schema.Int64(op.hi)},
	}
}

// readStream yields one client's next query.
type readStream func() readOp

// pointStream is client n's read.point stream: id = k with k zipfian
// over a seeded permutation of the initial ids, so the hot keys are
// scattered over the shards and repeat.
func (g *generator) pointStream(n int) readStream {
	rng := rand.New(rand.NewSource(subSeed(g.seed, "point", n)))
	z := rand.NewZipf(rng, zipfS, 1, uint64(g.rows-1))
	return func() readOp {
		k := rowKey(g.perm[z.Uint64()])
		return readOp{lo: k, hi: k}
	}
}

// rangeStream is client n's read.range stream: rangeSpan consecutive
// rows from a uniform start, three columns projected.
func (g *generator) rangeStream(n int) readStream {
	rng := rand.New(rand.NewSource(subSeed(g.seed, "range", n)))
	span := rangeSpan
	if span > g.rows {
		span = g.rows
	}
	return func() readOp {
		start := rng.Intn(g.rows - span + 1)
		return readOp{lo: rowKey(start), hi: rowKey(start + span - 1), project: rangeProject}
	}
}

// run is n consecutive fresh keys lo..lo+n-1 inside one row's gap.
type run struct {
	lo int64
	n  int
}

func (r run) hi() int64 { return r.lo + int64(r.n) - 1 }

// writeRound is one generated write round: one run to insert in each
// shard's key range, and the runs of round r-deleteLag to delete.
type writeRound struct {
	insert []run
	delete []run
}

// last is the key the round's read-your-write query asks for.
func (w writeRound) last() int64 { return w.insert[len(w.insert)-1].hi() }

// writeStream yields the rounds of the one writer.
type writeStream struct {
	g       *generator
	rng     *rand.Rand
	runLen  int
	live    map[int]bool // row index whose gap holds a live run
	history [][]run      // the last deleteLag rounds' inserts
}

func (g *generator) writeStream(runLen int) *writeStream {
	return &writeStream{
		g:      g,
		rng:    rand.New(rand.NewSource(subSeed(g.seed, "write", runLen))),
		runLen: runLen,
		live:   make(map[int]bool),
	}
}

func (ws *writeStream) next() writeRound {
	var w writeRound
	per := ws.g.rows / numShards
	for s := 0; s < numShards; s++ {
		row := s*per + ws.rng.Intn(per)
		for ws.live[row] {
			row = s*per + ws.rng.Intn(per)
		}
		ws.live[row] = true
		w.insert = append(w.insert, run{lo: rowKey(row) + 1, n: ws.runLen})
	}
	if len(ws.history) == deleteLag {
		w.delete = ws.history[0]
		ws.history = ws.history[1:]
		for _, r := range w.delete {
			delete(ws.live, int(r.lo/keyStride))
		}
	}
	ws.history = append(ws.history, w.insert)
	return w
}

// tuplesFor materialises a round's insert runs: each fresh tuple copies
// the payload of the row whose gap it lands in.
func tuplesFor(base []schema.Tuple, runs []run) []schema.Tuple {
	var out []schema.Tuple
	for _, r := range runs {
		tmpl := base[r.lo/keyStride]
		for j := 0; j < r.n; j++ {
			t := tmpl.Clone()
			t.Values[0] = schema.Int64(r.lo + int64(j))
			out = append(out, t)
		}
	}
	return out
}

// oracle knows what a correct answer looks like: the initial ids plus the
// acked inserted runs minus the acked deleted ones.
type oracle struct {
	rows int
	mu   sync.Mutex
	live map[int64]int // run lo -> n
}

func newOracle(rows int) *oracle { return &oracle{rows: rows, live: make(map[int64]int)} }

func (o *oracle) inserted(runs []run) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, r := range runs {
		o.live[r.lo] = r.n
	}
}

func (o *oracle) deleted(runs []run) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, r := range runs {
		delete(o.live, r.lo)
	}
}

// liveRuns lists the inserted runs not yet deleted.
func (o *oracle) liveRuns() []run {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]run, 0, len(o.live))
	for lo, n := range o.live {
		out = append(out, run{lo: lo, n: n})
	}
	return out
}

// expect returns the row count and the first and last key of the correct
// answer to the key range [lo, hi].
func (o *oracle) expect(lo, hi int64) (n int, first, last int64) {
	add := func(a, b int64, count int) {
		if count <= 0 {
			return
		}
		if n == 0 || a < first {
			first = a
		}
		if n == 0 || b > last {
			last = b
		}
		n += count
	}
	if maxKey := rowKey(o.rows - 1); hi >= 0 && lo <= maxKey {
		i0 := (max(lo, 0) + keyStride - 1) / keyStride
		i1 := min(hi, maxKey) / keyStride
		add(i0*keyStride, i1*keyStride, int(i1-i0+1))
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for rlo, rn := range o.live {
		a, b := max(lo, rlo), min(hi, rlo+int64(rn)-1)
		add(a, b, int(b-a+1))
	}
	return n, first, last
}
