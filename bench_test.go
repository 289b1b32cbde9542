// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact), plus the ablation benches
// called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// Each figure benchmark reports the paper-model value and the measured
// value of a representative point as benchmark metrics, and exercises the
// full measured path once per iteration. cmd/bench prints the complete
// series; these benches make the reproduction part of `go test`.
package edgeauth_test

import (
	"bytes"
	"context"
	"math/big"
	"sync"
	"testing"

	"edgeauth/internal/costmodel"
	"edgeauth/internal/digest"
	"edgeauth/internal/experiments"
	"edgeauth/internal/naive"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/workload"
)

// benchCfg keeps the shared environment affordable: one build serves every
// figure benchmark.
var benchCfg = experiments.Config{
	Rows:      3_000,
	SmallRows: 600,
	KeyBits:   512,
	PageSize:  4096,
	Seed:      42,
}

var (
	envOnce sync.Once
	env     *experiments.Env
	envErr  error
)

func benchEnv(b *testing.B) *experiments.Env {
	b.Helper()
	envOnce.Do(func() { env, envErr = experiments.NewEnv(benchCfg) })
	if envErr != nil {
		b.Fatal(envErr)
	}
	return env
}

// BenchmarkTable1Defaults exercises the parameter table: validating and
// deriving every Table 1 quantity.
func BenchmarkTable1Defaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := costmodel.Default()
		if err := p.Validate(); err != nil {
			b.Fatal(err)
		}
		_ = p.BTreeFanOut()
		_ = p.VBTreeFanOut()
		_ = p.VBTreeHeight()
	}
	p := costmodel.Default()
	b.ReportMetric(float64(p.VBTreeFanOut()), "model-vb-fanout")
	b.ReportMetric(float64(p.BTreeFanOut()), "model-b-fanout")
}

// BenchmarkFig8FanOut regenerates Figure 8 (fan-out vs key length).
func BenchmarkFig8FanOut(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		_ = costmodel.Fig8FanOut(costmodel.Default())
		_ = e.MeasuredFig8()
	}
	model := costmodel.Fig8FanOut(costmodel.Default())
	meas := e.MeasuredFig8()
	// Report the |K|=16 point (index 4).
	b.ReportMetric(model.Series[1].Y[4], "model-vb-fanout@16B")
	b.ReportMetric(meas.Series[1].Y[4], "measured-vb-fanout@16B")
}

// BenchmarkFig9Height regenerates Figure 9 (height vs key length).
func BenchmarkFig9Height(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		_ = costmodel.Fig9Height(costmodel.Default())
		_ = e.MeasuredFig9()
	}
	shape, err := e.BuiltShape()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(costmodel.Default().VBTreeHeight()), "model-vb-height@1M")
	b.ReportMetric(float64(shape.Height), "built-height@3k")
}

// BenchmarkFig10Communication regenerates Figure 10 (bytes vs selectivity)
// for the middle panel Qc = 5; the 50% point is reported as metrics.
func BenchmarkFig10Communication(b *testing.B) {
	e := benchEnv(b)
	var p experiments.CommPoint
	for i := 0; i < b.N; i++ {
		var err error
		p, err = e.MeasureComm(context.Background(), 50, 5)
		if err != nil {
			b.Fatal(err)
		}
	}
	m := costmodel.Default()
	m.QC = 5
	qr := m.QRForSelectivity(50)
	b.ReportMetric(float64(m.CommNaive(qr))/float64(m.CommVB(qr)), "model-naive/vb")
	b.ReportMetric(float64(p.NaiveBytes)/float64(p.VBBytes), "measured-naive/vb")
}

// BenchmarkFig11AttrFactor regenerates Figure 11 (bytes vs attribute
// size). The full measured sweep rebuilds tables, so it runs once per
// benchmark invocation and iterations re-measure the largest factor.
func BenchmarkFig11AttrFactor(b *testing.B) {
	cfg := benchCfg
	cfg.SmallRows = 300
	f, err := experiments.MeasuredFig11(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	lastIdx := len(f.X) - 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = costmodel.Fig11AttrFactor(costmodel.Default())
	}
	b.ReportMetric(f.Series[1].Y[lastIdx]/f.Series[3].Y[lastIdx], "measured-naive/vb@f6")
	mf := costmodel.Fig11AttrFactor(costmodel.Default())
	b.ReportMetric(mf.Series[1].Y[lastIdx]/mf.Series[3].Y[lastIdx], "model-naive/vb@f6")
}

// BenchmarkFig12Computation regenerates Figure 12 (client cost vs
// selectivity) at X = 10, measuring the full verify path per iteration.
func BenchmarkFig12Computation(b *testing.B) {
	e := benchEnv(b)
	var p experiments.OpsPoint
	for i := 0; i < b.N; i++ {
		var err error
		p, err = e.MeasureOps(context.Background(), 50, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	m := costmodel.Default()
	qr := m.QRForSelectivity(50)
	b.ReportMetric(m.CompNaive(qr)/m.CompVB(qr), "model-naive/vb")
	b.ReportMetric(p.Cost("naive", 1, 10)/p.Cost("vb", 1, 10), "measured-naive/vb")
	b.ReportMetric(float64(p.VBTime.Microseconds()), "vb-verify-us")
	b.ReportMetric(float64(p.NaiveTime.Microseconds()), "naive-verify-us")
}

// BenchmarkFig13aCostK regenerates Figure 13(a): op counts are measured
// once, reweighting is the per-iteration work.
func BenchmarkFig13aCostK(b *testing.B) {
	e := benchEnv(b)
	p, err := e.MeasureOps(context.Background(), 80, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var gapMin, gapMax float64
	for i := 0; i < b.N; i++ {
		gapMin, gapMax = 1e18, 0
		for r := 0.0; r <= 3.0001; r += 0.5 {
			gap := p.Cost("naive", r, 10) - p.Cost("vb", r, 10)
			if gap < gapMin {
				gapMin = gap
			}
			if gap > gapMax {
				gapMax = gap
			}
		}
	}
	// The paper's observation: the gap barely moves with Cost_k.
	b.ReportMetric(gapMax/gapMin, "gap-max/min")
}

// BenchmarkFig13bQc regenerates Figure 13(b): cost vs projection width.
func BenchmarkFig13bQc(b *testing.B) {
	e := benchEnv(b)
	var low, high experiments.OpsPoint
	for i := 0; i < b.N; i++ {
		var err error
		low, err = e.MeasureOps(context.Background(), 20, 2)
		if err != nil {
			b.Fatal(err)
		}
		high, err = e.MeasureOps(context.Background(), 20, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(low.Cost("naive", 1, 10)/low.Cost("vb", 1, 10), "measured-naive/vb@Qc2")
	b.ReportMetric(high.Cost("naive", 1, 10)/high.Cost("vb", 1, 10), "measured-naive/vb@Qc10")
}

// BenchmarkUpdateInsert measures formula (11): one incremental insert.
func BenchmarkUpdateInsert(b *testing.B) {
	key := sig.MustGenerate(sig.SchemeRSAMerkle, 512)
	spec := workload.DefaultSpec(2000)
	sch, err := spec.Schema()
	if err != nil {
		b.Fatal(err)
	}
	tuples, err := spec.Tuples()
	if err != nil {
		b.Fatal(err)
	}
	tree := buildBenchTree(b, sch, key, tuples)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vals := make([]schema.Datum, len(sch.Columns))
		vals[0] = schema.Int64(int64(1_000_000 + i))
		for c := 1; c < len(sch.Columns); c++ {
			vals[c] = schema.Str("benchmark-attribute-v")
		}
		if err := tree.Insert(schema.Tuple{Values: vals}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(costmodel.Default().InsertCost(), "model-cost-h-units")
}

// BenchmarkUpdateDelete measures formula (12): range deletes (re-inserting
// between iterations to keep the tree populated).
func BenchmarkUpdateDelete(b *testing.B) {
	key := sig.MustGenerate(sig.SchemeRSAMerkle, 512)
	spec := workload.DefaultSpec(2000)
	sch, err := spec.Schema()
	if err != nil {
		b.Fatal(err)
	}
	tuples, err := spec.Tuples()
	if err != nil {
		b.Fatal(err)
	}
	tree := buildBenchTree(b, sch, key, tuples)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lo, hi := schema.Int64(100), schema.Int64(149)
		n, err := tree.DeleteRange(&lo, &hi)
		if err != nil {
			b.Fatal(err)
		}
		if n != 50 {
			b.Fatalf("deleted %d, want 50", n)
		}
		b.StopTimer()
		for k := 100; k < 150; k++ {
			if err := tree.Insert(tuples[k]); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
	}
	b.ReportMetric(costmodel.Default().DeleteCost(50), "model-cost-h-units")
}

func buildBenchTree(b *testing.B, sch *schema.Schema, key *sig.PrivateKey, tuples []schema.Tuple) *vbtree.Tree {
	b.Helper()
	mem, err := storage.NewMemPager(4096)
	if err != nil {
		b.Fatal(err)
	}
	pool, err := storage.NewBufferPool(mem, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	heap, err := storage.NewHeapFile(pool)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := vbtree.Build(vbtree.Config{
		Pool: pool, Heap: heap, Schema: sch, Acc: digest.MustNew(digest.DefaultParams()),
		Signer: key, Pub: key.Public(), BuildParallelism: 8,
	}, tuples, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	return tree
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationRootOnlyVO quantifies the paper's headline design
// choice: signing every node keeps the VO size flat in the table size,
// where a root-anchored scheme (Devanbu et al.) grows with tree height.
func BenchmarkAblationRootOnlyVO(b *testing.B) {
	e := benchEnv(b)
	var digests int
	for i := 0; i < b.N; i++ {
		p, err := e.MeasureComm(context.Background(), 10, 10)
		if err != nil {
			b.Fatal(err)
		}
		digests = p.VBDigests
	}
	shape, err := e.BuiltShape()
	if err != nil {
		b.Fatal(err)
	}
	// A root-anchored VO needs the boundary digests of every level up to
	// the root, regardless of result size.
	rootAnchored := digests + (shape.Height-1)*shape.MaxInternalFanOut
	b.ReportMetric(float64(digests), "vb-vo-digests")
	b.ReportMetric(float64(rootAnchored), "root-anchored-digests")
}

// BenchmarkAblationOrderedHash quantifies the commutative-combination
// choice: the paper's D_S is a bare set of lifted digests, while the
// ordered commitment the tree runs — a product of raw digests can be
// rebalanced — ships the envelope's structure (an entry count and the
// recomputed runs per node) and one digest per in-node subtree it does
// not recompute. model-set-vo-bytes is what formula (9) charges the
// paper's answer with its set VO over the same range at the paper's
// 16-byte attributes (costmodel.CommVB); ordered-vo-bytes is the answer
// the tree sends, rows and VO, as MeasureComm counts it, with every column
// returned; point-vo-bytes is the ordered VO alone of one row of the
// range.
func BenchmarkAblationOrderedHash(b *testing.B) {
	e := benchEnv(b)
	// MeasureComm's range for a selectivity of 20 %.
	l, _, qr := workload.RangeForSelectivity(benchCfg.Rows, 20, benchCfg.Seed+20_000)
	lo := schema.Int64(l)
	ctx := context.Background()
	var orderedBytes, pointBytes int
	for i := 0; i < b.N; i++ {
		p, err := e.MeasureComm(ctx, 20, 10)
		if err != nil {
			b.Fatal(err)
		}
		if p.QR != qr {
			b.Fatalf("%d rows, want %d", p.QR, qr)
		}
		_, pw, err := e.Query(ctx, vbtree.Query{Lo: &lo, Hi: &lo})
		if err != nil {
			b.Fatal(err)
		}
		orderedBytes, pointBytes = p.VBBytes, pw.WireSize()
	}
	m := costmodel.Default()
	m.NR, m.B = benchCfg.Rows, benchCfg.PageSize
	m.NC = len(e.Sch.Columns)
	m.QC = m.NC
	b.ReportMetric(float64(m.CommVB(qr)), "model-set-vo-bytes")
	b.ReportMetric(float64(orderedBytes), "ordered-vo-bytes")
	b.ReportMetric(float64(pointBytes), "point-vo-bytes")
}

// BenchmarkAblationModulus compares the paper's m = 2^k combining
// optimization against an RSA-style 1024-bit odd modulus. Package naive's
// combiner has only the first; the second is the same combine — multiply
// the digests into one product, apply g once — written out here with
// math/big over digests as wide as that modulus.
func BenchmarkAblationModulus(b *testing.B) {
	ds := make([]digest.Value, 32)
	for i := range ds {
		ds[i] = naive.HashAttribute(nil, "bench", "ablate", "col", nil, []byte{byte(i)})
	}
	b.Run("mod2k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			acc := naive.NewAcc(nil)
			for _, d := range ds {
				if err := acc.Add(d); err != nil {
					b.Fatal(err)
				}
			}
			acc.Value()
		}
	})
	b.Run("modbig-1024", func(b *testing.B) {
		m := new(big.Int).Lsh(big.NewInt(1), 1024)
		m.Add(m, big.NewInt(129))
		e := big.NewInt(15)
		size := (m.BitLen() + 7) / 8
		wide := make([][]byte, len(ds))
		for i, d := range ds {
			x := new(big.Int).SetBytes(bytes.Repeat(d, size/len(d)+1))
			wide[i] = x.Mod(x, m).FillBytes(make([]byte, size))
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p, x := big.NewInt(1), new(big.Int)
			for _, v := range wide {
				p.Mul(p, x.SetBytes(v)).Mod(p, m)
			}
			p.Exp(p, e, m).FillBytes(make([]byte, size))
		}
	})
}

// BenchmarkAblationInsertRecompute compares the paper's incremental insert
// against the full digest recomputation it avoids (Audit is the
// recompute-everything path).
func BenchmarkAblationInsertRecompute(b *testing.B) {
	key := sig.MustGenerate(sig.SchemeRSAMerkle, 512)
	spec := workload.DefaultSpec(1000)
	sch, err := spec.Schema()
	if err != nil {
		b.Fatal(err)
	}
	tuples, err := spec.Tuples()
	if err != nil {
		b.Fatal(err)
	}
	tree := buildBenchTree(b, sch, key, tuples)
	// The sub-benchmark body reruns with growing b.N against the same
	// tree, so keys must be unique across runs.
	nextKey := int64(2_000_000)
	b.Run("incremental-insert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			nextKey++
			vals := make([]schema.Datum, len(sch.Columns))
			vals[0] = schema.Int64(nextKey)
			for c := 1; c < len(sch.Columns); c++ {
				vals[c] = schema.Str("ablation-attribute-xx")
			}
			if err := tree.Insert(schema.Tuple{Values: vals}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-recompute", func(b *testing.B) {
		rootSig, pub := tree.RootSig(), key.Public()
		for i := 0; i < b.N; i++ {
			if err := tree.Read(false, func(v *vbtree.View) error {
				_, root, err := v.Audit()
				if err != nil {
					return err
				}
				return pub.Verify(rootSig, root)
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNaiveVerify and BenchmarkVBVerify isolate the two schemes'
// client verification paths at a fixed result size.
func BenchmarkVBVerify(b *testing.B) {
	e := benchEnv(b)
	for i := 0; i < b.N; i++ {
		if _, err := e.MeasureOps(context.Background(), 20, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNaiveQueryPath isolates the naive store's query construction.
func BenchmarkNaiveQueryPath(b *testing.B) {
	e := benchEnv(b)
	lo, hi := schema.Int64(100), schema.Int64(699)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Naive.RunQuery(naive.Query{Lo: &lo, Hi: &hi}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVBQueryPath isolates the VB-tree's query+VO construction.
func BenchmarkVBQueryPath(b *testing.B) {
	e := benchEnv(b)
	lo, hi := schema.Int64(100), schema.Int64(699)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.Query(context.Background(), vbtree.Query{Lo: &lo, Hi: &hi}); err != nil {
			b.Fatal(err)
		}
	}
}
