package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"edgeauth/internal/costmodel"
	"edgeauth/internal/digest"
	"edgeauth/internal/naive"
	"edgeauth/internal/schema"
	"edgeauth/internal/sig"
	"edgeauth/internal/storage"
	"edgeauth/internal/vbtree"
	"edgeauth/internal/workload"
)

// MeasuredFig8 reports the implementation's real index fan-outs versus key
// length: the B-tree and VB-tree node layouts, the VB-tree's entries
// carrying the paper's 16-byte |D| and its pages the in-node group
// digests of the ordered commitment (vbtree.MaxInternalFanOut).
func (e *Env) MeasuredFig8() costmodel.Figure {
	f := costmodel.Figure{
		ID:     "F8-measured",
		Title:  "Measured Index Fan-Out versus Key Length (real node layouts)",
		XLabel: "log2|K|",
		YLabel: "fan-out",
		Series: []costmodel.Series{{Name: "B-tree"}, {Name: "VB-tree"}},
	}
	for i := 0; i <= 8; i++ {
		kl := 1 << i
		f.X = append(f.X, float64(i))
		f.Series[0].Y = append(f.Series[0].Y, float64(btreeFanOut(e.Cfg.PageSize, kl)))
		f.Series[1].Y = append(f.Series[1].Y, float64(vbtree.MaxInternalFanOut(e.Cfg.PageSize, kl, e.AccLen)))
	}
	return f
}

// btreeFanOut is the plain B-tree's children per internal node for
// fixed-size keys — the "B-tree" series the VB-tree is measured against.
// Layout: a node header of type(1) + count(2) + child0(4) = 7 bytes, then
// one keyLen(2) + key + child(4) entry per further child.
func btreeFanOut(pageSize, keyLen int) int {
	return 1 + (pageSize-7)/(2+keyLen+4)
}

// MeasuredFig9 reports tree heights versus key length at the paper's 1M
// rows, derived from the implementation's real fan-outs, plus the actually
// built tree height at the measured scale as a calibration row appended to
// the title.
func (e *Env) MeasuredFig9() costmodel.Figure {
	f := costmodel.Figure{
		ID:     "F9-measured",
		Title:  "Measured Index Height versus Key Length (real layouts, N=1M)",
		XLabel: "log2|K|",
		YLabel: "height (levels)",
		Series: []costmodel.Series{{Name: "B-tree"}, {Name: "VB-tree"}},
	}
	const nr = 1_000_000
	heightFor := func(fanOut int) float64 {
		if fanOut < 2 {
			fanOut = 2
		}
		return math.Ceil(math.Log(float64(nr)) / math.Log(float64(fanOut)))
	}
	for i := 0; i <= 8; i++ {
		kl := 1 << i
		f.X = append(f.X, float64(i))
		f.Series[0].Y = append(f.Series[0].Y, heightFor(btreeFanOut(e.Cfg.PageSize, kl)))
		f.Series[1].Y = append(f.Series[1].Y, heightFor(vbtree.MaxInternalFanOut(e.Cfg.PageSize, kl, e.AccLen)))
	}
	return f
}

// BuiltShape returns the measured shape of the env's real tree (height,
// fan-out, node counts) — the calibration evidence behind Figures 8–9.
func (e *Env) BuiltShape() (s vbtree.Stats, err error) {
	err = e.Tree.Read(false, func(v *vbtree.View) error {
		s, err = v.Stats(8)
		return err
	})
	return s, err
}

// MeasuredFig10 runs the communication experiment for one Qc across the
// selectivity sweep.
func (e *Env) MeasuredFig10(ctx context.Context, qc int) (costmodel.Figure, error) {
	f := costmodel.Figure{
		ID:     formatID("F10-measured(Qc=%d)", qc),
		Title:  formatID("Measured Communication Cost, Qc = %d", qc),
		XLabel: "selectivity%",
		YLabel: "bytes on the wire",
		Series: []costmodel.Series{{Name: "Naive"}, {Name: "VB-tree"}},
	}
	for _, sel := range workload.Selectivities() {
		p, err := e.MeasureComm(ctx, sel, qc)
		if err != nil {
			return f, err
		}
		f.X = append(f.X, sel)
		f.Series[0].Y = append(f.Series[0].Y, float64(p.NaiveBytes))
		f.Series[1].Y = append(f.Series[1].Y, float64(p.VBBytes))
	}
	return f, nil
}

// MeasuredFig11 rebuilds small environments with attribute size 16·2^f
// and measures communication at 20% and 80% selectivity.
func MeasuredFig11(ctx context.Context, cfg Config) (costmodel.Figure, error) {
	f := costmodel.Figure{
		ID:     "F11-measured",
		Title:  "Measured Communication versus Attribute Size (|A| = 16·2^f)",
		XLabel: "attrFactor",
		YLabel: "bytes on the wire",
		Series: []costmodel.Series{
			{Name: "Naive(20%)"}, {Name: "Naive(80%)"},
			{Name: "VB-tree(20%)"}, {Name: "VB-tree(80%)"},
		},
	}
	key, err := sig.Generate(sig.SchemeRSAMerkle, cfg.KeyBits)
	if err != nil {
		return f, err
	}
	for fac := 0; fac <= 6; fac++ {
		small := cfg
		small.Rows = cfg.SmallRows
		// The largest factor produces ~9 KB tuples; they spill into heap
		// overflow pages while the index keeps Table 1's 4 KB nodes.
		env, err := buildSizedEnv(small, key, 16*(1<<fac))
		if err != nil {
			return f, err
		}
		f.X = append(f.X, float64(fac))
		for si, sel := range []float64{20, 80} {
			p, err := env.MeasureComm(ctx, sel, len(env.Sch.Columns))
			if err != nil {
				return f, err
			}
			f.Series[si].Y = append(f.Series[si].Y, float64(p.NaiveBytes))
			f.Series[2+si].Y = append(f.Series[2+si].Y, float64(p.VBBytes))
		}
	}
	return f, nil
}

// buildSizedEnv builds an Env whose non-key attributes are attrSize bytes.
func buildSizedEnv(cfg Config, key *sig.PrivateKey, attrSize int) (*Env, error) {
	spec := workload.DefaultSpec(cfg.Rows)
	spec.Seed = cfg.Seed
	spec.AttrSize = attrSize
	sch, err := spec.Schema()
	if err != nil {
		return nil, err
	}
	tuples, err := spec.Tuples()
	if err != nil {
		return nil, err
	}
	acc := digest.MustNew(digest.DefaultParams())
	tree, err := buildTree(cfg, sch, acc, key, tuples)
	if err != nil {
		return nil, err
	}
	nstore, err := naive.BuildStore(sch, acc, key, tuples)
	if err != nil {
		return nil, err
	}
	counters := &digest.Counters{}
	p := digest.DefaultParams()
	p.Counters = counters
	verAcc := digest.MustNew(p)
	verPub := key.Public()
	verPub.Counters = counters
	return &Env{
		Cfg:      cfg,
		Key:      key,
		Sch:      sch,
		Tree:     tree,
		Naive:    nstore,
		AccLen:   acc.Len(),
		counters: counters,
		verAcc:   verAcc,
		verPub:   verPub,
	}, nil
}

// MeasuredFig12 sweeps selectivity and reports measured client cost in
// Cost_h units for a given X (recover ops weighted X, combine ops 1).
func (e *Env) MeasuredFig12(ctx context.Context, x float64) (costmodel.Figure, error) {
	f := costmodel.Figure{
		ID:     formatID("F12-measured(X=%g)", x),
		Title:  formatID("Measured Client Computation, X = %g", x),
		XLabel: "selectivity%",
		YLabel: "Cost_h units (measured op counts)",
		Series: []costmodel.Series{{Name: "Naive"}, {Name: "VB-tree"}},
	}
	for _, sel := range workload.Selectivities() {
		p, err := e.MeasureOps(ctx, sel, len(e.Sch.Columns))
		if err != nil {
			return f, err
		}
		f.X = append(f.X, sel)
		f.Series[0].Y = append(f.Series[0].Y, p.Cost("naive", 1, x))
		f.Series[1].Y = append(f.Series[1].Y, p.Cost("vb", 1, x))
	}
	return f, nil
}

// MeasuredFig13a reweights measured op counts across Cost_k/Cost_h ratios.
func (e *Env) MeasuredFig13a(ctx context.Context) (costmodel.Figure, error) {
	f := costmodel.Figure{
		ID:     "F13a-measured",
		Title:  "Measured Computation versus Cost_k/Cost_h (X = 10)",
		XLabel: "Cost_k/Cost_h",
		YLabel: "Cost_h units (measured op counts)",
		Series: []costmodel.Series{
			{Name: "Naive(20%)"}, {Name: "Naive(80%)"},
			{Name: "VB-tree(20%)"}, {Name: "VB-tree(80%)"},
		},
	}
	var pts [2]OpsPoint
	for i, sel := range []float64{20, 80} {
		p, err := e.MeasureOps(ctx, sel, len(e.Sch.Columns))
		if err != nil {
			return f, err
		}
		pts[i] = p
	}
	for r := 0.0; r <= 3.0001; r += 0.5 {
		f.X = append(f.X, r)
		for i := range pts {
			f.Series[i].Y = append(f.Series[i].Y, pts[i].Cost("naive", r, 10))
			f.Series[2+i].Y = append(f.Series[2+i].Y, pts[i].Cost("vb", r, 10))
		}
	}
	return f, nil
}

// MeasuredFig13b sweeps the projection width Qc at 20% and 80%
// selectivity.
func (e *Env) MeasuredFig13b(ctx context.Context) (costmodel.Figure, error) {
	f := costmodel.Figure{
		ID:     "F13b-measured",
		Title:  "Measured Computation versus Qc (X = 10)",
		XLabel: "Qc",
		YLabel: "Cost_h units (measured op counts)",
		Series: []costmodel.Series{
			{Name: "Naive(20%)"}, {Name: "Naive(80%)"},
			{Name: "VB-tree(20%)"}, {Name: "VB-tree(80%)"},
		},
	}
	for qc := 1; qc <= len(e.Sch.Columns); qc++ {
		f.X = append(f.X, float64(qc))
		for i, sel := range []float64{20, 80} {
			p, err := e.MeasureOps(ctx, sel, qc)
			if err != nil {
				return f, err
			}
			f.Series[i].Y = append(f.Series[i].Y, p.Cost("naive", 1, 10))
			f.Series[2+i].Y = append(f.Series[2+i].Y, p.Cost("vb", 1, 10))
		}
	}
	return f, nil
}

// UpdatePoint measures one central-server update.
type UpdatePoint struct {
	Label    string
	HashOps  int64
	Combines int64
	Recovers int64
	Wall     time.Duration
}

// MeasureUpdates builds a fresh tree at SmallRows scale under an
// rsa-merkle key and measures insert and range-delete costs, plus the
// full-recompute (Audit) baseline the incremental scheme avoids.
func MeasureUpdates(cfg Config) ([]UpdatePoint, error) {
	key, err := sig.Generate(sig.SchemeRSAMerkle, cfg.KeyBits)
	if err != nil {
		return nil, err
	}
	counters := &digest.Counters{}
	p := digest.DefaultParams()
	p.Counters = counters
	acc := digest.MustNew(p)

	spec := workload.DefaultSpec(cfg.SmallRows)
	spec.Seed = cfg.Seed
	sch, err := spec.Schema()
	if err != nil {
		return nil, err
	}
	tuples, err := spec.Tuples()
	if err != nil {
		return nil, err
	}
	mem, err := storage.NewMemPager(cfg.PageSize)
	if err != nil {
		return nil, err
	}
	pool, err := storage.NewBufferPool(mem, 1<<20)
	if err != nil {
		return nil, err
	}
	heap, err := storage.NewHeapFile(pool)
	if err != nil {
		return nil, err
	}
	pub := key.Public()
	pub.Counters = counters
	tree, err := vbtree.Build(vbtree.Config{
		Pool: pool, Heap: heap, Schema: sch, Acc: acc,
		Signer: key, Pub: pub, BuildParallelism: 8,
	}, tuples, 1.0)
	if err != nil {
		return nil, err
	}

	var out []UpdatePoint
	measure := func(label string, fn func() error) error {
		before := counters.Snapshot()
		start := time.Now()
		if err := fn(); err != nil {
			return err
		}
		wall := time.Since(start)
		d := counters.Snapshot().Sub(before)
		out = append(out, UpdatePoint{
			Label:    label,
			HashOps:  d.HashOps,
			Combines: d.CombineOps,
			Recovers: d.RecoverOps,
			Wall:     wall,
		})
		return nil
	}

	nextID := int64(cfg.SmallRows * 10)
	mk := func() schema.Tuple {
		nextID++
		vals := make([]schema.Datum, len(sch.Columns))
		vals[0] = schema.Int64(nextID)
		for i := 1; i < len(sch.Columns); i++ {
			vals[i] = schema.Str("xxxxxxxxxxxxxxxxxxxx")
		}
		return schema.Tuple{Values: vals}
	}
	if err := measure("insert (incremental, formula 11)", func() error {
		return tree.Insert(mk())
	}); err != nil {
		return nil, err
	}
	// Disjoint delete ranges sized to the table: qr ∈ {1,10,100,…} while
	// they fit in the first half of the key space.
	off := 0
	for qr := 1; qr <= cfg.SmallRows/2-off; qr *= 10 {
		lo := schema.Int64(int64(off))
		hi := schema.Int64(int64(off + qr - 1))
		off += qr
		label := formatID("delete %d tuples (formula 12)", qr)
		if err := measure(label, func() error {
			n, err := tree.DeleteRange(&lo, &hi)
			if err != nil {
				return err
			}
			if n != qr {
				return fmt.Errorf("experiments: deleted %d, want %d", n, qr)
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	if err := measure("full recompute baseline (Audit)", func() error {
		rootSig := tree.RootSig()
		var root digest.Value
		if err := tree.Read(false, func(v *vbtree.View) (err error) {
			_, root, err = v.Audit()
			return err
		}); err != nil {
			return err
		}
		return pub.Verify(rootSig, root)
	}); err != nil {
		return nil, err
	}
	return out, nil
}

func formatID(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
