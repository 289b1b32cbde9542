package experiments

import (
	"context"
	"math"
	"sync"
	"testing"

	"edgeauth/internal/costmodel"
	"edgeauth/internal/sig"
)

// Small scales keep the test suite fast; shapes are scale-independent.
func testConfig() Config {
	return Config{
		Rows:      800,
		SmallRows: 300,
		KeyBits:   512,
		PageSize:  1024,
		Seed:      7,
	}
}

var (
	envOnce sync.Once
	envInst *Env
	envErr  error
)

func testEnv(t *testing.T) *Env {
	t.Helper()
	envOnce.Do(func() {
		key, err := sig.GenerateKey(512)
		if err != nil {
			envErr = err
			return
		}
		envInst, envErr = NewEnvWithKey(testConfig(), key)
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envInst
}

func TestEnvBuilds(t *testing.T) {
	e := testEnv(t)
	if e.Tree == nil || e.Naive == nil {
		t.Fatal("env incomplete")
	}
	st, err := e.BuiltShape()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != testConfig().Rows {
		t.Fatalf("tree holds %d entries, want %d", st.Entries, testConfig().Rows)
	}
	if e.Naive.Len() != testConfig().Rows {
		t.Fatalf("naive store holds %d", e.Naive.Len())
	}
}

func TestMeasureCommOrdering(t *testing.T) {
	e := testEnv(t)
	prevGap := -1 << 60
	for _, sel := range []float64{10, 50, 100} {
		p, err := e.MeasureComm(context.Background(), sel, 5)
		if err != nil {
			t.Fatal(err)
		}
		if p.VBBytes >= p.NaiveBytes {
			t.Errorf("sel=%v: VB bytes %d >= Naive %d", sel, p.VBBytes, p.NaiveBytes)
		}
		gap := p.NaiveBytes - p.VBBytes
		if gap < prevGap {
			t.Errorf("sel=%v: byte gap shrank", sel)
		}
		prevGap = gap
		if p.VBDigests >= p.NaiveDigests+int(float64(p.QR)*0.5) {
			t.Errorf("sel=%v: VB digests %d not clearly below Naive %d+QR", sel, p.VBDigests, p.NaiveDigests)
		}
	}
}

func TestMeasureOpsOrdering(t *testing.T) {
	e := testEnv(t)
	p, err := e.MeasureOps(context.Background(), 50, len(e.Sch.Columns))
	if err != nil {
		t.Fatal(err)
	}
	// The defining difference: Naive recovers one signature per result
	// tuple; the VB-tree recovers only the VO digests.
	if p.NaiveRecover < int64(p.QR) {
		t.Fatalf("naive recoveries %d below result size %d", p.NaiveRecover, p.QR)
	}
	if p.VBRecover >= p.NaiveRecover {
		t.Fatalf("VB recoveries %d >= naive %d", p.VBRecover, p.NaiveRecover)
	}
	// Both hash every returned attribute.
	wantHashes := int64(p.QR * len(e.Sch.Columns))
	if p.VBHash != wantHashes || p.NaiveHash != wantHashes {
		t.Fatalf("hash ops vb=%d naive=%d, want %d", p.VBHash, p.NaiveHash, wantHashes)
	}
	// Weighted cost keeps the ordering for every X the paper sweeps.
	for _, x := range []float64{5, 10, 100} {
		if p.Cost("vb", 1, x) >= p.Cost("naive", 1, x) {
			t.Errorf("X=%v: VB cost not below naive", x)
		}
	}
}

// TestCombineOpsMatchCostModel ties formula (10)'s combine term — "one
// combine per digest folded into the final product", q_r·N_C + |D_S| — to
// the CombineOps a real verification counts. The verifier spends one
// multiplication per digest plus 2L+1 for the L+1 applications of g and
// the L hand-downs between levels; the model's |D_S| is the paper's
// (F−1)-per-boundary-node bound rather than the VO's actual count. Stated
// tolerance: within 5% of the model once the result has 40 tuples, never
// below q_r·N_C, and independent of Q_C (a projected-out attribute's
// digest arrives in D_P and is folded in exactly like a computed one).
func TestCombineOpsMatchCostModel(t *testing.T) {
	e := testEnv(t)
	cfg := testConfig()
	model := costmodel.Default()
	model.B, model.NR, model.NC = cfg.PageSize, cfg.Rows, len(e.Sch.Columns)
	model.K, model.D = 8, cfg.KeyBits/8 // int64 keys; legacy scheme, so |D| is a signature
	model.CostH, model.X, model.CostK = 0, 0, 1
	for _, sel := range []float64{5, 10, 20, 50, 100} {
		var atFullWidth int64
		for _, qc := range []int{len(e.Sch.Columns), 3} {
			p, err := e.MeasureOps(context.Background(), sel, qc)
			if err != nil {
				t.Fatal(err)
			}
			model.QC = qc
			predicted := model.CompVB(p.QR)
			if floor := int64(p.QR * model.NC); p.VBCombine <= floor {
				t.Errorf("sel %v%% Q_C %d: %d combine ops, below one per attribute digest (%d)", sel, qc, p.VBCombine, floor)
			}
			if off := math.Abs(float64(p.VBCombine)-predicted) / predicted; off > 0.05 {
				t.Errorf("sel %v%% Q_C %d (q_r %d): observed %d combine ops, model predicts %.0f (%.1f%% apart, tolerance 5%%)",
					sel, qc, p.QR, p.VBCombine, predicted, 100*off)
			}
			if atFullWidth == 0 {
				atFullWidth = p.VBCombine
			} else if p.VBCombine != atFullWidth {
				t.Errorf("sel %v%%: %d combine ops at Q_C %d, %d unprojected; projection must not change the count", sel, p.VBCombine, qc, atFullWidth)
			}
		}
	}
}

func TestMeasuredFigureShapes(t *testing.T) {
	e := testEnv(t)
	f8 := e.MeasuredFig8()
	for i := range f8.X {
		if f8.Series[1].Y[i] >= f8.Series[0].Y[i] {
			t.Errorf("F8: VB fan-out >= B fan-out at x=%v", f8.X[i])
		}
	}
	f9 := e.MeasuredFig9()
	for i := range f9.X {
		if f9.Series[1].Y[i] < f9.Series[0].Y[i] {
			t.Errorf("F9: VB height below B height at x=%v", f9.X[i])
		}
	}
	f10, err := e.MeasuredFig10(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	last := len(f10.X) - 1
	if f10.Series[1].Y[last] >= f10.Series[0].Y[last] {
		t.Error("F10: VB not below Naive at 100% selectivity")
	}
	f12, err := e.MeasuredFig12(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if f12.Series[1].Y[last] >= f12.Series[0].Y[last] {
		t.Error("F12: VB not below Naive at 100% selectivity")
	}
	f13a, err := e.MeasuredFig13a(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(f13a.X) != 7 {
		t.Errorf("F13a has %d points", len(f13a.X))
	}
	f13b, err := e.MeasuredFig13b(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(f13b.X) != len(e.Sch.Columns) {
		t.Errorf("F13b has %d points", len(f13b.X))
	}
}

func TestMeasuredFig11Converges(t *testing.T) {
	cfg := testConfig()
	cfg.SmallRows = 150 // 7 rebuilds; keep them cheap
	f, err := MeasuredFig11(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.X) != 7 {
		t.Fatalf("F11 has %d points", len(f.X))
	}
	// Ratio Naive/VB at 80% selectivity must shrink as attributes grow.
	first := f.Series[1].Y[0] / f.Series[3].Y[0]
	lastIdx := len(f.X) - 1
	last := f.Series[1].Y[lastIdx] / f.Series[3].Y[lastIdx]
	if last >= first {
		t.Fatalf("F11 ratio did not converge: %v -> %v", first, last)
	}
	// VB stays below Naive throughout.
	for i := range f.X {
		if f.Series[3].Y[i] >= f.Series[1].Y[i] {
			t.Errorf("F11: VB >= Naive at factor %v", f.X[i])
		}
	}
}

func TestMeasureUpdates(t *testing.T) {
	cfg := testConfig()
	cfg.SmallRows = 400
	pts, err := MeasureUpdates(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 1 insert + deletes for qr = 1, 10, 100 (fitting 400 rows) + audit.
	if len(pts) != 5 {
		t.Fatalf("got %d update points: %+v", len(pts), pts)
	}
	insert := pts[0]
	audit := pts[len(pts)-1]
	// Formula (11): an insert hashes N_C attributes and performs a
	// handful of combines — orders of magnitude below a full recompute.
	if insert.HashOps > 50 {
		t.Errorf("insert hashed %d times", insert.HashOps)
	}
	if audit.HashOps < int64(cfg.SmallRows) {
		t.Errorf("audit hashed only %d times", audit.HashOps)
	}
	if insert.Combines*10 > audit.Combines {
		t.Errorf("incremental insert (%d combines) not clearly below recompute (%d)",
			insert.Combines, audit.Combines)
	}
	// Delete cost grows (weakly) with the deleted range.
	deletes := pts[1 : len(pts)-1]
	if deletes[len(deletes)-1].Combines < deletes[0].Combines {
		t.Errorf("delete combines shrank with range size: %+v", deletes)
	}
}

// TestMeasureUpdatesMatchesParentCommit pins Figure 12's rows — hashes,
// combines and recoveries of the insert (formula (11)), the deletes
// (formula (12)) and the Audit baseline — to what the commit that still
// carried a separate per-tuple insert path measured on the same trees.
// The insert row is N_C hashes and N_C + 3H combines for a tree of
// height H (vbtree.TestInsertCostIsFormula11 derives the count); the
// Merkle tree is a level lower at each size because its entries are
// 16-byte digests, not 64-byte signatures.
//
// The rsa rows are unchanged. The rsa-merkle rows are this commit's: the
// Merkle schemes commit by ordered hashes, so they hash and never combine
// — the insert N_C attribute hashes, a tuple hash and the dirty in-node
// groups and node hashes of its path (costmodel.OrderedInsertHashes), a
// delete the rehashed nodes, the Audit every digest of the tree. Each row
// quotes what the parent commit (253a3c6) measured when they combined.
func TestMeasureUpdatesMatchesParentCommit(t *testing.T) {
	for _, tc := range []struct {
		scheme sig.Scheme
		rows   int
		want   [][3]int64 // insert, deletes of 1/10/100, Audit
	}{
		{sig.SchemeRSAFull, 400, [][3]int64{{10, 19, 2}, {0, 18, 13}, {0, 8, 3}, {0, 25, 20}, {2900, 3537, 3219}}},
		{sig.SchemeRSAFull, 2000, [][3]int64{{10, 22, 3}, {0, 21, 14}, {0, 11, 4}, {0, 28, 21}, {18900, 23029, 20965}}},
		// parent: {10, 16, 0}, {0, 32, 0}, {0, 22, 0}, {0, 12, 0}, {2900, 3503, 1}
		{sig.SchemeRSAMerkle, 400, [][3]int64{{16, 0, 0}, {8, 0, 0}, {7, 0, 0}, {7, 0, 0}, {3247, 0, 1}}},
		// parent: {10, 19, 0}, {0, 35, 0}, {0, 25, 0}, {0, 15, 0}, {18900, 22819, 1}
		{sig.SchemeRSAMerkle, 2000, [][3]int64{{16, 0, 0}, {11, 0, 0}, {10, 0, 0}, {10, 0, 0}, {21143, 0, 1}}},
	} {
		cfg := testConfig()
		cfg.SmallRows = tc.rows
		pts, err := measureUpdates(cfg, tc.scheme)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(tc.want) {
			t.Fatalf("%v/%d: got %d update points, want %d", tc.scheme, tc.rows, len(pts), len(tc.want))
		}
		for i, p := range pts {
			if got := [3]int64{p.HashOps, p.Combines, p.Recovers}; got != tc.want[i] {
				t.Errorf("%v/%d %s: hash/combine/recover = %v, pinned %v", tc.scheme, tc.rows, p.Label, got, tc.want[i])
			}
		}
	}
}
