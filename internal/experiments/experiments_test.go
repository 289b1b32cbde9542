package experiments

import (
	"context"
	"sync"
	"testing"

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
		key, err := sig.Generate(sig.SchemeRSAMerkle, 512)
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
	// Both hash every returned attribute; the VB-tree also hashes each
	// row's tuple digest and the envelope's groups and nodes.
	wantHashes := int64(p.QR * len(e.Sch.Columns))
	if p.VBHash < wantHashes+int64(p.QR) || p.NaiveHash != wantHashes {
		t.Fatalf("hash ops vb=%d naive=%d, want at least %d and exactly %d", p.VBHash, p.NaiveHash, wantHashes+int64(p.QR), wantHashes)
	}
	// Weighted cost keeps the ordering for every X the paper sweeps.
	for _, x := range []float64{5, 10, 100} {
		if p.Cost("vb", 1, x) >= p.Cost("naive", 1, x) {
			t.Errorf("X=%v: VB cost not below naive", x)
		}
	}
}

func TestMeasuredFigureShapes(t *testing.T) {
	e := testEnv(t)
	// A VB-tree entry carries a 16-byte digest a B-tree entry does not,
	// so its fan-out is below the B-tree's — except where the digests of
	// a page's entries fit in what the B-tree's entries leave over: at
	// 256-byte keys on these 1 KB pages both hold 4.
	f8 := e.MeasuredFig8()
	for i := range f8.X {
		if vb, b := f8.Series[1].Y[i], f8.Series[0].Y[i]; vb > b || vb == b && f8.X[i] != 8 {
			t.Errorf("F8: VB fan-out %v, B fan-out %v at x=%v", vb, b, f8.X[i])
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
	// Formula (11): an insert hashes N_C attributes, its tuple and the
	// dirty groups and nodes of its path — orders of magnitude below a
	// full recompute; so does a delete, which rehashes only the nodes it
	// changed. Nothing combines.
	if insert.HashOps > 50 {
		t.Errorf("insert hashed %d times", insert.HashOps)
	}
	if audit.HashOps < int64(cfg.SmallRows) {
		t.Errorf("audit hashed only %d times", audit.HashOps)
	}
	for _, p := range pts[:len(pts)-1] {
		if p.HashOps*10 > audit.HashOps || p.Combines != 0 {
			t.Errorf("%s: %d hashes and %d combines, not clearly below the recompute's %d hashes",
				p.Label, p.HashOps, p.Combines, audit.HashOps)
		}
	}
}

// TestMeasureUpdatesMatchesParentCommit pins Figure 12's rows — hashes,
// combines and recoveries of the insert (formula (11)), the deletes
// (formula (12)) and the Audit baseline — under the rsa-merkle key the
// measured figures run: the tree commits by ordered hashes, so it hashes
// and never combines — the insert N_C attribute hashes, a tuple hash and
// the dirty in-node groups and node hashes of its path
// (costmodel.OrderedInsertHashes), a delete the rehashed nodes, the
// Audit every digest of the tree and its one root recovery. Each row
// quotes what commit 253a3c6 measured when the tree combined.
func TestMeasureUpdatesMatchesParentCommit(t *testing.T) {
	for _, tc := range []struct {
		rows int
		want [][3]int64 // insert, deletes of 1/10/100, Audit
	}{
		// 253a3c6: {10, 16, 0}, {0, 32, 0}, {0, 22, 0}, {0, 12, 0}, {2900, 3503, 1}
		{400, [][3]int64{{16, 0, 0}, {8, 0, 0}, {7, 0, 0}, {7, 0, 0}, {3247, 0, 1}}},
		// 253a3c6: {10, 19, 0}, {0, 35, 0}, {0, 25, 0}, {0, 15, 0}, {18900, 22819, 1}
		{2000, [][3]int64{{16, 0, 0}, {11, 0, 0}, {10, 0, 0}, {10, 0, 0}, {21143, 0, 1}}},
	} {
		cfg := testConfig()
		cfg.SmallRows = tc.rows
		pts, err := MeasureUpdates(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(tc.want) {
			t.Fatalf("%d rows: got %d update points, want %d", tc.rows, len(pts), len(tc.want))
		}
		for i, p := range pts {
			if got := [3]int64{p.HashOps, p.Combines, p.Recovers}; got != tc.want[i] {
				t.Errorf("%d rows %s: hash/combine/recover = %v, pinned %v", tc.rows, p.Label, got, tc.want[i])
			}
		}
	}
}
