package costmodel

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Figure is one reproduced plot: an x-axis and one or more named series.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
}

// Series is one curve of a figure.
type Series struct {
	Name string
	Y    []float64
}

// Render writes the figure as an aligned text table.
func (f Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title)
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	widths := make([]int, len(header))
	rows := make([][]string, len(f.X))
	for i := range f.X {
		row := []string{trimFloat(f.X[i])}
		for _, s := range f.Series {
			row = append(row, trimFloat(s.Y[i]))
		}
		rows[i] = row
	}
	for c, h := range header {
		widths[c] = len(h)
		for _, row := range rows {
			if len(row[c]) > widths[c] {
				widths[c] = len(row[c])
			}
		}
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for c, cell := range cells {
			parts[c] = fmt.Sprintf("%*s", widths[c], cell)
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	writeRow(header)
	for _, row := range rows {
		writeRow(row)
	}
	if f.YLabel != "" {
		fmt.Fprintf(w, "(y: %s)\n", f.YLabel)
	}
	fmt.Fprintln(w)
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}

// keySizeSweep is the x-axis of Figures 8–9: log2|K| from 0 to 8.
func keySizeSweep() []int {
	out := make([]int, 9)
	for i := range out {
		out[i] = 1 << i
	}
	return out
}

// Fig8FanOut reproduces Figure 8: index fan-out versus key length for the
// B-tree and the VB-tree.
func Fig8FanOut(base Params) Figure {
	keys := keySizeSweep()
	f := Figure{
		ID:     "F8",
		Title:  "Index Tree Fan-Out versus Key Length",
		XLabel: "log2|K|",
		YLabel: "fan-out",
		Series: []Series{{Name: "B-tree"}, {Name: "VB-tree"}},
	}
	for i, k := range keys {
		p := base
		p.K = k
		f.X = append(f.X, float64(i))
		f.Series[0].Y = append(f.Series[0].Y, float64(p.BTreeFanOut()))
		f.Series[1].Y = append(f.Series[1].Y, float64(p.VBTreeFanOut()))
	}
	return f
}

// Fig9Height reproduces Figure 9: index tree height versus key length.
func Fig9Height(base Params) Figure {
	keys := keySizeSweep()
	f := Figure{
		ID:     "F9",
		Title:  "Index Tree Height versus Key Length",
		XLabel: "log2|K|",
		YLabel: "height (levels)",
		Series: []Series{{Name: "B-tree"}, {Name: "VB-tree"}},
	}
	for i, k := range keys {
		p := base
		p.K = k
		f.X = append(f.X, float64(i))
		f.Series[0].Y = append(f.Series[0].Y, float64(p.BTreeHeight()))
		f.Series[1].Y = append(f.Series[1].Y, float64(p.VBTreeHeight()))
	}
	return f
}

// selectivitySweep is the x-axis of Figures 10 and 12.
func selectivitySweep() []float64 {
	out := []float64{1}
	for s := 10.0; s <= 100; s += 10 {
		out = append(out, s)
	}
	return out
}

// Fig10Communication reproduces Figure 10(a)–(c): communication cost
// versus selectivity for Q_C ∈ {2, 5, 8}.
func Fig10Communication(base Params, qc int) Figure {
	p := base
	p.QC = qc
	f := Figure{
		ID:     fmt.Sprintf("F10(Qc=%d)", qc),
		Title:  fmt.Sprintf("Query Communication Cost, Qc = %d", qc),
		XLabel: "selectivity%",
		YLabel: "bytes",
		Series: []Series{{Name: "Naive"}, {Name: "VB-tree"}},
	}
	for _, sel := range selectivitySweep() {
		qr := p.QRForSelectivity(sel)
		f.X = append(f.X, sel)
		f.Series[0].Y = append(f.Series[0].Y, float64(p.CommNaive(qr)))
		f.Series[1].Y = append(f.Series[1].Y, float64(p.CommVB(qr)))
	}
	return f
}

// Fig11AttrFactor reproduces Figure 11: communication cost versus
// attribute size |A| = |D| · 2^f for f = 0..6, at 20% and 80% selectivity.
func Fig11AttrFactor(base Params) Figure {
	f := Figure{
		ID:     "F11",
		Title:  "Communication Cost versus Attribute Size (|A| = |D|·2^f)",
		XLabel: "attrFactor",
		YLabel: "bytes",
		Series: []Series{
			{Name: "Naive(20%)"}, {Name: "Naive(80%)"},
			{Name: "VB-tree(20%)"}, {Name: "VB-tree(80%)"},
		},
	}
	for fac := 0; fac <= 6; fac++ {
		p := base
		p.AttrSize = p.D * (1 << fac)
		f.X = append(f.X, float64(fac))
		for si, sel := range []float64{20, 80} {
			qr := p.QRForSelectivity(sel)
			f.Series[si].Y = append(f.Series[si].Y, float64(p.CommNaive(qr)))
			f.Series[2+si].Y = append(f.Series[2+si].Y, float64(p.CommVB(qr)))
		}
	}
	return f
}

// Fig12Computation reproduces Figure 12(a)–(c): client computation cost in
// units of Cost_h versus selectivity, for X ∈ {5, 10, 100}.
func Fig12Computation(base Params, x float64) Figure {
	p := base
	p.X = x
	f := Figure{
		ID:     fmt.Sprintf("F12(X=%g)", x),
		Title:  fmt.Sprintf("Query Computation Cost, X = %g", x),
		XLabel: "selectivity%",
		YLabel: "Cost_h units",
		Series: []Series{{Name: "Naive"}, {Name: "VB-tree"}},
	}
	for _, sel := range selectivitySweep() {
		qr := p.QRForSelectivity(sel)
		f.X = append(f.X, sel)
		f.Series[0].Y = append(f.Series[0].Y, p.CompNaive(qr))
		f.Series[1].Y = append(f.Series[1].Y, p.CompVB(qr))
	}
	return f
}

// Fig13aCostK reproduces Figure 13(a): computation cost versus
// Cost_k/Cost_h ∈ [0, 3] at X = 10.
func Fig13aCostK(base Params) Figure {
	p := base
	p.X = 10
	f := Figure{
		ID:     "F13a",
		Title:  "Computation Cost versus Cost_k/Cost_h (X = 10)",
		XLabel: "Cost_k/Cost_h",
		YLabel: "Cost_h units",
		Series: []Series{
			{Name: "Naive(20%)"}, {Name: "Naive(80%)"},
			{Name: "VB-tree(20%)"}, {Name: "VB-tree(80%)"},
		},
	}
	for r := 0.0; r <= 3.0001; r += 0.5 {
		q := p
		q.CostK = r * q.CostH
		f.X = append(f.X, r)
		for si, sel := range []float64{20, 80} {
			qr := q.QRForSelectivity(sel)
			f.Series[si].Y = append(f.Series[si].Y, q.CompNaive(qr))
			f.Series[2+si].Y = append(f.Series[2+si].Y, q.CompVB(qr))
		}
	}
	return f
}

// Fig13bQc reproduces Figure 13(b): computation cost versus Q_C = 0..10 at
// X = 10.
func Fig13bQc(base Params) Figure {
	p := base
	p.X = 10
	f := Figure{
		ID:     "F13b",
		Title:  "Computation Cost versus Qc (X = 10)",
		XLabel: "Qc",
		YLabel: "Cost_h units",
		Series: []Series{
			{Name: "Naive(20%)"}, {Name: "Naive(80%)"},
			{Name: "VB-tree(20%)"}, {Name: "VB-tree(80%)"},
		},
	}
	for qc := 0; qc <= p.NC; qc++ {
		q := p
		q.QC = qc
		f.X = append(f.X, float64(qc))
		for si, sel := range []float64{20, 80} {
			qr := q.QRForSelectivity(sel)
			f.Series[si].Y = append(f.Series[si].Y, q.CompNaive(qr))
			f.Series[2+si].Y = append(f.Series[2+si].Y, q.CompVB(qr))
		}
	}
	return f
}

// UpdateInsertCost reproduces the §4.4 insert analysis: cost versus table
// size (the height term grows logarithmically).
func UpdateInsertCost(base Params) Figure {
	f := Figure{
		ID:     "UPD-I",
		Title:  "Insert Cost versus Table Size (formula 11)",
		XLabel: "log10 N_R",
		YLabel: "Cost_h units",
		Series: []Series{{Name: "VB-tree insert"}},
	}
	for e := 3; e <= 8; e++ {
		p := base
		p.NR = int(math.Pow(10, float64(e)))
		f.X = append(f.X, float64(e))
		f.Series[0].Y = append(f.Series[0].Y, p.InsertCost())
	}
	return f
}

// UpdateDeleteCost reproduces the §4.4 delete analysis: cost versus the
// number of deleted tuples (formula 12).
func UpdateDeleteCost(base Params) Figure {
	f := Figure{
		ID:     "UPD-D",
		Title:  "Delete Cost versus Deleted Tuples (formula 12)",
		XLabel: "log10 q_r",
		YLabel: "Cost_h units",
		Series: []Series{{Name: "VB-tree delete"}},
	}
	for e := 0; e <= 6; e++ {
		qr := int(math.Pow(10, float64(e)))
		f.X = append(f.X, float64(e))
		f.Series[0].Y = append(f.Series[0].Y, base.DeleteCost(qr))
	}
	return f
}

// ShardedUpdateCost extends the §4.4 insert analysis (formula 11) to a
// table range-partitioned into n independently-signed VB-tree shards.
// Two effects move the cost:
//
//   - The recombine path shortens: a shard holds N_R/n tuples, so the
//     height term of formula (11) becomes H_VB(N_R/n).
//   - The signature generations — the cost the paper's formula folds
//     into the combine terms but which dominate wall-clock in practice
//     (Cost_s ≈ 10000×Cost_h for signing, per the paper's §2 citation) —
//     stop serializing on one root. For a batch of B inserts spread
//     across the shards, each shard re-signs its B/n dirtied leaves plus
//     its root path once, concurrently with every other shard.
//
// The figure plots, per batch of B inserts versus shard count: the total
// signing work (grows mildly, +n·H_VB(N_R/n) root paths) and the signing
// critical path with ≥n cores (drops roughly as 1/n) — the analytic
// counterpart of the central's sharded ApplyBatch. Signing cost is taken as
// 10000·Cost_h per re-signed node, batch size B = 256.
func ShardedUpdateCost(base Params) Figure {
	const (
		batch    = 256
		signCost = 10_000 // Cost_s/Cost_h for signature generation (§2)
	)
	f := Figure{
		ID:     "UPD-S",
		Title:  "Sharded Insert Cost per 256-Batch versus Shard Count (formula 11 extended)",
		XLabel: "shards",
		YLabel: "Cost_h units",
		Series: []Series{
			{Name: "signing work (total)"},
			{Name: "signing critical path (>=n cores)"},
			{Name: "recombine path (formula 11 height term)"},
		},
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32} {
		p := base
		p.NR = base.NR / n
		if p.NR < 1 {
			p.NR = 1
		}
		h := float64(p.VBTreeHeight())
		perShard := (float64(batch)/float64(n) + h) * signCost * base.CostH
		total := perShard * float64(n)
		f.X = append(f.X, float64(n))
		f.Series[0].Y = append(f.Series[0].Y, total)
		f.Series[1].Y = append(f.Series[1].Y, perShard)
		f.Series[2].Y = append(f.Series[2].Y, float64(batch)*(float64(base.NC)*(base.CostH+base.CostK)+h*base.CostK))
	}
	return f
}

// AllFigures returns every analytic figure at the given base parameters.
func AllFigures(base Params) []Figure {
	return []Figure{
		Fig8FanOut(base),
		Fig9Height(base),
		Fig10Communication(base, 2),
		Fig10Communication(base, 5),
		Fig10Communication(base, 8),
		Fig11AttrFactor(base),
		Fig12Computation(base, 5),
		Fig12Computation(base, 10),
		Fig12Computation(base, 100),
		Fig13aCostK(base),
		Fig13bQc(base),
		UpdateInsertCost(base),
		UpdateDeleteCost(base),
		ShardedUpdateCost(base),
	}
}

// RenderTable1 prints the parameter defaults (Table 1).
func RenderTable1(w io.Writer, p Params) {
	fmt.Fprintln(w, "== T1: Parameters (Table 1) ==")
	rows := [][2]string{
		{"|D| signed digest length (bytes)", fmt.Sprint(p.D)},
		{"|K| search key length (bytes)", fmt.Sprint(p.K)},
		{"|P| node pointer length (bytes)", fmt.Sprint(p.P)},
		{"|B| block/node size (bytes)", fmt.Sprint(p.B)},
		{"N_R tuples in table", fmt.Sprint(p.NR)},
		{"N_C attributes per tuple", fmt.Sprint(p.NC)},
		{"Q_C attributes in result", fmt.Sprint(p.QC)},
		{"|A| attribute size (bytes)", fmt.Sprint(p.AttrSize)},
		{"Cost_h attribute hash cost", trimFloat(p.CostH)},
		{"Cost_k digest combine cost", trimFloat(p.CostK)},
		{"X = Cost_s/Cost_h ratio", trimFloat(p.X)},
		{"F_B B-tree fan-out (derived)", fmt.Sprint(p.BTreeFanOut())},
		{"F_VB VB-tree fan-out (formula 6)", fmt.Sprint(p.VBTreeFanOut())},
		{"H_VB VB-tree height (formula 7)", fmt.Sprint(p.VBTreeHeight())},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %s\n", r[0], r[1])
	}
	fmt.Fprintln(w)
}
