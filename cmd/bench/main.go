// Command bench regenerates every table and figure of the paper's
// evaluation (§4): the analytic cost model at the paper's exact defaults
// (Table 1, N_R = 1M), and the measured series from the live
// implementation at laptop scale. Output is aligned text tables, one block
// per experiment, with paper-model and measured blocks adjacent so the
// shapes can be compared directly.
//
// Usage:
//
//	bench                  # everything
//	bench -exp F10,F12     # selected experiments
//	bench -rows 20000      # larger measured tables
//	bench -model-only      # skip the measured runs (instant)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"edgeauth/internal/costmodel"
	"edgeauth/internal/experiments"
)

func main() {
	var (
		expList   = flag.String("exp", "all", "comma-separated experiment ids (T1,F8,F9,F10,F11,F12,F13,UPD) or 'all'")
		rows      = flag.Int("rows", 10_000, "measured table size")
		smallRows = flag.Int("small", 2_000, "measured table size for per-point rebuilds")
		keyBits   = flag.Int("keybits", 512, "RSA signing key size for measured runs")
		modelOnly = flag.Bool("model-only", false, "print only the analytic model (no measured runs)")
	)
	flag.Parse()

	want := map[string]bool{}
	for _, e := range strings.Split(*expList, ",") {
		want[strings.ToUpper(strings.TrimSpace(e))] = true
	}
	sel := func(id string) bool { return want["ALL"] || want[id] }

	params := costmodel.Default()
	out := os.Stdout

	fmt.Fprintln(out, "=== Analytic model (paper Table 1 defaults, N_R = 1,000,000) ===")
	fmt.Fprintln(out)
	if sel("T1") {
		costmodel.RenderTable1(out, params)
	}
	if sel("F8") {
		costmodel.Fig8FanOut(params).Render(out)
	}
	if sel("F9") {
		costmodel.Fig9Height(params).Render(out)
	}
	if sel("F10") {
		for _, qc := range []int{2, 5, 8} {
			costmodel.Fig10Communication(params, qc).Render(out)
		}
	}
	if sel("F11") {
		costmodel.Fig11AttrFactor(params).Render(out)
	}
	if sel("F12") {
		for _, x := range []float64{5, 10, 100} {
			costmodel.Fig12Computation(params, x).Render(out)
		}
	}
	if sel("F13") {
		costmodel.Fig13aCostK(params).Render(out)
		costmodel.Fig13bQc(params).Render(out)
	}
	if sel("UPD") {
		costmodel.UpdateInsertCost(params).Render(out)
		costmodel.UpdateDeleteCost(params).Render(out)
		costmodel.ShardedUpdateCost(params).Render(out)
	}
	if *modelOnly {
		return
	}

	ctx := context.Background()
	cfg := experiments.Config{
		Rows:      *rows,
		SmallRows: *smallRows,
		KeyBits:   *keyBits,
		PageSize:  4096,
		Seed:      42,
	}
	fmt.Fprintf(out, "=== Measured (live implementation: %d rows, %d-bit RSA, 4 KB pages) ===\n\n", cfg.Rows, cfg.KeyBits)
	start := time.Now()
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "built VB-tree + Naive store over %d tuples in %v\n", cfg.Rows, time.Since(start).Round(time.Millisecond))
	if shape, err := env.BuiltShape(); err == nil {
		fmt.Fprintf(out, "tree shape: height=%d leaves=%d internals=%d avg-fanout=%.1f (capacity %d)\n\n",
			shape.Height, shape.LeafNodes, shape.InternalNodes, shape.AvgInternalFanOut, shape.MaxInternalFanOut)
	}

	if sel("F8") {
		env.MeasuredFig8().Render(out)
	}
	if sel("F9") {
		env.MeasuredFig9().Render(out)
	}
	if sel("F10") {
		for _, qc := range []int{2, 5, 8} {
			f, err := env.MeasuredFig10(ctx, qc)
			if err != nil {
				fatal(err)
			}
			f.Render(out)
		}
	}
	if sel("F11") {
		f, err := experiments.MeasuredFig11(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		f.Render(out)
	}
	if sel("F12") {
		for _, x := range []float64{5, 10, 100} {
			f, err := env.MeasuredFig12(ctx, x)
			if err != nil {
				fatal(err)
			}
			f.Render(out)
		}
	}
	if sel("F13") {
		f, err := env.MeasuredFig13a(ctx)
		if err != nil {
			fatal(err)
		}
		f.Render(out)
		f, err = env.MeasuredFig13b(ctx)
		if err != nil {
			fatal(err)
		}
		f.Render(out)
	}
	if sel("UPD") {
		pts, err := experiments.MeasureUpdates(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(out, "== UPD-measured: central-server update costs (op counts) ==")
		fmt.Fprintf(out, "%-40s %10s %10s %10s %12s\n", "operation", "hashes", "combines", "recovers", "wall")
		for _, p := range pts {
			fmt.Fprintf(out, "%-40s %10d %10d %10d %12v\n",
				p.Label, p.HashOps, p.Combines, p.Recovers, p.Wall.Round(time.Microsecond))
		}
		fmt.Fprintln(out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
