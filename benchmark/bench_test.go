package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// opStream renders the first operations of every stream of a seed as
// text, so two seeds' streams can be compared byte for byte.
func opStream(seed int64) []byte {
	var buf bytes.Buffer
	g := newGenerator(seed, smokeSizes.rows)
	for n := 0; n < 2; n++ {
		ps, rs := g.pointStream(n), g.rangeStream(n)
		for i := 0; i < 200; i++ {
			p, r := ps(), rs()
			fmt.Fprintf(&buf, "point %d %d\nrange %d %d %d %v\n", n, p.lo, n, r.lo, r.hi, r.project)
		}
	}
	ws := g.writeStream(16)
	for i := 0; i < deleteLag+20; i++ {
		w := ws.next()
		fmt.Fprintf(&buf, "round %d insert %v delete %v\n", i, w.insert, w.delete)
	}
	_, tuples, err := g.tuples()
	if err != nil {
		panic(err)
	}
	for _, t := range tuples[:50] {
		fmt.Fprintln(&buf, t)
	}
	return buf.Bytes()
}

func TestGeneratorIsDeterministic(t *testing.T) {
	a, b, c := opStream(7), opStream(7), opStream(8)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave two different operation streams")
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 7 and 8 gave the same operation stream")
	}
}

func TestWriteStreamNeverReusesALiveGap(t *testing.T) {
	ws := newGenerator(3, smokeSizes.rows).writeStream(16)
	live := make(map[int64]bool)
	for i := 0; i < 1000; i++ {
		w := ws.next()
		for _, r := range w.delete {
			delete(live, r.lo)
		}
		for s, r := range w.insert {
			if live[r.lo] {
				t.Fatalf("round %d inserts into the live gap at %d", i, r.lo)
			}
			live[r.lo] = true
			per := int64(smokeSizes.rows / numShards)
			if got := r.lo / keyStride / per; got != int64(s) {
				t.Fatalf("round %d run %d landed in shard range %d", i, s, got)
			}
		}
		if want := min(i+1, deleteLag) * numShards; len(live) != want {
			t.Fatalf("round %d: %d live runs, want %d", i, len(live), want)
		}
	}
}

func TestOracle(t *testing.T) {
	o := newOracle(100)
	o.inserted([]run{{lo: rowKey(3) + 1, n: 4}})
	for _, tc := range []struct {
		lo, hi      int64
		n           int
		first, last int64
	}{
		{rowKey(5), rowKey(5), 1, rowKey(5), rowKey(5)},
		{rowKey(5) + 1, rowKey(6) - 1, 0, 0, 0},
		{rowKey(2), rowKey(4), 7, rowKey(2), rowKey(4)},
		{rowKey(3) + 2, rowKey(3) + 9, 3, rowKey(3) + 2, rowKey(3) + 4},
		{-50, rowKey(0), 1, 0, 0},
		{rowKey(98), rowKey(200), 2, rowKey(98), rowKey(99)},
	} {
		n, first, last := o.expect(tc.lo, tc.hi)
		if n != tc.n || (n > 0 && (first != tc.first || last != tc.last)) {
			t.Errorf("expect(%d,%d) = %d rows %d..%d, want %d rows %d..%d", tc.lo, tc.hi, n, first, last, tc.n, tc.first, tc.last)
		}
	}
	o.deleted([]run{{lo: rowKey(3) + 1, n: 4}})
	if n, _, _ := o.expect(rowKey(2), rowKey(4)); n != 3 {
		t.Errorf("after the delete the range holds %d rows, want 3", n)
	}
}

// TestSmoke runs every workload, both passes, at the smoke size: every
// metric BENCHMARK.json promises is printed, no operation fails, every
// tamper canary is rejected and every trace file is written.
func TestSmoke(t *testing.T) {
	rn := &runner{sz: smokeSizes, seed: 5, seconds: 0.3, outDir: t.TempDir()}
	for _, spec := range workloads {
		res := rn.run(spec, true, true)
		if !res.correct() {
			t.Errorf("%s: failed %d of %d (%v), canary %q, first error %s", spec.name, res.Failed, res.Attempted, res.Failures, res.Canary, res.FirstError)
			continue
		}
		for _, def := range endToEnd {
			if v := res.EndToEnd[def.Name]; v.Value <= 0 || v.Unit != def.Unit {
				t.Errorf("%s: end-to-end metric %s = %v %q, want a positive value in %s", spec.name, def.Name, v.Value, v.Unit, def.Unit)
			}
		}
		for _, def := range perLayer {
			if _, ok := res.PerLayer[def.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", spec.name, def.Name)
			}
		}
		if spec.runLen > 0 {
			for _, name := range []string{"central.apply_us", "wal.append_sync_us", "vbtree.insert_batch_us", "edge.refresh_us", "central.delta_us"} {
				if res.PerLayer[name].Value <= 0 {
					t.Errorf("%s: %s = %v, want it measured", spec.name, name, res.PerLayer[name].Value)
				}
			}
			if res.Ungated["commit_p50_ms"].Value <= 0 || res.Ungated["visible_p50_ms"].Value <= 0 {
				t.Errorf("%s: commit and visible latencies not measured: %v", spec.name, res.Ungated)
			}
		}
		if res.PerLayer["rpc.call_us"].Value <= 0 || res.PerLayer["verify.vo_warm_us"].Value <= 0 {
			t.Errorf("%s: the read path was not traced: %v", spec.name, res.PerLayer)
		}
		trace, err := os.ReadFile(filepath.Join(rn.outDir, "trace-"+spec.name+".jsonl"))
		if err != nil {
			t.Errorf("%s: %v", spec.name, err)
			continue
		}
		var first span
		line, _, _ := bytes.Cut(trace, []byte("\n"))
		if err := json.Unmarshal(line, &first); err != nil || first.Name == "" || first.EndNs < first.StartNs {
			t.Errorf("%s: first trace line %q does not parse as a span: %v", spec.name, line, err)
		}
		var line0 struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(res.contractLine(true, false)), &line0); err != nil {
			t.Fatal(err)
		}
		if !line0.Correct || line0.Attempted < 1 || line0.Failed != 0 || len(line0.Metrics) != len(endToEnd) {
			t.Errorf("%s: result line for -trace 0 is %+v", spec.name, line0)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(rn.outDir, "tmp", "*")); len(left) != 0 {
		t.Errorf("WAL directories left behind: %v", left)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, at the root of the repo,
// and the lists in run.go and workload.go the same.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json is not beside this directory:", err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %s", i, decl.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) || len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the benchmark %d and %d",
			len(decl.EndToEnd), len(decl.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, def := range endToEnd {
		if got := decl.EndToEnd[i]; got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better || got.Bound != def.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, def)
		}
	}
	for i, def := range perLayer {
		if got := decl.PerLayer[i]; got.Name != def.Name || got.Unit != def.Unit || got.Better != def.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, def)
		}
	}
}

func TestCompare(t *testing.T) {
	mk := func(qps, failed float64) *report {
		e := map[string]value{}
		for _, def := range endToEnd {
			e[def.Name] = value{Value: 100, Unit: def.Unit}
		}
		e["verified_qps"] = value{Value: qps, Unit: "1/s"}
		return &report{Workloads: []*workloadResult{{Workload: "read.point", EndToEnd: e, FailedShare: failed, Canary: "rejected"}}}
	}
	var out bytes.Buffer
	bound := 100 * endToEnd[0].Bound // of verified_qps, in percent
	if !compare(&out, mk(100, 0), mk(100-bound/2, 0)) {
		t.Errorf("verified reads fewer by half the bound are within it:\n%s", out.String())
	}
	if compare(&out, mk(100, 0), mk(100-bound*1.5, 0)) {
		t.Error("verified reads fewer by one and a half times the bound are outside it")
	}
	if compare(&out, mk(100, 0), mk(100, 0.01)) {
		t.Error("a risen failed share is outside")
	}
	if !strings.Contains(out.String(), "outside") || !strings.Contains(out.String(), "within") {
		t.Errorf("compare prints a verdict per metric:\n%s", out.String())
	}
}
