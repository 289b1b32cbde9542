package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// report is the result file: what ran, on what, and what it measured.
// Two reports are comparable on their face.
type report struct {
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Rows        int     `json:"rows"`
	Nproc       int     `json:"nproc"`
	Gomaxprocs  int     `json:"gomaxprocs"`
	Clients     int     `json:"clients"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	Deployment  string  `json:"deployment"`
	FlushPolicy string  `json:"flush_policy"`

	Workloads []*workloadResult `json:"workloads"`
}

func newReport(rn *runner) *report {
	return &report{
		Seed:        rn.seed,
		Seconds:     rn.seconds,
		Rows:        rn.sz.rows,
		Nproc:       runtime.NumCPU(),
		Gomaxprocs:  runtime.GOMAXPROCS(0),
		Clients:     numClients(),
		GoVersion:   runtime.Version(),
		Commit:      vcsRevision(),
		Deployment:  fmt.Sprintf("central + 1 edge + 1 client in one process over loopback TCP; table %q, %d shards, rsa-merkle, %d-bit key, %d B pages, WAL on", table, numShards, keyBits, pageSize),
		FlushPolicy: flushPolicy,
	}
}

// vcsRevision is the commit the binary was built from, when the build
// saw a repository.
func vcsRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func (r *report) write(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &report{}
	if err := json.Unmarshal(raw, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// printMetrics lists a group of metrics by name, with unit, direction
// and, where gated, the bound.
func printMetrics(w io.Writer, workload, group string, metrics map[string]value) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := metrics[name]
		line := fmt.Sprintf("%-12s %-10s %-34s %14.4f %-6s", workload, group, name, v.Value, v.Unit)
		if v.Better != "" {
			line += " " + v.Better + " is better"
		}
		if v.Bound > 0 {
			line += fmt.Sprintf(", bound %.0f%%", 100*v.Bound)
		}
		if v.N > 0 {
			line += fmt.Sprintf(", n=%d", v.N)
		}
		fmt.Fprintln(w, line)
	}
}

// print writes the human-readable form of one workload's result.
func (r *workloadResult) print(w io.Writer) {
	fmt.Fprintf(w, "%-12s why: %s\n", r.Workload, r.Why)
	printMetrics(w, r.Workload, "end_to_end", r.EndToEnd)
	printMetrics(w, r.Workload, "ungated", r.Ungated)
	printMetrics(w, r.Workload, "per_layer", r.PerLayer)
	for _, k := range []string{"read", "write"} {
		if v, ok := r.SumCheck[k]; ok {
			fmt.Fprintf(w, "%-12s sum_check  %-5s %s\n", r.Workload, k, v)
		}
	}
	fmt.Fprintf(w, "%-12s failed_share %.6f (%d of %d attempted)", r.Workload, r.FailedShare, r.Failed, r.Attempted)
	for _, class := range failClasses {
		fmt.Fprintf(w, " %s=%d", class, r.Failures[class])
	}
	fmt.Fprintf(w, "\n%-12s tamper canary: %s\n", r.Workload, r.Canary)
	if r.FirstError != "" {
		fmt.Fprintf(w, "%-12s first error: %s\n", r.Workload, r.FirstError)
	}
}

// contractLine is the last line the driver reads: correctness, counts,
// and the metrics of the pass it asked for.
func (r *workloadResult) contractLine(timed, traced bool) string {
	type m struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]m)
	if timed {
		for name, v := range r.EndToEnd {
			metrics[name] = m{v.Value, v.Unit}
		}
	}
	if traced {
		for name, v := range r.PerLayer {
			metrics[name] = m{v.Value, v.Unit}
		}
	}
	raw, err := json.Marshal(struct {
		Correct   bool         `json:"correct"`
		Attempted int          `json:"attempted"`
		Failed    int          `json:"failed"`
		Metrics   map[string]m `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(raw)
}

// compare prints, per workload and end-to-end metric, both values, the
// relative change of b against a (positive = worse) and the metric's
// bound, and reports whether every pair is within its bound.
func compare(w io.Writer, a, b *report) bool {
	fmt.Fprintf(w, "A: seed %d, %g s, %d rows, nproc %d, GOMAXPROCS %d, %s, commit %s\n", a.Seed, a.Seconds, a.Rows, a.Nproc, a.Gomaxprocs, a.GoVersion, a.Commit)
	fmt.Fprintf(w, "B: seed %d, %g s, %d rows, nproc %d, GOMAXPROCS %d, %s, commit %s\n", b.Seed, b.Seconds, b.Rows, b.Nproc, b.Gomaxprocs, b.GoVersion, b.Commit)
	ok := true
	byName := make(map[string]*workloadResult)
	for _, wr := range b.Workloads {
		byName[wr.Workload] = wr
	}
	for _, wa := range a.Workloads {
		wb := byName[wa.Workload]
		if wb == nil {
			fmt.Fprintf(w, "%-12s missing from B: outside\n", wa.Workload)
			ok = false
			continue
		}
		for _, def := range endToEnd {
			va, vb := wa.EndToEnd[def.Name].Value, wb.EndToEnd[def.Name].Value
			worse := ratio(vb-va, va)
			if def.Better == "higher" {
				worse = -worse
			}
			verdict := "within"
			if va == 0 || worse > def.Bound {
				verdict, ok = "outside", false
			}
			fmt.Fprintf(w, "%-12s %-20s A %14.4f  B %14.4f %-6s worse by %+7.2f%%  bound %4.0f%%  %s\n",
				wa.Workload, def.Name, va, vb, def.Unit, 100*worse, 100*def.Bound, verdict)
		}
		verdict := "within"
		if wb.FailedShare > wa.FailedShare || wb.Canary != "rejected" {
			verdict, ok = "outside", false
		}
		fmt.Fprintf(w, "%-12s %-20s A %14.6f  B %14.6f %-6s must not rise%22s  %s\n",
			wa.Workload, "failed_share", wa.FailedShare, wb.FailedShare, "share", "", verdict)
	}
	return ok
}
