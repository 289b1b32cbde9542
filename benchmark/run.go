package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names a metric; the same lists are in BENCHMARK.json.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // share of the baseline it may worsen by; 0 = not gated
}

// endToEnd are the gated metrics: what a client of the system sees, on
// every workload. setup_s is measured by every run.
var endToEnd = []metricDef{
	{"verified_qps", "1/s", "higher", 0.25},
	{"query_p50_us", "us", "lower", 0.25},
	{"vo_bytes_per_query", "bytes", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced pass's metrics. A layer a workload leaves idle
// reports 0.
var perLayer = []metricDef{
	{"client.query_p50_us", "us", "lower", 0},
	{"client.commit_p50_ms", "ms", "lower", 0},
	{"client.visible_p50_ms", "ms", "lower", 0},
	{"rpc.echo_us", "us", "lower", 0},
	{"rpc.call_us", "us", "lower", 0},
	{"rpc.call_self_us", "us", "lower", 0},
	{"rpc.residual_us", "us", "lower", 0},
	{"sum_check.read_ratio", "ratio", "higher", 0},
	{"sum_check.write_ratio", "ratio", "higher", 0},
	{"query.compile_us", "us", "lower", 0},
	{"wire.req_us", "us", "lower", 0},
	{"wire.resp_us", "us", "lower", 0},
	{"wire.resp_bytes", "bytes", "lower", 0},
	{"vo.codec_us", "us", "lower", 0},
	{"edge.query_us", "us", "lower", 0},
	{"edge.query_self_us", "us", "lower", 0},
	{"vbtree.query_us", "us", "lower", 0},
	{"storage.pages_per_query", "count", "lower", 0},
	{"shardmap.verify_us", "us", "lower", 0},
	{"sig.verify_us", "us", "lower", 0},
	{"verify.vo_cold_us", "us", "lower", 0},
	{"verify.vo_warm_us", "us", "lower", 0},
	{"verify.cache_hit_rate", "ratio", "higher", 0},
	{"digest.hash_ops_per_query", "count", "lower", 0},
	{"digest.combine_ops_per_query", "count", "lower", 0},
	{"sig.recover_ops_per_query", "count", "lower", 0},
	{"wire.batch_us", "us", "lower", 0},
	{"central.apply_us", "us", "lower", 0},
	{"central.apply_self_us", "us", "lower", 0},
	{"vbtree.insert_batch_us", "us", "lower", 0},
	{"vbtree.nodes_resigned_per_batch", "count", "lower", 0},
	{"sig.sign_us", "us", "lower", 0},
	{"central.sign_ops_per_batch", "count", "lower", 0},
	{"wal.append_sync_us", "us", "lower", 0},
	{"wal.bytes_per_tuple", "bytes", "lower", 0},
	{"central.group_commit_mean_round", "count", "higher", 0},
	{"central.delta_us", "us", "lower", 0},
	{"wire.delta_bytes_per_tuple", "bytes", "lower", 0},
	{"wire.delta_codec_us", "us", "lower", 0},
	{"edge.refresh_us", "us", "lower", 0},
	{"edge.refresh_self_us", "us", "lower", 0},
	{"edge.delta_share", "ratio", "higher", 0},
	{"edge.sig_cache_hit_rate", "ratio", "higher", 0},
	{"process.peak_rss_mb", "MB", "lower", 0},
	{"process.gc_pause_total_ms", "ms", "lower", 0},
}

// value is one measured metric. N is the sample count behind it, where
// there is one.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better,omitempty"`
	Bound  float64 `json:"bound,omitempty"`
	N      int     `json:"n,omitempty"`
}

// workloadResult is everything one workload's passes measured.
type workloadResult struct {
	Workload    string            `json:"workload"`
	Why         string            `json:"why"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	FailedShare float64           `json:"failed_share"`
	Failures    map[string]int    `json:"failures"`
	FirstError  string            `json:"first_error,omitempty"`
	Canary      string            `json:"tamper_canary"`
	Hung        bool              `json:"hung,omitempty"`
	SumCheck    map[string]string `json:"sum_check,omitempty"`
	EndToEnd    map[string]value  `json:"end_to_end,omitempty"`
	Ungated     map[string]value  `json:"ungated,omitempty"`
	PerLayer    map[string]value  `json:"per_layer,omitempty"`
}

func (r *workloadResult) correct() bool { return r.Failed == 0 && r.Canary == "rejected" }

// checkCanary records whether the client rejected a tampered answer.
func (r *workloadResult) checkCanary(ctx context.Context, d *deployment) {
	r.Canary = "rejected"
	if err := d.tamperCanary(ctx); err != nil {
		r.Canary = err.Error()
	}
}

func (r *workloadResult) absorb(l *opLog) {
	r.Attempted += l.attempted
	r.Failed += l.failures()
	for class, n := range l.failed {
		r.Failures[class] += n
	}
	if r.FirstError == "" && l.firstErr != nil {
		r.FirstError = l.firstErr.Error()
	}
	r.FailedShare = ratio(float64(r.Failed), float64(r.Attempted))
}

// runner carries one invocation's settings.
type runner struct {
	sz      sizes
	seed    int64
	seconds float64
	outDir  string
}

// tmpDir is where WAL directories go: inside the output directory, so the
// benchmark writes nowhere else.
func (rn *runner) tmpDir() (string, error) {
	dir := filepath.Join(rn.outDir, "tmp")
	return dir, os.MkdirAll(dir, 0o755)
}

const (
	// rampSeconds is how long the workload runs unmeasured, at full
	// concurrency, before the measured part.
	rampSeconds = 2
	// baselineSeconds and tracedSeconds cap the two halves of the traced
	// pass, whose length is otherwise set by its operation count.
	baselineSeconds = 5
	tracedSeconds   = 12
)

// deadline is the hard limit of one pass: three times its nominal
// length. A stuck run ends as counted failures, not as a hung pipeline.
func (rn *runner) deadline(nominal float64) time.Duration {
	return time.Duration(3 * nominal * float64(time.Second))
}

// run measures one workload: the timed pass, the traced pass, or both.
func (rn *runner) run(spec workloadSpec, timed, traced bool) *workloadResult {
	res := &workloadResult{Workload: spec.name, Why: spec.why, Failures: make(map[string]int), Canary: "not run"}
	for _, class := range failClasses {
		res.Failures[class] = 0
	}
	guard := func(pass string, nominal float64, fn func(ctx context.Context) error) {
		ctx, cancel := context.WithTimeout(context.Background(), rn.deadline(nominal))
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- fn(ctx) }()
		var err error
		select {
		case err = <-done:
		case <-time.After(rn.deadline(nominal) + 10*time.Second):
			// The pass ignored its cancelled context: give up on it. The
			// process exits non-zero right after, which ends its goroutines.
			err = fmt.Errorf("%s pass hung past its deadline: %w", pass, context.DeadlineExceeded)
			res.Hung = true
		}
		if err != nil {
			res.absorb(&opLog{attempted: 1, failed: map[string]int{classify(err): 1}, firstErr: fmt.Errorf("%s pass: %w", pass, err)})
		}
	}
	// Nominal lengths: the set-ups, the measured part and the canary.
	if timed {
		guard("timed", rn.seconds+rampSeconds+20, func(ctx context.Context) error { return rn.timedPass(ctx, spec, res) })
	}
	if traced {
		guard("traced", baselineSeconds+tracedSeconds+20, func(ctx context.Context) error { return rn.tracedPass(ctx, spec, res) })
	}
	return res
}

// timedPass sets up (several times, for setup_s), runs the measured part
// with tracing off, checks the tamper canary and fills the end-to-end
// and ungated metrics.
func (rn *runner) timedPass(ctx context.Context, spec workloadSpec, res *workloadResult) error {
	tmp, err := rn.tmpDir()
	if err != nil {
		return err
	}
	var setups []float64
	var p *prepared
	for i := 0; i < rn.sz.setupRepeats; i++ {
		if p != nil {
			p.d.close()
		}
		t0 := time.Now()
		if p, err = prepare(ctx, spec, rn.sz, rn.seed, tmp); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer p.d.close()

	// The warm-up ran one operation at a time. Run the workload as it will
	// be measured, all goroutines at once, for a short unmeasured while:
	// the heap, the page stores' free pools and the schedulers settle. Its
	// failures count; its timings do not.
	ramp, _ := runTimed(ctx, p, spec, min(rampSeconds, rn.seconds))
	ramp.queryEnd, ramp.queryNs, ramp.voBytes = nil, nil, nil
	res.absorb(ramp)

	before := snapshotCounters(p.d)
	gc := gcPauses()
	log, elapsed := runTimed(ctx, p, spec, rn.seconds)
	pauseMs, cycles := gc()
	after := snapshotCounters(p.d)
	res.absorb(log)

	res.checkCanary(ctx, p.d)

	lat := toFloats(log.queryNs, 1e3)
	// One slice per measured second, ten at least.
	rates, p50s := log.slices(max(10, int(rn.seconds)))
	res.EndToEnd = map[string]value{
		"verified_qps":       {Value: quantile(rates, 0.75), N: len(lat)},
		"query_p50_us":       {Value: quantile(p50s, 0.25), N: len(lat)},
		"vo_bytes_per_query": {Value: median(log.voBytes), N: len(lat)},
		"setup_s":            {Value: median(setups), N: len(setups)},
	}
	for _, def := range endToEnd {
		v := res.EndToEnd[def.Name]
		v.Unit, v.Better, v.Bound = def.Unit, def.Better, def.Bound
		res.EndToEnd[def.Name] = v
	}

	u := map[string]value{
		"measured_s":                 {Value: elapsed.Seconds(), Unit: "s"},
		"verified_qps_whole_run":     {Value: ratio(float64(len(lat)), elapsed.Seconds()), Unit: "1/s", N: len(lat)},
		"verified_qps_slowest_slice": {Value: quantile(rates, 0), Unit: "1/s", N: len(rates)},
		"verified_qps_fastest_slice": {Value: quantile(rates, 1), Unit: "1/s", N: len(rates)},
		"query_p50_whole_run_us":     {Value: median(lat), Unit: "us", N: len(lat)},
		"vo_bytes_mean":              {Value: mean(log.voBytes), Unit: "bytes", N: len(lat)},
		"process.peak_rss_mb":        {Value: peakRSSMB(), Unit: "MB"},
		"process.gc_pause_total_ms":  {Value: pauseMs, Unit: "ms", N: cycles},
	}
	tail := func(name, unit string, v []float64, q float64) {
		// A percentile is reported only where ten samples lie beyond it.
		if float64(len(v))*(1-q) >= 10 {
			u[name] = value{Value: quantile(v, q), Unit: unit, N: len(v)}
		}
	}
	tail("client.query_p99_us", "us", lat, 0.99)
	tail("client.query_p999_us", "us", lat, 0.999)
	if len(log.commitNs) > 0 {
		commit, visible, late := toFloats(log.commitNs, 1e6), toFloats(log.visibleNs, 1e6), toFloats(log.lateNs, 1e6)
		u["commit_tuples_per_s"] = value{Value: ratio(float64(log.tuples), elapsed.Seconds()), Unit: "1/s", N: len(commit)}
		u["commit_p50_ms"] = value{Value: median(commit), Unit: "ms", N: len(commit)}
		u["visible_p50_ms"] = value{Value: median(visible), Unit: "ms", N: len(visible)}
		tail("client.commit_p99_ms", "ms", commit, 0.99)
		tail("client.visible_p99_ms", "ms", visible, 0.99)
		if spec.period > 0 {
			u["client.writer_late_p50_ms"] = value{Value: median(late), Unit: "ms", N: len(late)}
			u["client.writer_late_max_ms"] = value{Value: quantile(late, 1), Unit: "ms", N: len(late)}
		}
	}
	for name, delta := range counterDeltas(before, after) {
		u[name] = value{Value: delta, Unit: "count"}
	}
	res.Ungated = u
	return nil
}

// tracedPass sets up once, times one client through the real path with
// tracing off (the figure the layers must sum to), then replays the same
// kind of operations through the layer pipeline with spans on.
func (rn *runner) tracedPass(ctx context.Context, spec workloadSpec, res *workloadResult) error {
	tmp, err := rn.tmpDir()
	if err != nil {
		return err
	}
	p, err := prepare(ctx, spec, rn.sz, rn.seed, tmp)
	if err != nil {
		return err
	}
	defer p.d.close()
	d := p.d

	// script plays the pass's operations: reads alone, or write rounds
	// with the workload's reads in between, until the count or the time
	// budget is used up.
	script := func(ops int, budget float64, read func(readOp) error, round func(writeRound) error) error {
		stop := time.Now().Add(time.Duration(budget * float64(time.Second)))
		if p.ws == nil {
			for i := 0; i < ops && time.Now().Before(stop); i++ {
				if err := read(p.streams[0]()); err != nil {
					return err
				}
			}
			return nil
		}
		// A round is seven operations: insert, refresh, read, four deletes.
		rounds := ops / (7 + spec.tracedReadsPerRound)
		for i := 0; i < rounds && time.Now().Before(stop); i++ {
			if err := round(p.ws.next()); err != nil {
				return err
			}
			for j := 0; j < spec.tracedReadsPerRound; j++ {
				if err := read(p.streams[0]()); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// The untraced figure is taken in two halves, before and after the
	// traced operations, and the halves' medians averaged: the host's speed
	// drifts, and a figure from before alone would be compared with spans
	// from another speed.
	baseline := func() *opLog {
		l := &opLog{}
		start := time.Now()
		_ = script(rn.sz.tracedOps/2, min(rn.seconds/4, baselineSeconds/2), // the log carries the failures
			func(op readOp) error { l.read(ctx, d, op, start); return nil },
			func(w writeRound) error { l.round(ctx, d, w, time.Now(), start); return nil })
		res.absorb(l)
		return l
	}
	before := baseline()

	pl, err := newPipeline(ctx, d, p.ws != nil)
	if err != nil {
		return err
	}
	defer pl.close()
	for i := 0; i < 200; i++ {
		// Idle means idle: back-to-back echoes keep every goroutine on the
		// path spinning, and a round trip then costs a tenth of what it
		// costs a request that finds the connection's goroutines parked,
		// as a query does while the edge works.
		time.Sleep(time.Millisecond)
		if err := pl.echo(ctx); err != nil {
			return err
		}
	}
	centralBefore, edgeBefore := d.central.Stats(), d.edge.Stats()
	gc := gcPauses()
	ops := 0
	err = script(rn.sz.tracedOps, min(rn.seconds, tracedSeconds),
		func(op readOp) error { ops++; return pl.read(ctx, op) },
		func(w writeRound) error { ops += 7; return pl.round(ctx, w) })
	res.Attempted += ops
	if err != nil {
		res.absorb(&opLog{failed: map[string]int{classify(err): 1}, firstErr: err})
	}
	pauseMs, _ := gc()
	centralAfter, edgeAfter := d.central.Stats(), d.edge.Stats()
	after := baseline()

	res.checkCanary(ctx, d)
	if err := pl.tr.writeJSONL(filepath.Join(rn.outDir, "trace-"+spec.name+".jsonl")); err != nil {
		return err
	}

	tr := pl.tr
	m := make(map[string]float64)
	for _, stage := range []string{
		"rpc.echo", "rpc.call", "query.compile", "wire.req", "wire.resp", "vo.codec", "edge.query", "vbtree.query",
		"shardmap.verify", "sig.verify", "verify.vo_cold", "verify.vo_warm",
		"wire.batch", "central.apply", "vbtree.insert_batch", "sig.sign", "wal.append_sync",
		"central.delta", "wire.delta_codec", "edge.refresh",
	} {
		m[stage+"_us"] = median(tr.stageUs(stage))
	}
	for _, stage := range []string{"rpc.call", "edge.query", "central.apply", "edge.refresh"} {
		m[stage+"_self_us"] = median(tr.selfUs(stage))
	}

	p50 := func(pick func(*opLog) []int64, div float64) float64 {
		return (median(toFloats(pick(before), div)) + median(toFloats(pick(after), div))) / 2
	}
	m["client.query_p50_us"] = p50(func(l *opLog) []int64 { return l.queryNs }, 1e3)
	m["client.commit_p50_ms"] = p50(func(l *opLog) []int64 { return l.commitNs }, 1e6)
	m["client.visible_p50_ms"] = p50(func(l *opLog) []int64 { return l.visibleNs }, 1e6)

	// The sum checks: the spans on the blocking path of a traced operation
	// must account for what the same operation takes untraced.
	res.SumCheck = make(map[string]string)
	if len(pl.readTraces) > 0 {
		path := median(tr.pathUs(pl.readTraces))
		m["rpc.residual_us"] = m["client.query_p50_us"] - path
		m["sum_check.read_ratio"] = ratio(path, m["client.query_p50_us"])
		res.SumCheck["read"] = sumVerdict(m["sum_check.read_ratio"])
	}
	if len(pl.roundTraces) > 0 {
		// The commit was applied in process: add the round trip it skipped.
		path := median(tr.pathUs(pl.roundTraces)) + m["rpc.echo_us"]
		untraced := 1e3 * (m["client.commit_p50_ms"] + m["client.visible_p50_ms"])
		if len(pl.readTraces) == 0 {
			m["rpc.residual_us"] = untraced - path
		}
		m["sum_check.write_ratio"] = ratio(path, untraced)
		res.SumCheck["write"] = sumVerdict(m["sum_check.write_ratio"])
	}

	m["wire.resp_bytes"] = mean(pl.respBytes)
	m["storage.pages_per_query"] = mean(pl.pagesRead)
	cs := pl.warm.CacheStats()
	m["verify.cache_hit_rate"] = ratio(float64(cs.Hits), float64(cs.Hits+cs.Misses))
	n := float64(len(pl.respBytes)) // one entry per traced read
	m["digest.hash_ops_per_query"] = ratio(float64(pl.ops.HashOps.Load()), n)
	m["digest.combine_ops_per_query"] = ratio(float64(pl.ops.CombineOps.Load()), n)
	m["sig.recover_ops_per_query"] = ratio(float64(pl.ops.RecoverOps.Load()), n)
	m["vbtree.nodes_resigned_per_batch"] = mean(pl.resigned)
	m["central.sign_ops_per_batch"] = mean(pl.signOps)
	m["wal.bytes_per_tuple"] = mean(pl.walBytesPerTuple)
	m["wire.delta_bytes_per_tuple"] = mean(pl.deltaBytesPerTuple)
	m["central.group_commit_mean_round"] = ratio(float64(centralAfter.BatchOps-centralBefore.BatchOps), float64(centralAfter.BatchRounds-centralBefore.BatchRounds))
	m["edge.delta_share"] = ratio(float64(pl.deltaRefresh), float64(pl.refreshes))
	hits, misses := edgeAfter.SigCacheHits-edgeBefore.SigCacheHits, edgeAfter.SigCacheMisses-edgeBefore.SigCacheMisses
	m["edge.sig_cache_hit_rate"] = ratio(float64(hits), float64(hits+misses))
	m["process.peak_rss_mb"] = peakRSSMB()
	m["process.gc_pause_total_ms"] = pauseMs

	res.PerLayer = make(map[string]value, len(perLayer))
	for _, def := range perLayer {
		res.PerLayer[def.Name] = value{Value: m[def.Name], Unit: def.Unit, Better: def.Better}
	}
	return nil
}

// sumVerdict says whether the layers account for the end-to-end figure:
// their sum must land within a quarter of it.
func sumVerdict(r float64) string {
	if r >= 0.75 && r <= 1.25 {
		return fmt.Sprintf("pass (layers sum to %.0f%% of the untraced single-client figure)", 100*r)
	}
	return fmt.Sprintf("FAIL (layers sum to %.0f%% of the untraced single-client figure, want 75-125%%)", 100*r)
}

// counters is a flat snapshot of the three processes' own counters.
type counters map[string]float64

// snapshotCounters flattens central.Stats, edge.Stats and the client's
// verifier cache ledger through their JSON field names.
func snapshotCounters(d *deployment) counters {
	out := make(counters)
	flatten := func(prefix string, stats any) {
		raw, err := json.Marshal(stats)
		if err != nil {
			return // Stats structs are plain numbers and strings
		}
		var fields map[string]any
		if json.Unmarshal(raw, &fields) != nil {
			return
		}
		for k, v := range fields {
			if f, ok := v.(float64); ok {
				out[prefix+k] = f
			}
		}
	}
	flatten("central.", d.central.Stats())
	flatten("edge.", d.edge.Stats())
	cs := d.client.VerifyCacheStats()
	out["client.verify_cache_hits"] = float64(cs.Hits)
	out["client.verify_cache_misses"] = float64(cs.Misses)
	return out
}

// counterDeltas is after-before for every counter that moved. The Stats
// structs also carry ratios; a ratio's difference means nothing and, not
// being whole, is left out.
func counterDeltas(before, after counters) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range after {
		if d := v - before[k]; d != 0 && d == math.Trunc(d) {
			out[k] = d
		}
	}
	return out
}

// gcPauses starts a reading of the collector's stop-the-world time; the
// function it returns gives the pause total in ms and the cycles since.
func gcPauses() func() (ms float64, cycles int) {
	var from runtime.MemStats
	runtime.ReadMemStats(&from)
	return func() (float64, int) {
		var to runtime.MemStats
		runtime.ReadMemStats(&to)
		return float64(to.PauseTotalNs-from.PauseTotalNs) / 1e6, int(to.NumGC - from.NumGC)
	}
}

// peakRSSMB reads the process's peak resident set from /proc; 0 where
// there is no /proc.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
