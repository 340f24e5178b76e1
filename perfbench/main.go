// Command perfbench is the repository's benchmark. It runs one workload
// per invocation — zillow-csv, flights-join, weblogs-text or
// serve-mixed — for a fixed number of seconds, checks every output
// against an independent reference, and prints its metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the benchmark times each layer from outside (its own spans around the
// layers' public calls, plus the counters and timings the engine
// already reports) and prints the per-layer metrics instead. See
// README.md in this directory for the workloads and the metric map.
//
// Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload zillow-csv --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// e2eMetrics are printed with --trace 0 on every workload, in this
// order. BENCHMARK.json lists the same names. The tail latencies
// (warm_p99_ms, loaded_warm_p99_ms) and serve-mixed's open-loop
// latencies are measured and printed too, but left out of this list:
// on a two-vCPU virtual machine they spread by 30-60% between runs.
var e2eMetrics = []struct{ name, unit string }{
	{"rows_per_s", "1/s"},
	{"cold_p50_ms", "ms"},
	{"warm_p50_ms", "ms"},
	{"max_jobs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// maxStages is how many core.stage<N>_ms metrics exist; flights, the
// deepest plan, has this many stages.
const maxStages = 4

// layerMetrics are printed with --trace 1 on every workload. A layer
// the workload does not exercise reports 0.
func layerMetrics() []struct{ name, unit string } {
	m := []struct{ name, unit string }{
		{"csvio.split_mb_per_s", "MB/s"},
		{"csvio.parse_rows_per_s", "1/s"},
		{"csvio.parse_exc_ratio", "ratio"},
		{"sample.ms", "ms"},
		{"logical.optimize_ms", "ms"},
		{"physical.stages", "count"},
		{"core.compile_ms", "ms"},
		{"core.compile_gap_ms", "ms"},
		{"core.execute_ms", "ms"},
	}
	for i := 0; i < maxStages; i++ {
		m = append(m, struct{ name, unit string }{fmt.Sprintf("core.stage%d_ms", i), "ms"})
	}
	m = append(m, []struct{ name, unit string }{
		{"core.sink_ms", "ms"},
		{"core.columnar_ratio", "ratio"},
		{"core.normal_ratio", "ratio"},
		{"core.fused_passes", "count"},
		{"core.null_elision_ratio", "ratio"},
		{"core.bounced_rows", "count"},
		{"core.join_build_rows", "count"},
		{"core.join_probe_hits", "count"},
		{"core.join_probe_misses", "count"},
		{"core.join_hit_ratio", "ratio"},
		{"core.join_shard_balance", "ratio"},
		{"core.resolve_ms", "ms"},
		{"core.classifier_rejects", "count"},
		{"core.normal_exceptions", "count"},
		{"core.general_resolved", "count"},
		{"core.fallback_resolved", "count"},
		{"core.failed_rows", "count"},
		{"rows.box_ms", "ms"},
		{"runtime.alloc_mb_per_run", "MB"},
		{"runtime.allocs_per_row", "count"},
		{"runtime.gc_cycles_per_run", "count"},
		{"runtime.gc_pause_ms", "ms"},
		{"spec.decode_us", "us"},
		{"spec.fingerprint_us", "us"},
		{"plancheck.check_ms", "ms"},
		{"spec.build_ms", "ms"},
		{"core.warm_execute_ms", "ms"},
		{"service.encode_us", "us"},
		{"service.http_overhead_ms", "ms"},
		{"service.queue_wait_ms", "ms"},
		{"service.cache_hit_ratio", "ratio"},
		{"service.rejected_429", "count"},
		{"service.warm_allocs_per_job", "count"},
		{"loadgen.lag_p99_ms", "ms"},
		{"trace.overhead_ratio", "ratio"},
		{"trace.unattributed_ratio", "ratio"},
		{"trace.timings_gap_ratio", "ratio"},
		{"trace.phase_gap_ratio", "ratio"},
		{"self.spec_ms", "ms"},
		{"self.plancheck_ms", "ms"},
		{"self.logical_ms", "ms"},
		{"self.sample_ms", "ms"},
		{"self.codegen_ms", "ms"},
		{"self.dataflow_ms", "ms"},
		{"self.core_ms", "ms"},
		{"self.interp_ms", "ms"},
		{"self.rows_ms", "ms"},
		{"self.service_ms", "ms"},
		{"self.http_ms", "ms"},
		{"self.loadgen_ms", "ms"},
	}...)
	return m
}

// unattributedTolerance is the share of a run's wall time the layer
// spans may leave uncovered; runs beyond it are counted and reported.
const unattributedTolerance = 0.05

// metric is one reported figure. N is the sample count behind it; a
// tail figure also names its percentile.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	N       int     `json:"n,omitempty"`
	Pct     float64 `json:"percentile,omitempty"`
	Comment string  `json:"comment,omitempty"`
}

// report collects one invocation's outcome.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Traced    bool               `json:"traced"`
	Env       envStamp           `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Invalid   []string           `json:"invalid,omitempty"`
	Metrics   map[string]*metric `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
}

func (r *report) set(name string, v float64, unit string) *metric {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m := &metric{Value: v, Unit: unit}
	r.Metrics[name] = m
	return m
}

// fail counts one failed operation and keeps the first few reasons.
func (r *report) fail(err error) {
	r.Failed++
	if len(r.Problems) < 8 {
		r.Problems = append(r.Problems, err.Error())
	}
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// envStamp identifies the machine and code a result came from.
type envStamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_hash"`
	Seed       uint64 `json:"seed"`
}

func stampEnv(root string, seed uint64) envStamp {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout without version-control metadata is named by its
	// source hash alone.
	commit := "unknown"
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return envStamp{
		CPU: cpu, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, SourceHash: sourceHash(root), Seed: seed,
	}
}

// workload is one benchmark scenario. run fills rep's metrics for the
// selected mode.
type workload interface {
	run(ctx context.Context, b *bench) error
}

// bench carries one invocation's settings and outputs.
type bench struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	dir     string // working directory for generated inputs
	rep     *report
	rec     *recorder // nil unless traced
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "zillow-csv | flights-join | weblogs-text | serve-mixed")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed makes the same inputs")
	seconds := fs.Int("seconds", 20, "measured duration of the run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", ".bench_build", "directory for generated inputs, results and span files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	wls := map[string]func() workload{
		"zillow-csv":   func() workload { return &engineWorkload{kind: "zillow-csv"} },
		"flights-join": func() workload { return &engineWorkload{kind: "flights-join"} },
		"weblogs-text": func() workload { return &engineWorkload{kind: "weblogs-text"} },
		"serve-mixed":  func() workload { return &serveWorkload{} },
	}
	mk, ok := wls[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of zillow-csv, flights-join, weblogs-text, serve-mixed), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir := filepath.Join(*out, "work", fmt.Sprintf("%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	rep := &report{Workload: *name, Seed: *seed, Seconds: *seconds, Traced: *traced == 1,
		Env: stampEnv(root, *seed), Metrics: map[string]*metric{}}
	b := &bench{seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traced == 1, dir: dir, rep: rep}
	if b.traced {
		b.rec = newRecorder()
	}
	// A program that has become pathologically slow must not hold the
	// benchmark past its deadline: give up without printing a result.
	watchdog := time.AfterFunc(b.seconds+150*time.Second, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v; giving up\n", *name, b.seconds+150*time.Second)
		os.Exit(3)
	})
	defer watchdog.Stop()
	if err := mk().run(context.Background(), b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	want := e2eMetrics
	if b.traced {
		want = layerMetrics()
	}
	final := map[string]map[string]any{}
	for _, m := range want {
		got, ok := rep.Metrics[m.name]
		if !ok {
			if !b.traced {
				fmt.Fprintf(os.Stderr, "perfbench: workload %s did not measure %s\n", *name, m.name)
				return 1
			}
			got = rep.set(m.name, 0, m.unit)
			got.Comment = "layer not on this workload's path"
		}
		final[m.name] = map[string]any{"value": got.Value, "unit": m.unit}
	}

	rep.Correct = rep.Failed == 0 && len(rep.Invalid) == 0 && rep.Attempted > 0
	resDir := filepath.Join(*out, "results")
	if err := os.MkdirAll(resDir, 0o755); err == nil {
		base := filepath.Join(resDir, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traced))
		if js, err := json.MarshalIndent(rep, "", "  "); err == nil {
			_ = os.WriteFile(base+".json", js, 0o644) // best effort: the stdout report is authoritative
		}
		if b.traced {
			if err := b.rec.write(base+".spans.json", rep.Env); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			} else {
				rep.note("spans written to %s", base+".spans.json")
			}
		}
	}

	printReport(rep, want)
	line, err := json.Marshal(map[string]any{
		"correct":   rep.Correct,
		"attempted": rep.Attempted,
		"failed":    rep.Failed,
		"metrics":   final,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// printReport writes the human-readable report (everything but the last
// line of standard output).
func printReport(rep *report, want []struct{ name, unit string }) {
	e := rep.Env
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%v\n", rep.Workload, rep.Seed, rep.Seconds, rep.Traced)
	fmt.Printf("env: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s source=%s seed=%d\n",
		e.CPU, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, e.SourceHash, e.Seed)
	fmt.Printf("operations: attempted=%d failed=%d failed_ratio=%.6f\n",
		rep.Attempted, rep.Failed, ratio(float64(rep.Failed), float64(max(rep.Attempted, 1))))
	for _, p := range rep.Problems {
		fmt.Printf("FAILED: %s\n", p)
	}
	for _, p := range rep.Invalid {
		fmt.Printf("INVALID: %s\n", p)
	}
	names := make([]string, 0, len(want))
	for _, m := range want {
		names = append(names, m.name)
	}
	for _, n := range names {
		m := rep.Metrics[n]
		extra := ""
		if m.N > 0 {
			extra = fmt.Sprintf(" n=%d", m.N)
		}
		if m.Pct > 0 {
			extra += fmt.Sprintf(" p%g", m.Pct*100)
		}
		if m.Comment != "" {
			extra += " (" + m.Comment + ")"
		}
		fmt.Printf("  %-28s %14.4f %-6s%s\n", n, m.Value, m.Unit, extra)
	}
	var rest []string
	for n := range rep.Metrics {
		if !contains(names, n) {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	for _, n := range rest {
		m := rep.Metrics[n]
		fmt.Printf("  (extra) %-20s %14.4f %s n=%d\n", n, m.Value, m.Unit, m.N)
	}
	for _, n := range rep.Notes {
		fmt.Printf("note: %s\n", n)
	}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
