package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/handopt"
	"github.com/gotuplex/tuplex/internal/pipelines"
	"github.com/gotuplex/tuplex/internal/spec"
	"github.com/gotuplex/tuplex/internal/trace"
)

// Engine workload sizes. See README.md for how they compare with the
// caches and the ingest chunk size.
const (
	zillowRows  = 150_000 // ~26 MB of CSV
	flightsRows = 30_000  // ~7 MB of CSV (110 columns)
	weblogRows  = 200_000 // ~18 MB of log lines
	// ingestChunk is the streamed-ingest chunk size the plans request,
	// so every input spans several chunks.
	ingestChunk = 1 << 20
	// executors is the engine's worker count: the machine's core count
	// the benchmark is designed for (two).
	executors = 2
	// setupReps is how often set-up runs; setup_s is the median.
	setupReps = 5
	// loadedShare is the share of a run spent with two warm runs in
	// flight at once.
	loadedShare = 0.4
)

// engineWorkload is one in-process pipeline workload: plan JSON →
// spec.Decode → (*spec.Pipeline).Build → core.CompileAndExecute (cold)
// or (*core.CompiledPlan).Execute (warm), collect results boxed with
// rows.Boxer (via spec.ResultRows) as a library caller receives them.
type engineWorkload struct {
	kind string

	plan       []byte
	inputRows  int64
	inputBytes int64
	csvFile    string // largest CSV input, for the standalone csvio pass
	verify     func(res *core.Result, boxed [][]any) error
}

// runOut is one pipeline run's outcome.
type runOut struct {
	res   *core.Result
	cp    *core.CompiledPlan
	boxed [][]any
	dur   time.Duration
	// Durations of the individual calls.
	decode, build, exec, box time.Duration
}

// generate writes the workload's inputs and builds its plan. It returns
// the reference check unevaluated: computing the reference is the
// benchmark's own work and stays out of setup_s.
func (w *engineWorkload) generate(b *bench) (refs func() (func(*core.Result, [][]any) error, error), err error) {
	c := tuplex.NewContext(tuplex.WithExecutors(executors), tuplex.WithChunkSize(ingestChunk))
	w.inputBytes = 0
	write := func(name string, content []byte) (string, error) {
		p := filepath.Join(b.dir, name)
		w.inputBytes += int64(len(content))
		return p, os.WriteFile(p, content, 0o644)
	}
	var plan *tuplex.Plan
	switch w.kind {
	case "zillow-csv":
		raw := data.Zillow(data.ZillowConfig{Rows: zillowRows, Seed: b.seed, DirtyFraction: 0.005})
		path, err := write("zillow.csv", raw)
		if err != nil {
			return nil, err
		}
		p, err := pipelines.Zillow(c.CSV(path)).Plan()
		if err != nil {
			return nil, err
		}
		plan = p.WithCSVSink("")
		w.inputRows, w.csvFile = zillowRows, path
		refs = func() (func(*core.Result, [][]any) error, error) {
			want := handopt.ZillowCSV(raw)
			return func(res *core.Result, _ [][]any) error { return checkZillowCSV(res.CSV, want) }, nil
		}
	case "flights-join":
		perf := data.Flights(data.FlightsConfig{Rows: flightsRows, Seed: b.seed})
		carriers, airports := data.Carriers(), data.Airports()
		pp, err := write("flights.csv", perf)
		if err != nil {
			return nil, err
		}
		cp, err := write("carriers.csv", carriers)
		if err != nil {
			return nil, err
		}
		ap, err := write("airports.txt", airports)
		if err != nil {
			return nil, err
		}
		in := pipelines.FlightsInputs{
			Perf:     c.CSV(pp),
			Carriers: c.CSV(cp),
			Airports: c.CSV(ap, tuplex.CSVHeader(false), tuplex.CSVDelimiter(':'),
				tuplex.CSVColumns(data.AirportColumns...), tuplex.CSVNullValues("", "N/a", "N/A")),
		}
		if plan, err = pipelines.Flights(in).Plan(); err != nil {
			return nil, err
		}
		w.inputRows, w.csvFile = flightsRows, pp
		refs = func() (func(*core.Result, [][]any) error, error) {
			want, err := flightsWant(perf, carriers, airports)
			if err != nil {
				return nil, err
			}
			return func(res *core.Result, boxed [][]any) error {
				got, err := flightsLines(res.Schema.Names(), boxed)
				if err != nil {
					return err
				}
				return checkLines("flights", got, want)
			}, nil
		}
	case "weblogs-text":
		logs, bad := data.Weblogs(data.WeblogConfig{Rows: weblogRows, Seed: b.seed})
		lp, err := write("access.log", logs)
		if err != nil {
			return nil, err
		}
		bp, err := write("bad_ips.csv", bad)
		if err != nil {
			return nil, err
		}
		if plan, err = pipelines.Weblogs(c.Text(lp), c.CSV(bp), pipelines.WeblogStrip).Plan(); err != nil {
			return nil, err
		}
		w.inputRows, w.csvFile = weblogRows, bp
		refs = func() (func(*core.Result, [][]any) error, error) {
			want := weblogWant(handopt.Weblogs(logs, bad, 1))
			return func(res *core.Result, boxed [][]any) error {
				got := make([]string, len(boxed))
				for i, r := range boxed {
					got[i] = weblogLine(r)
				}
				return checkLines("weblogs", got, want)
			}, nil
		}
	default:
		return nil, fmt.Errorf("unknown engine workload %q", w.kind)
	}
	if w.plan, err = plan.MarshalJSON(); err != nil {
		return nil, err
	}
	return refs, nil
}

// timed runs fn inside a span when rec is on and returns its duration.
func timed(rec *recorder, run, parent int, name, layer string, fn func()) (time.Duration, int) {
	t0 := time.Now()
	fn()
	t1 := time.Now()
	return t1.Sub(t0), rec.add(run, parent, name, layer, t0, t1)
}

// cold runs the plan from its JSON, compiling it.
func (w *engineWorkload) cold(ctx context.Context, rec *recorder) (runOut, error) {
	var o runOut
	run := rec.newRun()
	root := rec.open(run, -1, "cold_run", "bench")
	defer rec.close(root)
	t0 := time.Now()
	var p *spec.Pipeline
	var bt *spec.Built
	var err error
	o.decode, _ = timed(rec, run, root, "spec.Decode", "spec", func() { p, err = spec.Decode(w.plan) })
	if err != nil {
		return o, err
	}
	o.build, _ = timed(rec, run, root, "spec.Build", "spec", func() { bt, err = p.Build() })
	if err != nil {
		return o, err
	}
	var sp int
	o.exec, sp = timed(rec, run, root, "core.CompileAndExecute", "core", func() {
		o.res, o.cp, err = core.CompileAndExecute(ctx, bt.Node, bt.Kind, bt.CSVPath, bt.Opts)
	})
	if err != nil {
		return o, err
	}
	rec.importEngine(run, sp, o.res.Trace)
	o.box, _ = timed(rec, run, root, "rows.Boxer", "rows", func() { o.boxed = spec.ResultRows(o.res, -1) })
	o.dur = time.Since(t0)
	return o, nil
}

// warm re-executes a compiled plan.
func (w *engineWorkload) warm(ctx context.Context, rec *recorder, cp *core.CompiledPlan) (runOut, error) {
	var o runOut
	run := rec.newRun()
	root := rec.open(run, -1, "warm_run", "bench")
	defer rec.close(root)
	t0 := time.Now()
	var err error
	var sp int
	o.exec, sp = timed(rec, run, root, "core.CompiledPlan.Execute", "core", func() {
		o.res, err = cp.Execute(ctx, "")
	})
	if err != nil {
		return o, err
	}
	rec.importEngine(run, sp, o.res.Trace)
	o.box, _ = timed(rec, run, root, "rows.Boxer", "rows", func() { o.boxed = spec.ResultRows(o.res, -1) })
	o.dur = time.Since(t0)
	o.cp = cp
	return o, nil
}

func (w *engineWorkload) run(ctx context.Context, b *bench) error {
	// Set-up: generate and write the inputs, build the plan, and run it
	// once cold (the warm-up). Repeated; setup_s is the median.
	var setups []float64
	var refs func() (func(*core.Result, [][]any) error, error)
	var first runOut
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if refs, err = w.generate(b); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if first, err = w.cold(ctx, nil); err != nil {
			return fmt.Errorf("set-up warm-up run: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	verify, err := refs()
	if err != nil {
		return err
	}
	w.verify = verify
	b.rep.Attempted++
	if err := w.verify(first.res, first.boxed); err != nil {
		b.rep.fail(fmt.Errorf("warm-up run: %w", err))
	}
	b.rep.set("setup_s", median(setups), "s").N = len(setups)
	b.rep.note("input: %d rows, %.1f MB over all files", w.inputRows, float64(w.inputBytes)/1e6)
	rssReset := resetPeakRSS()

	if b.traced {
		return w.traced(ctx, b, first.cp)
	}

	// Phase 1: alternate a cold run (what a library script pays) and a
	// warm run of the compiled plan (what a cached service job pays).
	start := time.Now()
	phase1 := start.Add(time.Duration(float64(b.seconds) * (1 - loadedShare)))
	var coldMS, warmMS, rowsPerS []float64
	cp := first.cp
	for n := 0; n == 0 || time.Now().Before(phase1); n++ {
		o, err := w.cold(ctx, nil)
		if w.check(b, o, err) {
			coldMS = append(coldMS, ms(o.dur))
			rowsPerS = append(rowsPerS, float64(w.inputRows)/o.dur.Seconds())
			cp = o.cp
		}
		o, err = w.warm(ctx, nil, cp)
		if w.check(b, o, err) {
			warmMS = append(warmMS, ms(o.dur))
		}
	}

	// Phase 2: two warm runs in flight at once (closed loop), both
	// competing for the two cores.
	end := start.Add(b.seconds)
	var mu sync.Mutex
	var loadedMS []float64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n == 0 || time.Now().Before(end); n++ {
				o, err := w.warm(ctx, nil, cp)
				mu.Lock()
				if w.check(b, o, err) {
					loadedMS = append(loadedMS, ms(o.dur))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	b.rep.set("rows_per_s", median(rowsPerS), "1/s").N = len(rowsPerS)
	b.rep.set("cold_p50_ms", median(coldMS), "ms").N = len(coldMS)
	b.rep.set("warm_p50_ms", median(warmMS), "ms").N = len(warmMS)
	q, v := tail(warmMS)
	m := b.rep.set("warm_p99_ms", v, "ms")
	m.N, m.Pct, m.Comment = len(warmMS), q, "warm-run tail: highest percentile with >=10 samples beyond"
	q, v = tail(loadedMS)
	m = b.rep.set("loaded_warm_p99_ms", v, "ms")
	m.N, m.Pct, m.Comment = len(loadedMS), q, "two warm runs in flight"
	// Two runs are always in flight, so by Little's law throughput is
	// two over the run latency; the median latency keeps the estimate
	// free of the few-completions rounding a count over the phase has.
	m = b.rep.set("max_jobs_per_s", 2*1000/median(loadedMS), "1/s")
	m.N, m.Comment = len(loadedMS), "warm runs per second with two in flight (closed loop): 2 / median latency"
	m = b.rep.set("peak_rss_mb", peakRSSMB(), "MB")
	if !rssReset {
		m.Comment = "peak includes set-up: the kernel refused the peak reset"
	}
	return nil
}

// check counts one run as attempted and verifies its output; a failed
// or wrong run counts as failed.
func (w *engineWorkload) check(b *bench, o runOut, err error) bool {
	b.rep.Attempted++
	if err == nil {
		err = w.verify(o.res, o.boxed)
	}
	if err != nil {
		b.rep.fail(err)
		return false
	}
	return true
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// traced is the per-layer mode: cold/warm pairs alternate between
// recorded (spans on) and unrecorded, so the same invocation also
// measures what recording costs.
func (w *engineWorkload) traced(ctx context.Context, b *bench, cp *core.CompiledPlan) error {
	if err := reportCSVPass(b, w.csvFile, ingestChunk, 3); err != nil {
		return err
	}
	var runs []coldRun
	var mem []runtime.MemStats
	var decode, build, tracedWall, plainWall, warmExec []float64
	end := time.Now().Add(b.seconds)
	var m0, m1 runtime.MemStats
	for i := 0; i < 4 || time.Now().Before(end); i++ {
		rec := b.rec
		if i%2 == 1 {
			rec = nil
		}
		runtime.ReadMemStats(&m0)
		o, err := w.cold(ctx, rec)
		runtime.ReadMemStats(&m1)
		if !w.check(b, o, err) {
			continue
		}
		if rec == nil {
			plainWall = append(plainWall, ms(o.dur))
		} else {
			tracedWall = append(tracedWall, ms(o.dur))
			runs = append(runs, coldRun{res: o.res, exec: o.exec, box: o.box})
			mem = append(mem, memDelta(m0, m1))
			decode = append(decode, ms(o.decode)*1000)
			build = append(build, ms(o.build))
		}
		wo, err := w.warm(ctx, rec, cp)
		if w.check(b, wo, err) && rec != nil {
			warmExec = append(warmExec, ms(wo.exec))
		}
	}
	engineLayerMetrics(b, runs, warmExec)
	runtimeMetrics(b, mem, float64(w.inputRows), len(runs))
	b.rep.set("spec.decode_us", median(decode), "us").N = len(decode)
	b.rep.set("spec.build_ms", median(build), "ms").N = len(build)
	b.rep.set("trace.overhead_ratio", ratio(median(tracedWall), median(plainWall)), "ratio").N = len(tracedWall)
	reportSelf(b, "cold_run")
	return nil
}

// reportSelf turns the recorded spans of the runs rooted at rootName
// into per-layer self times and the unattributed share.
func reportSelf(b *bench, rootName string) {
	perLayer, unattributed, n := b.rec.layerSelf(rootName)
	for _, l := range []string{"spec", "plancheck", "logical", "sample", "codegen", "dataflow", "core",
		"interp", "rows", "service", "http", "loadgen"} {
		b.rep.set("self."+l+"_ms", perLayer[l], "ms").N = n
	}
	m := b.rep.set("trace.unattributed_ratio", median(unattributed), "ratio")
	m.N = n
	outside := 0
	for _, u := range unattributed {
		if u > unattributedTolerance {
			outside++
		}
	}
	m.Comment = fmt.Sprintf("%d of %d runs leave more than %.0f%% of wall time outside layer spans", outside, n, unattributedTolerance*100)
}

// spanDur finds the first span with the given name in a run trace.
func spanDur(tr *trace.Trace, name string) time.Duration {
	if tr == nil || tr.Root == nil {
		return 0
	}
	var find func(s *trace.Span) time.Duration
	find = func(s *trace.Span) time.Duration {
		if s.Name == name {
			return time.Duration(s.DurNS)
		}
		for _, c := range s.Children {
			if d := find(c); d > 0 {
				return d
			}
		}
		return 0
	}
	return find(tr.Root)
}
