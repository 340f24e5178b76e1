// Package core is Tuplex's execution engine: it samples inputs, compiles
// each stage's three code paths (normal / general / fallback), runs
// partitions across a pool of executor threads, collects exception rows
// post-facto, resolves them through the slower paths and user resolvers,
// and merges results in input order (§4.3–§4.6).
//
// The three paths and their engines:
//
//   - normal case:   internal/codegen — unboxed slot closures, return-code
//     exceptions ("LLVM fast path");
//   - general case:  internal/interp.Compiled — closure-compiled over
//     boxed values with the most general (Option) column types;
//   - fallback:      internal/interp tree-walking — the "Python
//     interpreter", always able to run any supported UDF.
package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gotuplex/tuplex/internal/codegen"
	"github.com/gotuplex/tuplex/internal/csvio"
	"github.com/gotuplex/tuplex/internal/logical"
	"github.com/gotuplex/tuplex/internal/metrics"
	"github.com/gotuplex/tuplex/internal/physical"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/sample"
	"github.com/gotuplex/tuplex/internal/telemetry"
	"github.com/gotuplex/tuplex/internal/trace"
	"github.com/gotuplex/tuplex/internal/types"
)

// Options configures one execution.
type Options struct {
	// Executors is the worker-thread count (the paper's per-server
	// executor threads).
	Executors int
	// PartitionRows caps rows per partition task.
	PartitionRows int
	// Sample configures normal-case detection.
	Sample sample.Config
	// Logical toggles the planner rewrites.
	Logical logical.Options
	// Fusion keeps stages maximal (§6.3.2 ablation when false).
	Fusion bool
	// Codegen configures fast-path generation.
	Codegen codegen.Options
	// Seed seeds per-task PRNGs (random.choice reproducibility).
	Seed uint64
	// Streaming enables chunked pipelined ingest for file-backed sources
	// (§4.4): disk I/O, record splitting, parsing and UDF execution
	// overlap instead of materializing the whole input up front.
	Streaming bool
	// ChunkSize is the streamed ingest chunk size in bytes (0 uses
	// csvio.DefaultChunkSize).
	ChunkSize int
	// Trace selects the run's observability level (internal/trace). The
	// default, trace.LevelSpans, records the span tree and per-task
	// timings with zero per-row overhead; trace.LevelOff disables the
	// tracer entirely.
	Trace trace.Level
	// Telemetry configures live monitoring (internal/telemetry). Off by
	// default; also forced on while an introspection server is active in
	// the process (telemetry.AutoEnabled).
	Telemetry telemetry.Config
	// Validate runs the whole-plan static verifier at each DataSet
	// operator chain step, failing construction on error-severity
	// findings (internal/plancheck; off by default).
	Validate bool
}

// DefaultOptions returns the fully-optimized single-threaded setup.
func DefaultOptions() Options {
	return Options{
		Executors:     1,
		PartitionRows: 1 << 16,
		Logical:       logical.AllOptimizations(),
		Fusion:        true,
		Codegen:       codegen.DefaultOptions(),
		Seed:          0x745,
		Streaming:     true,
		ChunkSize:     csvio.DefaultChunkSize,
		Trace:         trace.LevelSpans,
	}
}

func (o Options) withDefaults() Options {
	if o.Executors <= 0 {
		o.Executors = 1
	}
	if o.PartitionRows <= 0 {
		o.PartitionRows = 1 << 16
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = csvio.DefaultChunkSize
	}
	return o
}

// SinkKind selects the pipeline output form.
type SinkKind uint8

const (
	// SinkCollect returns boxed rows in the Result.
	SinkCollect SinkKind = iota
	// SinkCSV renders CSV bytes (and optionally writes them to a path).
	SinkCSV
)

// FailedRow describes an input row no path could process (§3: reported
// to the user, never crashing the pipeline).
type FailedRow struct {
	Exc   pyvalue.ExcKind
	Msg   string
	Input string
}

// Result is the outcome of one pipeline execution.
type Result struct {
	Schema *types.Schema
	// Rows holds boxed output rows. Only aggregate results populate it;
	// collect sinks return SlotRows and leave boxing to the caller.
	Rows [][]pyvalue.Value
	// SlotRows holds collect-sink output as unboxed slot rows in input
	// order; callers box lazily (slab boxing in the public API avoids
	// the per-cell interface allocations a [][]pyvalue.Value forces).
	SlotRows []rows.Row
	CSV      []byte
	Failed   []FailedRow
	Metrics  *metrics.Metrics
	// Trace is the run's observability trace (nil when Options.Trace is
	// trace.LevelOff).
	Trace *trace.Trace
	// Warnings carries advisory messages (e.g. the §7 all-exceptions
	// sample warning).
	Warnings []string
}

// ErrCanceled reports that an execution stopped because its context was
// canceled or its deadline expired. Errors returned by the context-aware
// entry points wrap it, so callers test with errors.Is(err, ErrCanceled).
var ErrCanceled = errors.New("execution canceled")

// Execute runs the plan rooted at sink.
func Execute(sinkNode *logical.Node, kind SinkKind, csvPath string, opts Options) (*Result, error) {
	return ExecuteContext(context.Background(), sinkNode, kind, csvPath, opts)
}

// ExecuteContext runs the plan rooted at sink under ctx. Cancellation is
// observed at chunk/task boundaries (never per row), so a canceled run
// stops within one partition's worth of work and returns an error
// wrapping ErrCanceled.
func ExecuteContext(ctx context.Context, sinkNode *logical.Node, kind SinkKind, csvPath string, opts Options) (*Result, error) {
	res, _, err := executeWith(ctx, sinkNode, kind, csvPath, opts, false)
	return res, err
}

// CompileAndExecute runs the plan like ExecuteContext and additionally
// captures the compiled stages into a CompiledPlan: the sampled normal
// case, the compiled UDFs, the batch plans and the join build
// tables survive the run and can be re-executed against fresh inputs
// with (*CompiledPlan).Execute, skipping sampling and compilation.
func CompileAndExecute(ctx context.Context, sinkNode *logical.Node, kind SinkKind, csvPath string, opts Options) (*Result, *CompiledPlan, error) {
	return executeWith(ctx, sinkNode, kind, csvPath, opts, true)
}

func executeWith(ctx context.Context, sinkNode *logical.Node, kind SinkKind, csvPath string, opts Options, capture bool) (*Result, *CompiledPlan, error) {
	opts = opts.withDefaults()
	res := &Result{Metrics: &metrics.Metrics{}}
	t0 := time.Now()
	eng := &engine{ctx: ctx, opts: opts, res: res, sink: kind, tr: trace.New(opts.Trace), capture: capture}
	// Live monitoring: only when opted in (or an introspection server is
	// up) does a RunMonitor exist — with mon nil every hook below is a
	// nil-receiver no-op and the execution path is the unmonitored one.
	if opts.Telemetry.Enabled || telemetry.AutoEnabled() {
		eng.mon = telemetry.NewRunMonitor(opts.Telemetry, res.Metrics, opts.Executors)
		telemetry.Default.Register(eng.mon)
		eng.mon.Start()
		defer func() {
			eng.mon.Stop()
			telemetry.Default.Unregister(eng.mon)
		}()
	}

	tOpt := time.Now()
	plan := sinkNode
	var err error
	optimized := opts.Logical != (logical.Options{})
	if optimized {
		plan, err = logical.Optimize(sinkNode, opts.Logical)
		if err != nil {
			return nil, nil, err
		}
	}
	res.Metrics.Timings.Optimize = time.Since(tOpt)
	eng.tr.Child("plan", res.Metrics.Timings.Optimize, trace.Bool("optimized", optimized))

	out, err := eng.runChain(plan)
	if err != nil {
		return nil, nil, err
	}
	tSink := time.Now()
	if err := eng.finish(out, kind, csvPath, res); err != nil {
		return nil, nil, err
	}
	eng.tr.Child("sink", time.Since(tSink),
		trace.Str("kind", sinkName(kind)),
		trace.Int("output_rows", res.Metrics.Counters.OutputRows.Load()))
	res.Metrics.Timings.Total = time.Since(t0)
	res.Warnings = append(res.Warnings, eng.warns.flush()...)
	res.Metrics.Latency = eng.mon.Latency()
	res.Trace = eng.tr.Finish()
	var cp *CompiledPlan
	if capture {
		cp = newCompiledPlan(eng)
	}
	return res, cp, nil
}

func sinkName(kind SinkKind) string {
	if kind == SinkCSV {
		return "csv"
	}
	return "collect"
}

// engine carries run-wide state.
type engine struct {
	// ctx is the run's cancellation context (nil means background).
	// Checked at chunk/task boundaries only, never per row.
	ctx  context.Context
	opts Options
	res  *Result
	// capture/captured collect the compiled stages for CompileAndExecute.
	capture  bool
	captured []*stageTemplate
	// sink is the requested output form; the final stage's terminal
	// renders CSV directly when it is SinkCSV.
	sink SinkKind
	// tr is the run tracer (nil when tracing is off); curStage is the
	// span routing/samples attach to, stageSeq a run-wide stage counter.
	tr       *trace.Tracer
	curStage *trace.Span
	stageSeq int
	// mon is the live-monitoring hook (nil when telemetry is off; all
	// its methods are nil-safe).
	mon *telemetry.RunMonitor
	// warns collects advisory messages with per-source caps; Execute
	// flushes it into Result.Warnings.
	warns warnings
}

// canceled returns the run's cancellation error when eng.ctx is done,
// nil otherwise. Call sites sit at partition/chunk/stage boundaries so
// the per-row hot paths stay uninstrumented.
func (eng *engine) canceled() error {
	if eng.ctx == nil {
		return nil
	}
	select {
	case <-eng.ctx.Done():
		return fmt.Errorf("core: %w: %w", ErrCanceled, context.Cause(eng.ctx))
	default:
		return nil
	}
}

// exRow is one pooled exception row awaiting slow-path processing.
type exRow struct {
	part int
	key  uint64
	// vals is the boxed stage-input row (nil when raw is the source
	// record still to be parsed generally).
	vals []pyvalue.Value
	raw  []byte
	ec   pyvalue.ExcKind
	// op is the routing-ledger index of the operator the row raised at
	// (0 = source/parse; rows carried over from a previous stage keep 0).
	op int32
}

// mat is a materialized row set between stages.
type mat struct {
	schema *types.Schema
	// parts/keys are the normal-case rows per partition (keys parallel).
	parts [][]rows.Row
	keys  [][]uint64
	// exceptional rows carry boxed data outside the normal case.
	exceptional []exRow
	// csvParts/csvEnds hold per-partition rendered CSV (streaming sink):
	// csvEnds[i] records the byte offset after each row in csvParts[i].
	csvParts [][]byte
	csvEnds  [][]int
	isCSV    bool
	// delimiter/nullValues propagate source config for exception parsing.
	nullValues []string
	// aggregate terminal result (when the producing stage aggregated).
	aggValue pyvalue.Value
	isAgg    bool
}

// runChain executes the full chain of stages for one plan and returns
// the final materialization.
func (eng *engine) runChain(sinkNode *logical.Node) (*mat, error) {
	pplan, err := physical.Split(sinkNode, physical.Options{Fusion: eng.opts.Fusion})
	if err != nil {
		return nil, err
	}
	eng.res.Metrics.Stages += pplan.NumStages()
	eng.mon.SetStages(eng.res.Metrics.Stages)
	var cur *mat
	for si := range pplan.Stages {
		if err := eng.canceled(); err != nil {
			return nil, err
		}
		st := &pplan.Stages[si]
		cur, err = eng.runStage(st, cur)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// beginStage opens a stage span and points eng.curStage at it; the
// returned func restores the previous current stage (call via defer).
func (eng *engine) beginStage(nops int) (*trace.Span, func()) {
	stageIdx := eng.stageSeq
	eng.stageSeq++
	eng.mon.SetStage(stageIdx)
	ssp := eng.tr.Begin("stage",
		trace.Int("index", int64(stageIdx)),
		trace.Int("ops", int64(nops)))
	prevStage := eng.curStage
	eng.curStage = ssp
	return ssp, func() { eng.curStage = prevStage }
}

// runStage compiles and executes one stage over its input.
func (eng *engine) runStage(st *physical.Stage, input *mat) (*mat, error) {
	ssp, restore := eng.beginStage(len(st.Ops))
	defer restore()

	tCompile := time.Now()
	cs, err := eng.compileStage(st, input)
	if err != nil {
		return nil, err
	}
	dCompile := time.Since(tCompile) - cs.sampleTime
	eng.res.Metrics.Timings.Compile += dCompile
	eng.res.Metrics.Timings.Sample += cs.sampleTime
	if cs.sampleTime > 0 {
		eng.tr.Child("sample", cs.sampleTime)
	}
	eng.tr.Child("compile", dCompile, trace.Int("udfs", int64(cs.nUDFs)))
	if eng.capture {
		eng.captured = append(eng.captured, &stageTemplate{st: st, cs: cs})
	}
	return eng.execAndResolve(cs, ssp)
}

// execAndResolve runs a compiled stage's partitions and the post-facto
// exception-resolution pass, closing the stage span. Shared by the cold
// path (runStage) and the cached path ((*CompiledPlan).Execute).
func (eng *engine) execAndResolve(cs *compiledStage, ssp *trace.Span) (*mat, error) {
	esp := eng.tr.Begin("execute")
	tExec := time.Now()
	bytes0 := eng.res.Metrics.Ingest.BytesRead.Load()
	rows0 := eng.res.Metrics.Counters.InputRows.Load()
	bm := &eng.res.Metrics.Batch
	columnar0 := bm.ColumnarRows.Load()
	fused0, elided0, checked0 := bm.FusedPasses.Load(), bm.NullElisions.Load(), bm.NullChecked.Load()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	out, err := eng.executeStage(cs)
	if err != nil {
		return nil, err
	}
	dExec := time.Since(tExec)
	runtime.ReadMemStats(&ms)
	eng.res.Metrics.Timings.Execute += dExec
	eng.res.Metrics.Stage = append(eng.res.Metrics.Stage, metrics.StageIngest{
		Stage:    len(eng.res.Metrics.Stage),
		Bytes:    eng.res.Metrics.Ingest.BytesRead.Load() - bytes0,
		Records:  eng.res.Metrics.Counters.InputRows.Load() - rows0,
		Allocs:   int64(ms.Mallocs - mallocs0),
		Duration: dExec,
	})
	// Stage-delta batch-plane attrs: how many rows completed the
	// stage's kernels, how many fused passes ran, and whether the
	// no-null kernel variants kicked in.
	if columnar := bm.ColumnarRows.Load() - columnar0; columnar > 0 {
		esp.Add(trace.Int("columnar_rows", columnar),
			trace.Int("fused_passes", bm.FusedPasses.Load()-fused0),
			trace.Int("null_elisions", bm.NullElisions.Load()-elided0),
			trace.Int("null_checked", bm.NullChecked.Load()-checked0))
	}
	if esp != nil {
		esp.Tasks = eng.taskTimings(cs.tasks)
	}
	eng.tr.End(esp)

	// Post-facto exception resolution (§4.3): general path, then
	// fallback, then user resolvers along the way.
	tRes := time.Now()
	if err := eng.resolveExceptions(cs, out); err != nil {
		return nil, err
	}
	dRes := time.Since(tRes)
	eng.res.Metrics.Timings.Resolve += dRes
	eng.tr.Child("resolve", dRes, trace.Int("pool", int64(cs.poolSize)))
	if eng.tr.Rows() {
		ssp.Routing = cs.mergedRouting()
	}
	if eng.tr.Samples() {
		ssp.Samples = cs.samples
	}
	eng.tr.End(ssp)
	return out, nil
}

// taskTimings converts the stage's finished tasks into span timings.
func (eng *engine) taskTimings(tasks []*task) []trace.TaskTiming {
	if eng.tr == nil {
		return nil
	}
	out := make([]trace.TaskTiming, 0, len(tasks))
	for _, ts := range tasks {
		if ts == nil {
			continue
		}
		out = append(out, trace.TaskTiming{
			Part:    ts.part,
			Worker:  ts.worker,
			Rows:    ts.inRows,
			StartNS: eng.tr.OffsetNS(ts.start),
			DurNS:   ts.dur.Nanoseconds(),
		})
	}
	return out
}

// executeStage drives the partitions through the compiled normal path.
func (eng *engine) executeStage(cs *compiledStage) (*mat, error) {
	if cs.stream != nil {
		return eng.executeStreamed(cs)
	}
	nparts := cs.numPartitions()
	out := &mat{
		schema:     cs.outSchema,
		parts:      make([][]rows.Row, nparts),
		keys:       make([][]uint64, nparts),
		nullValues: cs.nullValues,
		isCSV:      cs.sinkCSV,
	}
	if cs.sinkCSV {
		out.csvParts = make([][]byte, nparts)
		out.csvEnds = make([][]int, nparts)
	}
	workers := eng.opts.Executors
	if workers > nparts {
		workers = nparts
	}
	if workers < 1 {
		workers = 1
	}
	tasks := make([]*task, nparts)
	var wg sync.WaitGroup
	partCh := make(chan int, nparts)
	for p := range nparts {
		partCh <- p
	}
	close(partCh)
	errs := make([]error, workers)
	// stop flags the first worker error so the remaining workers drain
	// partCh without running doomed partitions (fail fast on large
	// inputs).
	var stop atomic.Bool
	for w := range workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := func(context.Context) {
				for p := range partCh {
					if stop.Load() {
						continue
					}
					if err := eng.canceled(); err != nil {
						errs[w] = err
						stop.Store(true)
						continue
					}
					ts := cs.newTask(eng, p)
					ts.worker = w
					tasks[p] = ts
					timed := eng.tr != nil || eng.mon != nil
					if timed {
						ts.start = time.Now()
					}
					eng.mon.TaskStart()
					err := cs.runPartition(ts, p)
					if timed {
						ts.dur = time.Since(ts.start)
					}
					eng.mon.TaskDone(ts.dur)
					if err != nil {
						errs[w] = err
						stop.Store(true)
						return
					}
					out.parts[p] = ts.outRows
					out.keys[p] = ts.outKeys
					if ts.csvW != nil {
						out.csvParts[p] = ts.csvW.Take()
						out.csvEnds[p] = ts.lineEnds
					}
				}
			}
			if eng.tr != nil {
				// pprof labels make executor goroutines attributable in CPU
				// profiles (tuplex=executor, stage=N, worker=W).
				pprof.Do(context.Background(), pprof.Labels(
					"tuplex", "executor",
					"stage", strconv.Itoa(eng.stageSeq-1),
					"worker", strconv.Itoa(w)), body)
				return
			}
			body(context.Background())
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Gather exception pools and terminal state.
	for _, ts := range tasks {
		if ts == nil {
			continue
		}
		out.exceptional = append(out.exceptional, ts.pool...)
	}
	cs.tasks = tasks
	if cs.terminal == physical.TerminalAggregate {
		out.isAgg = true
	}
	return out, nil
}

// finish converts the final materialization into the requested sink
// form.
func (eng *engine) finish(out *mat, kind SinkKind, csvPath string, res *Result) error {
	res.Schema = out.schema
	if out.isAgg {
		// Aggregate results: one row holding the accumulator.
		res.Rows = [][]pyvalue.Value{{out.aggValue}}
		if kind == SinkCSV {
			return fmt.Errorf("core: tocsv on an aggregate result is not supported; use collect")
		}
		return nil
	}
	switch kind {
	case SinkCollect:
		merged := eng.mergeOrderedSlots(out)
		eng.res.Metrics.Counters.OutputRows.Add(int64(len(merged)))
		res.SlotRows = merged
		return nil
	case SinkCSV:
		if !out.isCSV {
			// The final stage ended in a unique terminal, so its rows
			// are materialized rather than rendered by the tasks.
			w := newCSVWriterFor(out.schema)
			merged := eng.mergeOrderedSlots(out)
			for _, r := range merged {
				w.WriteRow(r)
			}
			eng.res.Metrics.Counters.OutputRows.Add(int64(len(merged)))
			res.CSV = w.Take()
			return eng.writeCSV(res.CSV, csvPath)
		}
		// Rows were rendered inside the partition tasks; stitch buffers
		// per partition in parallel (splicing exception-path rows into
		// position where needed), then concatenate in partition order.
		exByPart := map[int][]exRow{}
		for _, ex := range out.exceptional {
			exByPart[ex.part] = append(exByPart[ex.part], ex)
		}
		stitched := make([][]byte, len(out.csvParts))
		counts := make([]int64, len(out.csvParts))
		eng.parallelFor(len(out.csvParts), func(p int) {
			buf, ends := out.csvParts[p], out.csvEnds[p]
			keysP := out.keys[p]
			exs := exByPart[p]
			if len(exs) == 0 {
				stitched[p] = buf
				counts[p] = int64(len(ends))
				return
			}
			sortExRows(exs)
			pw := csvio.NewWriterBuf(',', getCSVBuf())
			pw.Grow(len(buf) + len(exs)*64)
			i, j := 0, 0
			for i < len(ends) || j < len(exs) {
				if j >= len(exs) || (i < len(ends) && keysP[i] <= exs[j].key) {
					start := 0
					if i > 0 {
						start = ends[i-1]
					}
					pw.WriteRaw(buf[start:ends[i]])
					i++
				} else {
					pw.WriteValues(exs[j].vals)
					j++
				}
				counts[p]++
			}
			stitched[p] = pw.Take()
			putCSVBuf(buf) // task buffer fully copied into pw
		})
		w := newCSVWriterFor(out.schema)
		tot := 0
		for p := range stitched {
			tot += len(stitched[p])
		}
		w.Grow(tot)
		n := int64(0)
		for p := range stitched {
			w.WriteRaw(stitched[p])
			n += counts[p]
			putCSVBuf(stitched[p]) // copied into w; recycle for future tasks
		}
		eng.res.Metrics.Counters.OutputRows.Add(n)
		res.CSV = w.Take()
		return eng.writeCSV(res.CSV, csvPath)
	default:
		return fmt.Errorf("core: unknown sink kind %d", kind)
	}
}

// writeCSV writes rendered CSV to csvPath ("" keeps it in memory only).
func (eng *engine) writeCSV(csv []byte, csvPath string) error {
	if csvPath == "" {
		return nil
	}
	if err := os.WriteFile(csvPath, csv, 0o644); err != nil {
		return fmt.Errorf("core: writing %s: %w", csvPath, err)
	}
	return nil
}

// mergeOrderedSlots merges normal and exception-resolved rows back into
// input order (§4.3 "Merge Rows") without boxing: normal rows pass
// through as the slot rows the compiled path produced, exception rows
// unbox once. Partitions merge independently in parallel; the final
// concatenation follows partition order, which is input order.
func (eng *engine) mergeOrderedSlots(out *mat) []rows.Row {
	// Group resolved exceptional rows per partition.
	exByPart := map[int][]exRow{}
	for _, ex := range out.exceptional {
		exByPart[ex.part] = append(exByPart[ex.part], ex)
	}
	perPart := make([][]rows.Row, len(out.parts))
	eng.parallelFor(len(out.parts), func(p int) {
		exs := exByPart[p]
		sortExRows(exs)
		rowsP, keysP := out.parts[p], out.keys[p]
		m := make([]rows.Row, 0, len(rowsP)+len(exs))
		i, j := 0, 0
		for i < len(rowsP) || j < len(exs) {
			if j >= len(exs) || (i < len(rowsP) && keysP[i] <= exs[j].key) {
				m = append(m, rowsP[i])
				i++
			} else {
				m = append(m, rows.RowFromValues(exs[j].vals))
				j++
			}
		}
		perPart[p] = m
	})
	total := 0
	for _, m := range perPart {
		total += len(m)
	}
	merged := make([]rows.Row, 0, total)
	for _, m := range perPart {
		merged = append(merged, m...)
	}
	return merged
}

// parallelFor runs fn over [0, n) across the engine's executor threads.
// fn must only touch index-disjoint state.
func (eng *engine) parallelFor(n int, fn func(i int)) {
	workers := eng.opts.Executors
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

func sortExRows(exs []exRow) {
	// Insertion sort: exception lists are short by design.
	for i := 1; i < len(exs); i++ {
		for j := i; j > 0 && exs[j].key < exs[j-1].key; j-- {
			exs[j], exs[j-1] = exs[j-1], exs[j]
		}
	}
}

func typeOfBoxed(v pyvalue.Value) types.Type {
	switch v := v.(type) {
	case pyvalue.None:
		return types.Null
	case pyvalue.Bool:
		return types.Bool
	case pyvalue.Int:
		return types.I64
	case pyvalue.Float:
		return types.F64
	case pyvalue.Str:
		return types.Str
	case *pyvalue.List:
		var u types.Type
		for _, it := range v.Items {
			u = types.Unify(u, typeOfBoxed(it))
		}
		if !u.IsValid() {
			u = types.Any
		}
		return types.List(u)
	case *pyvalue.Tuple:
		elts := make([]types.Type, len(v.Items))
		for i, it := range v.Items {
			elts[i] = typeOfBoxed(it)
		}
		return types.Tuple(elts...)
	default:
		return types.Any
	}
}
