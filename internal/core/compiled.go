package core

import (
	"context"
	"fmt"
	"time"

	"github.com/gotuplex/tuplex/internal/csvio"
	"github.com/gotuplex/tuplex/internal/logical"
	"github.com/gotuplex/tuplex/internal/metrics"
	"github.com/gotuplex/tuplex/internal/physical"
	"github.com/gotuplex/tuplex/internal/telemetry"
	"github.com/gotuplex/tuplex/internal/trace"
)

// CompiledPlan is a reusable compilation artifact: the sampled normal
// case, the compiled UDFs, the columnar batch plans and the join build
// tables of one completed run, detached from that run's
// mutable state. Re-executing it skips sampling, type inference,
// dataflow analysis and code generation — the amortization a long-lived
// service needs (Tupleware's "distributed shared jobs"; ROADMAP item 2).
//
// A CompiledPlan is immutable after construction and safe for
// concurrent Execute calls: compile-time artifacts (batch programs,
// build tables, codegen UDFs) are shared read-only, while
// per-run state (tasks, exception pools, boxed interpreters, routing
// ledgers, source bindings) is cloned per call.
//
// Correctness does not depend on the new input resembling the sampled
// one: rows that fall outside the compiled normal case are classifier
// rejects and flow through the general/fallback paths like any other
// exception row. A drifted input is merely slow, never wrong — callers
// (the service cache) key plans by an input fingerprint for performance,
// not safety.
type CompiledPlan struct {
	opts   Options
	kind   SinkKind
	stages []*stageTemplate
}

// stageTemplate pairs one physical stage with its stripped compiled
// form. The physical stage is kept for source rebinding (paths, inline
// data, parallelize rows live on the logical source nodes).
type stageTemplate struct {
	st *physical.Stage
	cs *compiledStage
}

// newCompiledPlan detaches the engine's captured stages into a reusable
// plan. Called once, after the capturing run has fully finished, so
// nulling the per-run fields below cannot race with anything.
func newCompiledPlan(eng *engine) *CompiledPlan {
	cp := &CompiledPlan{opts: eng.opts, kind: eng.sink, stages: eng.captured}
	for _, tpl := range cp.stages {
		cs := tpl.cs
		cs.eng = nil
		cs.records = nil
		cs.stream = nil
		cs.tasks = nil
		cs.routing = nil
		cs.samples = nil
		cs.poolSize = 0
		cs.sampleTime = 0
		switch tpl.st.Source.(type) {
		case nil:
			// Interior stage: the input materialization is per-run.
			cs.boxedInput = nil
			cs.partRanges = nil
		case *logical.ParallelizeSource:
			// Inline rows are part of the plan; keep slots + ranges.
		default:
			// File-backed source: partitioning depends on the file read at
			// execute time.
			cs.partRanges = nil
		}
	}
	return cp
}

// Stages reports the plan's stage count (observability only).
func (cp *CompiledPlan) Stages() int { return len(cp.stages) }

// Kind reports the plan's sink form.
func (cp *CompiledPlan) Kind() SinkKind { return cp.kind }

// Execute re-runs the compiled plan against its sources under ctx,
// skipping the sample/compile phases entirely. The run uses the options
// the plan was compiled with (partitioning and streaming choices are
// baked into the compiled artifacts); csvPath optionally
// redirects a CSV sink to a file, exactly like Execute's parameter.
func (cp *CompiledPlan) Execute(ctx context.Context, csvPath string) (*Result, error) {
	return cp.ExecuteLabeled(ctx, csvPath, "")
}

// ExecuteLabeled is Execute with a per-run telemetry label override, so
// a long-lived service can attribute each warm re-execution of a shared
// plan to the job that requested it in /metrics and /runz.
func (cp *CompiledPlan) ExecuteLabeled(ctx context.Context, csvPath, label string) (*Result, error) {
	opts := cp.opts
	if label != "" {
		opts.Telemetry.Label = label
	}
	res := &Result{Metrics: &metrics.Metrics{}}
	t0 := time.Now()
	eng := &engine{ctx: ctx, opts: opts, res: res, sink: cp.kind, tr: trace.New(opts.Trace)}
	if opts.Telemetry.Enabled || telemetry.AutoEnabled() {
		eng.mon = telemetry.NewRunMonitor(opts.Telemetry, res.Metrics, opts.Executors)
		telemetry.Default.Register(eng.mon)
		eng.mon.Start()
		defer func() {
			eng.mon.Stop()
			telemetry.Default.Unregister(eng.mon)
		}()
	}
	eng.tr.Child("plan", 0, trace.Bool("cached", true))
	eng.res.Metrics.Stages = len(cp.stages)
	eng.mon.SetStages(len(cp.stages))

	var cur *mat
	for _, tpl := range cp.stages {
		if err := eng.canceled(); err != nil {
			return nil, err
		}
		var err error
		cur, err = eng.runCachedStage(tpl, cur)
		if err != nil {
			return nil, err
		}
	}
	tSink := time.Now()
	if err := eng.finish(cur, cp.kind, csvPath, res); err != nil {
		return nil, err
	}
	eng.tr.Child("sink", time.Since(tSink),
		trace.Str("kind", sinkName(cp.kind)),
		trace.Int("output_rows", res.Metrics.Counters.OutputRows.Load()))
	res.Metrics.Timings.Total = time.Since(t0)
	res.Warnings = append(res.Warnings, eng.warns.flush()...)
	res.Metrics.Latency = eng.mon.Latency()
	res.Trace = eng.tr.Finish()
	return res, nil
}

// runCachedStage executes one templated stage: clone the per-run state,
// rebind the source to fresh data, then run the shared
// execute-and-resolve path.
func (eng *engine) runCachedStage(tpl *stageTemplate, input *mat) (*mat, error) {
	ssp, restore := eng.beginStage(len(tpl.st.Ops))
	defer restore()
	cs := tpl.cloneForRun(eng)
	if err := eng.rebindSource(cs, tpl.st, input); err != nil {
		return nil, err
	}
	return eng.execAndResolve(cs, ssp)
}

// cloneForRun builds a run-private compiledStage from the template.
// Copied fields are the immutable compile-time artifacts; everything a
// run mutates is either freshly allocated here or rebound by
// rebindSource. The copy is explicit field-by-field (not a struct copy)
// because compiledStage embeds a sync.Pool, and so the set of shared
// fields is auditable in one place.
func (tpl *stageTemplate) cloneForRun(eng *engine) *compiledStage {
	t := tpl.cs
	nc := &compiledStage{
		eng:      eng,
		terminal: t.terminal,
		termOp:   t.termOp,

		parse:      t.parse,
		isText:     t.isText,
		boxedInput: t.boxedInput,
		inputSlots: t.inputSlots,
		partRanges: t.partRanges,

		inSchema:   t.inSchema,
		outSchema:  t.outSchema,
		nullValues: t.nullValues,
		srcFacts:   t.srcFacts,

		batch:   t.batch,
		maxCols: t.maxCols,
		nUDFs:   t.nUDFs,
		sinkCSV: t.sinkCSV,

		aggInit:     t.aggInit,
		aggScalar:   t.aggScalar,
		aggSlotType: t.aggSlotType,

		opNames:      t.opNames,
		traceRows:    t.traceRows,
		traceSamples: t.traceSamples,
		termRouteIdx: t.termRouteIdx,
	}
	// Boxed interpreters are not thread-safe: every run gets a private
	// program (and private resolver interpreters) via the same cloning
	// the parallel resolve phase uses.
	nc.boxed = t.cloneBoxedProgram()
	if nc.traceRows {
		// Fresh routing ledger and fresh boxed-path counters: the clone
		// must not fold its rows into the template's (or a concurrent
		// run's) ledger.
		nc.routing = make([]trace.OpRouting, len(nc.opNames))
		for i, n := range nc.opNames {
			nc.routing[i].Op = n
		}
		for _, op := range nc.boxed {
			if op.stats != nil {
				op.stats = &boxedOpStats{}
			}
		}
	}
	if t.aggUDF != nil {
		// The aggregate kernel reads only
		// su.compiled/su.frameIdx (shared-safe); the boxed form holds an
		// interpreter and must be private.
		su := *t.aggUDF
		if fresh, err := compileBoxedUDF(su.spec); err == nil {
			su.boxed = fresh
		}
		nc.aggUDF = &su
	}
	if t.combUDF != nil {
		if fresh, err := compileBoxedUDF(t.combUDF.spec); err == nil {
			nc.combUDF = fresh
		} else {
			nc.combUDF = t.combUDF
		}
	}
	return nc
}

// rebindSource points a cloned stage at fresh input data: re-open and
// re-read file-backed sources, or wire the previous stage's output. The
// sampling prefix read by a streamed source here feeds execution
// directly — no records are sampled again.
func (eng *engine) rebindSource(cs *compiledStage, st *physical.Stage, input *mat) error {
	switch src := st.Source.(type) {
	case *logical.CSVSource:
		delim := src.Delim
		if delim == 0 {
			delim = ','
		}
		if src.Data == nil && eng.opts.Streaming {
			ss, err := eng.openStreamSource(src.Path, delim, src.Header, csvio.ChunkCSV)
			if err != nil {
				return err
			}
			if len(ss.prefixRecords()) == 0 {
				ss.close()
				return fmt.Errorf("core: empty CSV input %s", src.Path)
			}
			cs.stream = ss
			return nil
		}
		records, _, bytesRead, err := readCSVRecords(src, delim)
		if err != nil {
			return err
		}
		eng.res.Metrics.Ingest.BytesRead.Add(bytesRead)
		if len(records) == 0 {
			return fmt.Errorf("core: empty CSV input %s", src.Path)
		}
		cs.records = records
		cs.partRanges = splitRange(len(records), eng.partSize(len(records)))
	case *logical.TextSource:
		if src.Data == nil && eng.opts.Streaming {
			ss, err := eng.openStreamSource(src.Path, 0, false, csvio.ChunkText)
			if err != nil {
				return err
			}
			cs.stream = ss
			return nil
		}
		lines, bytesRead, err := readTextLines(src)
		if err != nil {
			return err
		}
		eng.res.Metrics.Ingest.BytesRead.Add(bytesRead)
		cs.records = lines
		cs.partRanges = splitRange(len(lines), eng.partSize(len(lines)))
	case *logical.ParallelizeSource:
		// Inline rows travel with the template (inputSlots/partRanges
		// survive the strip); nothing to rebind.
	case nil:
		if input == nil {
			return fmt.Errorf("core: stage without source or input")
		}
		cs.boxedInput = input
		cs.partRanges = make([][2]int, len(input.parts))
		for i, p := range input.parts {
			cs.partRanges[i] = [2]int{0, len(p)}
		}
	default:
		return fmt.Errorf("core: unsupported source %T", st.Source)
	}
	return nil
}
