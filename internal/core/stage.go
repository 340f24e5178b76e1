package core

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/gotuplex/tuplex/internal/codegen"
	"github.com/gotuplex/tuplex/internal/csvio"
	"github.com/gotuplex/tuplex/internal/dataflow"
	"github.com/gotuplex/tuplex/internal/inference"
	"github.com/gotuplex/tuplex/internal/logical"
	"github.com/gotuplex/tuplex/internal/physical"
	"github.com/gotuplex/tuplex/internal/pyre"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/sample"
	"github.com/gotuplex/tuplex/internal/trace"
	"github.com/gotuplex/tuplex/internal/types"
)

// ECode aliases the return-code exception representation.
type ECode = codegen.ECode

// csvBufPool recycles task CSV output buffers across tasks and runs. A
// steady-state buffer is already output-sized, so sink rendering avoids
// both doubling-growth copies and the runtime's large-allocation
// zeroing, which otherwise dominate the sink path's profile.
var csvBufPool sync.Pool // holds *[]byte

func getCSVBuf() []byte {
	if p, _ := csvBufPool.Get().(*[]byte); p != nil {
		return (*p)[:0]
	}
	return nil
}

func putCSVBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	csvBufPool.Put(&b)
}

// opHandlers are the resolvers/ignores attached to one UDF operator.
type opHandlers struct {
	resolvers []resolverSpec
	ignores   []pyvalue.ExcKind
}

type resolverSpec struct {
	exc pyvalue.ExcKind
	udf *boxedUDF
}

// compiledStage is one stage ready to run.
type compiledStage struct {
	eng      *engine
	terminal physical.TerminalKind
	termOp   logical.Op

	// Source-side state.
	records    [][]byte      // raw records for materialized CSV/text sources
	stream     *streamSource // chunked ingest for file-backed sources
	parse      *csvio.ParseSpec
	isText     bool
	boxedInput *mat       // input materialization for non-source stages
	inputSlots []rows.Row // parallelize source (unboxed slot rows)
	partRanges [][2]int

	inSchema   *types.Schema
	outSchema  *types.Schema
	nullValues []string
	// srcFacts seeds the dataflow analysis for the first UDF: per-column
	// type facts plus sampled value statistics (constants, int ranges)
	// for sources that sample values. Nil means type facts only.
	srcFacts []dataflow.ColFact

	// batch is the stage's normal-case plan: every operator and the
	// terminal compiled to batch kernels over column vectors.
	batch   *batchProg
	maxCols int
	nUDFs   int
	// sinkCSV marks a final stage that renders CSV inside the tasks.
	sinkCSV bool

	// Boxed-path program (general & fallback), parallel to stage ops.
	boxed []*boxedOp

	// aggregate state
	aggInit     pyvalue.Value
	aggScalar   bool
	aggSlotType types.Type
	aggUDF      *stageUDF
	combUDF     *boxedUDF

	sampleTime time.Duration
	tasks      []*task

	// Tracing state. opNames names the routing-ledger entries: index 0
	// is the source/parse pseudo-op, 1..len(ops) follow the stage's
	// operators and the last entry is the terminal. routing accumulates
	// the serial resolve-phase outcomes (plus merged per-task counters),
	// samples the bounded exception-row sample.
	opNames      []string
	routing      []trace.OpRouting
	samples      []trace.ExcSample
	traceRows    bool
	traceSamples bool
	termRouteIdx int32
	// poolSize is the stage's exception-pool size (set by
	// resolveExceptions, reported on the resolve span).
	poolSize int

	// bstPool recycles batch memory (parse vectors, derived vectors,
	// selection buffers) across the stage's tasks: string-vector byte
	// buffers reach steady capacity after a few chunks instead of
	// regrowing per task.
	bstPool sync.Pool
}

// stageUDF bundles one operator's three compiled forms.
type stageUDF struct {
	spec     *logical.UDFSpec
	compiled *codegen.UDF // normal path; nil if not fast-path compilable
	boxed    *boxedUDF
	// flow carries the dataflow analysis for the typed normal-case form
	// (nil when typing failed); consulted for dead-resolver warnings.
	flow *dataflow.Result
	// scalarParam reports that the UDF receives the bare column value
	// (single-column rows / mapColumn).
	scalarParam bool
	frameIdx    int
}

// task is per-partition execution state.
type task struct {
	eng  *engine
	cs   *compiledStage
	part int

	frames []*codegen.Frame
	rowBuf []rows.Slot
	// keyBuf is the reusable scratch buffer for hash-key encodings (join
	// probes, unique terminal) — the hot paths never allocate per row.
	keyBuf []byte

	outRows []rows.Row
	outKeys []uint64
	pool    []exRow

	// streaming CSV sink state
	csvW     *csvio.Writer
	lineEnds []int

	// bst is the task's batch memory, taken from the stage pool.
	bst *batchState

	aggSlot rows.Slot
	hasAgg  bool

	uniq *uniqSet

	// probe counters accumulate locally and flush with the other
	// per-task counters (atomics per probe would dominate tight loops).
	probeHits, probeMisses int64

	// Batch-plane counters. columnarRows counts rows that completed the
	// stage's kernels in vector form; fusedPasses counts fused-group
	// scans over a batch; nullElided/nullChecked count batch-column
	// dispatches that did / did not take the no-null inner loop.
	columnarRows            int64
	fusedPasses             int64
	nullElided, nullChecked int64

	// Tracing scratch. worker/start/dur/inRows feed the execute span's
	// task timings (filled only when the tracer is on). route/routeExc
	// are the task's routing-ledger counters, indexed like cs.opNames
	// (nil below trace.LevelRows — the default path carries none of
	// this).
	worker   int
	start    time.Time
	dur      time.Duration
	inRows   int64
	route    []int64
	routeExc []int64
}

func (cs *compiledStage) numPartitions() int { return len(cs.partRanges) }

func (cs *compiledStage) newTask(eng *engine, part int) *task {
	ts := &task{eng: eng, cs: cs, part: part}
	ts.frames = make([]*codegen.Frame, cs.nUDFs)
	for i := range ts.frames {
		ts.frames[i] = codegen.NewFrame(8)
		ts.frames[i].Rand = pyre.NewPRNG(eng.opts.Seed + uint64(part)*1000003 + uint64(i))
	}
	ts.rowBuf = make([]rows.Slot, 0, cs.maxCols)
	ts.keyBuf = make([]byte, 0, 64)
	if cs.terminal == physical.TerminalUnique {
		ts.uniq = newUniqSet()
	}
	if cs.terminal == physical.TerminalAggregate {
		ts.aggSlot = coerceSlot(rows.FromValue(cs.aggInit), cs.aggSlotType)
		ts.hasAgg = true
	}
	if cs.sinkCSV {
		ts.csvW = csvio.NewWriterBuf(',', getCSVBuf())
	}
	if cs.traceRows {
		ts.route = make([]int64, len(cs.opNames))
		ts.routeExc = make([]int64, len(cs.opNames))
	}
	return ts
}

// mergedRouting folds the per-task ledger counters and the boxed-path
// atomics into the stage ledger. Called serially after workers join.
func (cs *compiledStage) mergedRouting() []trace.OpRouting {
	if cs.routing == nil {
		return nil
	}
	out := cs.routing
	for _, ts := range cs.tasks {
		if ts == nil || ts.route == nil {
			continue
		}
		for i := range out {
			out[i].NormalIn += ts.route[i]
			out[i].NormalExc += ts.routeExc[i]
		}
	}
	for oi, bop := range cs.boxed {
		if bop.stats == nil {
			continue
		}
		out[oi+1].GeneralIn += bop.stats.generalIn.Load()
		out[oi+1].FallbackIn += bop.stats.fallbackIn.Load()
	}
	return out
}

// runPartition feeds a materialized partition through the batch plan:
// records of an inline or materialized file source, a Parallelize
// source's slot rows (classified against the normal schema), or the
// previous stage's rows with their own order keys.
func (cs *compiledStage) runPartition(ts *task, p int) error {
	r := cs.partRanges[p]
	switch {
	case cs.records != nil:
		return cs.runRecords(ts, p, cs.records[r[0]:r[1]], uint64(r[0]), false)
	case cs.inputSlots != nil:
		return cs.runSlots(ts, p, cs.inputSlots[r[0]:r[1]], nil, uint64(r[0]))
	default:
		return cs.runSlots(ts, p, cs.boxedInput.parts[p], cs.boxedInput.keys[p], 0)
	}
}

// flushProbeCounters drains the task-local join probe tallies into the
// shared metrics.
func (ts *task) flushProbeCounters() {
	if ts.probeHits == 0 && ts.probeMisses == 0 {
		return
	}
	jm := &ts.eng.res.Metrics.Join
	jm.ProbeHits.Add(ts.probeHits)
	jm.ProbeMisses.Add(ts.probeMisses)
	ts.probeHits, ts.probeMisses = 0, 0
}

// flushBatchCounters drains the task-local batch-plane tallies into the
// shared metrics (called once per run-partition call, like the probe
// counters).
func (ts *task) flushBatchCounters() {
	bm := &ts.eng.res.Metrics.Batch
	if ts.columnarRows != 0 {
		bm.ColumnarRows.Add(ts.columnarRows)
		ts.columnarRows = 0
	}
	if ts.fusedPasses != 0 {
		bm.FusedPasses.Add(ts.fusedPasses)
		ts.fusedPasses = 0
	}
	if ts.nullElided != 0 {
		bm.NullElisions.Add(ts.nullElided)
		ts.nullElided = 0
	}
	if ts.nullChecked != 0 {
		bm.NullChecked.Add(ts.nullChecked)
		ts.nullChecked = 0
	}
}

// unboxConforming converts a boxed row to slots when it matches the
// normal schema.
func unboxConforming(vals []pyvalue.Value, sch *types.Schema, buf []rows.Slot) (rows.Row, bool) {
	if len(vals) != sch.Len() {
		return nil, false
	}
	row := buf[:len(vals)]
	for i, v := range vals {
		s := rows.FromValue(v)
		if !rows.Matches(s, sch.Col(i).Type) {
			return nil, false
		}
		row[i] = s
	}
	return row, true
}

// rowConforms reports whether a slot row matches the normal schema
// (the classifier for slot-native sources — no conversion needed).
func rowConforms(row rows.Row, sch *types.Schema) bool {
	if len(row) != sch.Len() {
		return false
	}
	for i, s := range row {
		if !rows.Matches(s, sch.Col(i).Type) {
			return false
		}
	}
	return true
}

// compileStage builds the normal and boxed programs for one stage.
func (eng *engine) compileStage(st *physical.Stage, input *mat) (*compiledStage, error) {
	cs := &compiledStage{eng: eng, terminal: st.Terminal, termOp: st.TerminalOp}
	cs.sinkCSV = st.Terminal == physical.TerminalSink && eng.sink == SinkCSV
	if err := eng.prepareSource(cs, st, input); err != nil {
		return nil, err
	}

	// Routing-ledger layout (one entry per operator plus the source and
	// terminal pseudo-entries); counters are only allocated at LevelRows.
	cs.traceRows = eng.tr.Rows()
	cs.traceSamples = eng.tr.Samples()
	cs.opNames = make([]string, 0, len(st.Ops)+2)
	cs.opNames = append(cs.opNames, "source")
	for _, op := range st.Ops {
		cs.opNames = append(cs.opNames, opName(op))
	}
	cs.opNames = append(cs.opNames, terminalName(st.Terminal, cs.sinkCSV))
	cs.termRouteIdx = int32(len(st.Ops) + 1)
	if cs.traceRows {
		cs.routing = make([]trace.OpRouting, len(cs.opNames))
		for i, n := range cs.opNames {
			cs.routing[i].Op = n
		}
	}

	// Walk ops: compute schemas, compile UDFs, build batch kernels.
	var kernels []*batchKernel
	schema := cs.inSchema
	cs.maxCols = schema.Len()
	frameIdx := 0
	var lastHandlers *opHandlers
	// lastUDF tracks the UDF a following resolve() attaches to, for the
	// dead-resolver lint.
	var lastUDF *stageUDF
	// colFacts tracks the per-column dataflow seeds alongside schema.
	// Ops that change columns rebuild it (cloning first: earlier UDFs'
	// analysis results hold references to prior versions).
	colFacts := cs.srcFacts
	if colFacts == nil {
		colFacts = typeColFacts(schema)
	}

	for oi, op := range st.Ops {
		ridx := int32(oi + 1)
		switch op := op.(type) {
		case *logical.MapOp:
			scalar, paramT := paramStyle(op.UDF, schema)
			su, err := eng.compileUDF(op.UDF, []types.Type{paramT}, scalar, colFacts, opName(op))
			if err != nil {
				return nil, err
			}
			lastUDF = su
			su.frameIdx = frameIdx
			frameIdx++
			outSchema := mapOutputSchema(su)
			h := &opHandlers{}
			bop := &boxedOp{kind: bOpMap, udf: su.boxed, handlers: h, inSchema: schema, outSchema: outSchema, scalar: scalar}
			cs.boxed = append(cs.boxed, bop)
			lastHandlers = h
			outTs := make([]types.Type, outSchema.Len())
			for i := range outTs {
				outTs[i] = outSchema.Col(i).Type
			}
			kernels = append(kernels, &batchKernel{kind: bkMap, su: su, ridx: ridx, scalar: scalar,
				inCols: schema.Len(), argCols: kernelArgCols(su, schema), outTypes: outTs})
			schema = outSchema
			colFacts = typeColFacts(outSchema)
			if schema.Len() > cs.maxCols {
				cs.maxCols = schema.Len() + 8
			}

		case *logical.FilterOp:
			scalar, paramT := paramStyle(op.UDF, schema)
			su, err := eng.compileUDF(op.UDF, []types.Type{paramT}, scalar, colFacts, opName(op))
			if err != nil {
				return nil, err
			}
			lastUDF = su
			su.frameIdx = frameIdx
			frameIdx++
			h := &opHandlers{}
			cs.boxed = append(cs.boxed, &boxedOp{kind: bOpFilter, udf: su.boxed, handlers: h, inSchema: schema, scalar: scalar})
			lastHandlers = h
			kernels = append(kernels, &batchKernel{kind: bkFilter, su: su, ridx: ridx, scalar: scalar,
				inCols: schema.Len(), argCols: kernelArgCols(su, schema)})

		case *logical.WithColumnOp:
			scalar, paramT := paramStyle(op.UDF, schema)
			su, err := eng.compileUDF(op.UDF, []types.Type{paramT}, scalar, colFacts, opName(op))
			if err != nil {
				return nil, err
			}
			lastUDF = su
			su.frameIdx = frameIdx
			frameIdx++
			retT := su.returnType()
			replaceIdx, exists := schema.Lookup(op.Col)
			if !exists {
				replaceIdx = -1
			}
			h := &opHandlers{}
			cs.boxed = append(cs.boxed, &boxedOp{kind: bOpWithColumn, udf: su.boxed, handlers: h, inSchema: schema, col: op.Col, colIdx: replaceIdx, scalar: scalar})
			lastHandlers = h
			kernels = append(kernels, &batchKernel{kind: bkWithColumn, su: su, ridx: ridx, scalar: scalar, colIdx: replaceIdx,
				inCols: schema.Len(), argCols: kernelArgCols(su, schema), outTypes: []types.Type{retT}})
			schema = schema.WithColumn(op.Col, retT)
			nf := append([]dataflow.ColFact(nil), colFacts...)
			if replaceIdx >= 0 && replaceIdx < len(nf) {
				nf[replaceIdx] = dataflow.ColFact{Type: retT}
			} else {
				nf = append(nf, dataflow.ColFact{Type: retT})
			}
			colFacts = nf
			if schema.Len() > cs.maxCols {
				cs.maxCols = schema.Len() + 8
			}

		case *logical.MapColumnOp:
			idx, ok := schema.Lookup(op.Col)
			if !ok {
				return nil, fmt.Errorf("core: mapColumn: no column %q in %s", op.Col, schema)
			}
			colT := schema.Col(idx).Type
			su, err := eng.compileUDF(op.UDF, []types.Type{colT}, true,
				[]dataflow.ColFact{colFacts[idx]}, opName(op))
			if err != nil {
				return nil, err
			}
			lastUDF = su
			su.frameIdx = frameIdx
			frameIdx++
			h := &opHandlers{}
			cs.boxed = append(cs.boxed, &boxedOp{kind: bOpMapColumn, udf: su.boxed, handlers: h, inSchema: schema, col: op.Col, colIdx: idx, scalar: true})
			lastHandlers = h
			kernels = append(kernels, &batchKernel{kind: bkMapColumn, su: su, ridx: ridx, scalar: true, colIdx: idx,
				inCols: schema.Len(), outTypes: []types.Type{su.returnType()}})
			schema = schema.WithColumn(op.Col, su.returnType())
			nf := append([]dataflow.ColFact(nil), colFacts...)
			nf[idx] = dataflow.ColFact{Type: su.returnType()}
			colFacts = nf

		case *logical.RenameOp:
			ns, err := schema.Rename(op.Old, op.New)
			if err != nil {
				return nil, err
			}
			schema = ns
			cs.boxed = append(cs.boxed, &boxedOp{kind: bOpNoop})

		case *logical.SelectOp:
			ns, idx, err := schema.Select(op.Cols)
			if err != nil {
				return nil, err
			}
			nf := make([]dataflow.ColFact, len(idx))
			for i, j := range idx {
				if j < len(colFacts) {
					nf[i] = colFacts[j]
				} else {
					nf[i] = dataflow.ColFact{Type: ns.Col(i).Type}
				}
			}
			colFacts = nf
			schema = ns
			sel := append([]int(nil), idx...)
			cs.boxed = append(cs.boxed, &boxedOp{kind: bOpSelect, sel: sel})
			kernels = append(kernels, &batchKernel{kind: bkSelect, ridx: ridx, perm: sel})

		case *logical.ResolveOp:
			if lastHandlers == nil {
				return nil, fmt.Errorf("core: resolve() without a preceding UDF operator")
			}
			bu, err := compileBoxedUDF(op.UDF)
			if err != nil {
				return nil, err
			}
			lastHandlers.resolvers = append(lastHandlers.resolvers, resolverSpec{exc: op.Exc, udf: bu})
			cs.boxed = append(cs.boxed, &boxedOp{kind: bOpNoop})
			// Dead-resolver lint: the compiled normal-case path provably
			// never raises this kind. The resolver still applies on the
			// general path (non-conforming rows run full Python
			// semantics), so this is a warning, not an error.
			if lastUDF != nil && lastUDF.compiled != nil && lastUDF.flow != nil &&
				!lastUDF.flow.MayRaise(op.Exc) {
				eng.warns.add(warnLint,
					"resolve(%s): the compiled normal-case path of the preceding UDF cannot raise %s; the resolver only applies to general-path rows",
					op.Exc, op.Exc)
			}

		case *logical.IgnoreOp:
			if lastHandlers == nil {
				return nil, fmt.Errorf("core: ignore() without a preceding UDF operator")
			}
			lastHandlers.ignores = append(lastHandlers.ignores, op.Exc)
			cs.boxed = append(cs.boxed, &boxedOp{kind: bOpNoop})

		case *logical.JoinOp:
			// The build side runs its whole chain here (§4.5), so its
			// stage spans nest under a join-build span.
			jsp := eng.tr.Begin("join-build", trace.Str("key", op.RightKey))
			bt, err := eng.buildJoinTable(op)
			if err != nil {
				return nil, err
			}
			jsp.Add(trace.Int("build_rows", int64(bt.buildRows)),
				trace.Int("general_rows", int64(bt.genCount)),
				trace.Int("shards", int64(len(bt.shards))))
			eng.tr.End(jsp)
			keyIdx, ok := schema.Lookup(op.LeftKey)
			if !ok {
				return nil, fmt.Errorf("core: join: no column %q in %s", op.LeftKey, schema)
			}
			outSchema := joinOutputSchema(schema, op, bt)
			cs.boxed = append(cs.boxed, &boxedOp{kind: bOpJoin, join: bt, keyIdx: keyIdx, leftOuter: op.Left, inSchema: schema, outSchema: outSchema})
			jOutTs := make([]types.Type, outSchema.Len())
			for i := range jOutTs {
				jOutTs[i] = outSchema.Col(i).Type
			}
			kernels = append(kernels, &batchKernel{kind: bkJoin, ridx: ridx, colIdx: keyIdx, join: bt, leftOuter: op.Left,
				inCols: schema.Len(), outTypes: jOutTs})
			nf := append([]dataflow.ColFact(nil), colFacts...)
			for i := schema.Len(); i < outSchema.Len(); i++ {
				nf = append(nf, dataflow.ColFact{Type: outSchema.Col(i).Type})
			}
			colFacts = nf
			schema = outSchema
			if schema.Len() > cs.maxCols {
				cs.maxCols = schema.Len() + 8
			}

		default:
			return nil, fmt.Errorf("core: unsupported operator %T", op)
		}
	}

	cs.outSchema = schema
	cs.nUDFs = frameIdx + 1

	// Terminal handling.
	if st.Terminal == physical.TerminalAggregate {
		agg := st.TerminalOp.(*logical.AggregateOp)
		if err := eng.compileAggregate(cs, agg, schema); err != nil {
			return nil, err
		}
	}
	cs.batch = &batchProg{kernels: kernels, groups: fuseKernels(kernels)}
	if cs.traceRows {
		for _, bop := range cs.boxed {
			bop.stats = &boxedOpStats{}
		}
	}
	return cs, nil
}

// opName names an operator for the routing ledger and trace output.
func opName(op logical.Op) string {
	switch op := op.(type) {
	case *logical.MapOp:
		return "map"
	case *logical.FilterOp:
		return "filter"
	case *logical.WithColumnOp:
		return "withColumn(" + op.Col + ")"
	case *logical.MapColumnOp:
		return "mapColumn(" + op.Col + ")"
	case *logical.RenameOp:
		return "rename"
	case *logical.SelectOp:
		return "select"
	case *logical.ResolveOp:
		return "resolve"
	case *logical.IgnoreOp:
		return "ignore"
	case *logical.JoinOp:
		return "join(" + op.LeftKey + ")"
	default:
		return fmt.Sprintf("%T", op)
	}
}

// terminalName names the stage terminal for the routing ledger.
func terminalName(k physical.TerminalKind, sinkCSV bool) string {
	switch k {
	case physical.TerminalUnique:
		return "unique"
	case physical.TerminalAggregate:
		return "aggregate"
	default:
		if sinkCSV {
			return "csv"
		}
		return "collect"
	}
}

func (su *stageUDF) returnType() types.Type {
	if su.compiled != nil {
		return su.compiled.ReturnType()
	}
	return types.Any
}

// paramStyle decides whether a UDF receives the bare value of a
// single-column row or the whole row (dict/tuple access compiles to
// direct column loads either way).
func paramStyle(spec *logical.UDFSpec, schema *types.Schema) (scalar bool, paramT types.Type) {
	if schema.Len() == 1 {
		if len(spec.Access.ByName) > 0 {
			if _, ok := schema.Lookup(spec.Access.ByName[0]); ok {
				return false, types.Row(schema)
			}
		}
		return true, schema.Col(0).Type
	}
	return false, types.Row(schema)
}

// compileUDF builds the three execution forms for one UDF and runs the
// static dataflow analysis over the typed normal-case form: its lints
// surface as result warnings, and when compiler optimizations are on
// its facts drive dead-branch pruning, constant folding and check
// elision in codegen (guarded where they rest on sampled values).
// colFacts seeds the analysis for the UDF's input columns; label names
// the operator in warnings and trace output.
func (eng *engine) compileUDF(spec *logical.UDFSpec, paramTypes []types.Type, scalar bool, colFacts []dataflow.ColFact, label string) (*stageUDF, error) {
	su := &stageUDF{spec: spec, scalarParam: scalar}
	bu, err := compileBoxedUDF(spec)
	if err != nil {
		return nil, err
	}
	su.boxed = bu
	globalTypes := map[string]types.Type{}
	for k, v := range spec.Globals {
		globalTypes[k] = typeOfBoxed(v)
	}
	infOpts := inference.Options{DisableNullPruning: eng.opts.Sample.DisableNullOpt}
	info, err := inference.TypeFunction(spec.Fn, paramTypes, globalTypes, infOpts)
	if err != nil {
		// Structural mismatch (e.g. wrong arity): the UDF can still run
		// boxed; the fast path is simply absent.
		return su, nil
	}
	flow := dataflow.Analyze(info, dataflow.Options{
		Columns:   colFacts,
		NullFacts: !eng.opts.Sample.DisableNullOpt,
		Globals:   spec.Globals,
	})
	su.flow = flow
	eng.reportLints(label, flow.Lints())
	cgOpts := eng.opts.Codegen
	if cgOpts.Specialize {
		cgOpts.Flow = flow
	}
	u, err := codegen.Compile(info, spec.Globals, cgOpts)
	if err != nil {
		eng.traceAnalyze(label, flow, nil)
		return su, nil
	}
	su.compiled = u
	eng.traceAnalyze(label, flow, u)
	return su, nil
}

// maxLintWarnings bounds how many lint diagnostics one UDF contributes
// to Result.Warnings.
const maxLintWarnings = 8

// reportLints surfaces UDF lints as user-facing result warnings.
func (eng *engine) reportLints(label string, lints []dataflow.Lint) {
	n := len(lints)
	if n > maxLintWarnings {
		n = maxLintWarnings
	}
	for _, l := range lints[:n] {
		eng.warns.add(warnLint, "%s: UDF %s", label, l)
	}
	if len(lints) > n {
		eng.warns.add(warnLint, "%s: %d more UDF lints suppressed", label, len(lints)-n)
	}
}

// traceAnalyze records the per-UDF analysis facts on an "analyze" span
// (child of the enclosing stage span). u is nil when codegen bailed.
func (eng *engine) traceAnalyze(label string, flow *dataflow.Result, u *codegen.UDF) {
	attrs := []trace.Attr{trace.Str("op", label)}
	if raise := flow.CanRaise(); len(raise) > 0 {
		names := make([]string, len(raise))
		for i, k := range raise {
			names[i] = k.String()
		}
		attrs = append(attrs, trace.Str("can_raise", strings.Join(names, ",")))
	}
	attrs = append(attrs, trace.Int("lints", int64(len(flow.Lints()))))
	if u != nil {
		attrs = append(attrs,
			trace.Int("branches_pruned", int64(u.Opt.BranchesPruned)),
			trace.Int("consts_folded", int64(u.Opt.ConstsFolded)),
			trace.Int("checks_elided", int64(u.Opt.ChecksElided)),
			trace.Int("raise_exits", int64(u.Opt.RaiseExits)),
			trace.Int("guards", int64(len(u.Guards))))
	}
	eng.tr.Child("analyze", 0, attrs...)
}

// mapOutputSchema derives the schema a MapOp produces.
func mapOutputSchema(su *stageUDF) *types.Schema {
	rt := su.returnType()
	switch rt.Kind() {
	case types.KindRow:
		return rt.Schema()
	case types.KindTuple:
		elts := rt.Elts()
		cols := make([]types.Column, len(elts))
		for i, t := range elts {
			cols[i] = types.Column{Name: fmt.Sprintf("_%d", i), Type: t}
		}
		return types.NewSchema(cols)
	default:
		name := "value"
		if su.spec.Access != nil && len(su.spec.Access.OutputColumns) == 1 {
			name = su.spec.Access.OutputColumns[0]
		}
		return types.NewSchema([]types.Column{{Name: name, Type: rt}})
	}
}

// prepareSource loads records / wires the input mat and derives the
// stage input schema.
func (eng *engine) prepareSource(cs *compiledStage, st *physical.Stage, input *mat) error {
	switch src := st.Source.(type) {
	case *logical.CSVSource:
		delim := src.Delim
		if delim == 0 {
			delim = ','
		}
		var records [][]byte
		var names []string
		if src.Data == nil && eng.opts.Streaming {
			// Chunked, pipelined ingest for file-backed sources: only the
			// sampling prefix is read here; the rest streams at execute
			// time, overlapping disk I/O with record splitting, parsing
			// and UDF execution.
			t0 := time.Now()
			ss, err := eng.openStreamSource(src.Path, delim, src.Header, csvio.ChunkCSV)
			if err != nil {
				return err
			}
			records = ss.prefixRecords()
			if len(records) == 0 {
				ss.close()
				return fmt.Errorf("core: empty CSV input %s", src.Path)
			}
			names = ss.headerNames
			cs.stream = ss
			cs.sampleTime = time.Since(t0)
		} else {
			var bytesRead int64
			var err error
			records, names, bytesRead, err = readCSVRecords(src, delim)
			if err != nil {
				return err
			}
			eng.res.Metrics.Ingest.BytesRead.Add(bytesRead)
			if len(records) == 0 {
				return fmt.Errorf("core: empty CSV input %s", src.Path)
			}
			cs.records = records
			cs.partRanges = splitRange(len(records), eng.partSize(len(records)))
		}
		if src.Columns != nil {
			names = src.Columns
		}
		t0 := time.Now()
		plan, err := sample.Sample(records, delim, names, eng.mkSampleCfg(src.NullValues))
		cs.sampleTime += time.Since(t0)
		if err != nil {
			if cs.stream != nil {
				cs.stream.close()
			}
			return err
		}
		if plan.AllExceptions {
			eng.warns.add(warnAdvice,
				"sample produced only exceptions; revise the pipeline or increase the sample size")
		}
		cs.nullValues = plan.Config.NullValues
		// Projection pushdown into the generated parser.
		proj := src.Projected()
		fields, schema, idxs := projectedFields(plan, proj)
		cs.parse = csvio.NewParseSpec(delim, plan.NumCols, fields, plan.Config.NullValues)
		cs.inSchema = schema
		cs.srcFacts = seedColFacts(schema, plan.Stats, idxs)
		cs.boxedInput = &mat{schema: plan.GeneralSchema}
	case *logical.TextSource:
		colName := src.Column
		if colName == "" {
			colName = "value"
		}
		cs.isText = true
		cs.nullValues = csvio.DefaultNullValues
		cs.inSchema = types.NewSchema([]types.Column{{Name: colName, Type: types.Str}})
		if src.Data == nil && eng.opts.Streaming {
			ss, err := eng.openStreamSource(src.Path, 0, false, csvio.ChunkText)
			if err != nil {
				return err
			}
			cs.stream = ss
		} else {
			lines, bytesRead, err := readTextLines(src)
			if err != nil {
				return err
			}
			eng.res.Metrics.Ingest.BytesRead.Add(bytesRead)
			cs.records = lines
			cs.partRanges = splitRange(len(lines), eng.partSize(len(lines)))
		}
	case *logical.ParallelizeSource:
		t0 := time.Now()
		slotRows := src.SlotRows
		if slotRows == nil && src.Rows != nil {
			// Legacy boxed form: unbox once up front.
			slotRows = make([]rows.Row, len(src.Rows))
			for i, r := range src.Rows {
				slotRows[i] = rows.RowFromValues(r)
			}
		}
		// The sampler only reads the prefix; box exactly those rows
		// instead of the whole input.
		need := eng.mkSampleCfg(nil).WithDefaults().Size
		if need > len(slotRows) {
			need = len(slotRows)
		}
		sampleRows := make([][]pyvalue.Value, need)
		for i := range sampleRows {
			sampleRows[i] = rows.RowToValues(slotRows[i])
		}
		plan, err := sample.SampleValues(sampleRows, src.Names, eng.mkSampleCfg(nil))
		cs.sampleTime = time.Since(t0)
		if err != nil {
			return err
		}
		cs.inputSlots = slotRows
		cs.nullValues = csvio.DefaultNullValues
		cs.inSchema = plan.Schema
		cs.srcFacts = seedColFacts(plan.Schema, plan.Stats, nil)
		cs.partRanges = splitRange(len(slotRows), eng.partSize(len(slotRows)))
	case nil:
		if input == nil {
			return fmt.Errorf("core: stage without source or input")
		}
		cs.boxedInput = input
		cs.inSchema = input.schema
		cs.nullValues = input.nullValues
		cs.partRanges = make([][2]int, len(input.parts))
		for i, p := range input.parts {
			cs.partRanges[i] = [2]int{0, len(p)}
		}
	default:
		return fmt.Errorf("core: unsupported source %T", st.Source)
	}
	if cs.nullValues == nil {
		cs.nullValues = csvio.DefaultNullValues
	}
	return nil
}

// readCSVRecords materializes a CSV source's records: inline data, or
// the paper's ','.join(paths) multi-file spelling. Each file carries its
// own header; the first one names the columns (unless configured), the
// rest are dropped. Shared by the cold path and cached-plan rebinding.
func readCSVRecords(src *logical.CSVSource, delim byte) (records [][]byte, names []string, bytesRead int64, err error) {
	addData := func(data []byte) {
		recs := csvio.SplitRecords(data)
		if src.Header && len(recs) > 0 {
			if names == nil && src.Columns == nil {
				names = csvio.SplitCells(recs[0], delim, nil)
			}
			recs = recs[1:]
		}
		records = append(records, recs...)
	}
	if src.Data != nil {
		addData(src.Data)
		return records, names, 0, nil
	}
	for _, path := range strings.Split(src.Path, ",") {
		data, rerr := os.ReadFile(strings.TrimSpace(path))
		if rerr != nil {
			return nil, nil, bytesRead, fmt.Errorf("core: reading %s: %w", path, rerr)
		}
		bytesRead += int64(len(data))
		addData(data)
	}
	return records, names, bytesRead, nil
}

// readTextLines materializes a text source's lines (inline data or one
// file). Shared by the cold path and cached-plan rebinding.
func readTextLines(src *logical.TextSource) ([][]byte, int64, error) {
	data := src.Data
	var n int64
	if data == nil {
		var err error
		data, err = os.ReadFile(src.Path)
		if err != nil {
			return nil, 0, fmt.Errorf("core: reading %s: %w", src.Path, err)
		}
		n = int64(len(data))
	}
	return splitPlainLines(data), n, nil
}

func (eng *engine) mkSampleCfg(nullValues []string) sample.Config {
	cfg := eng.opts.Sample
	if nullValues != nil {
		cfg.NullValues = nullValues
	}
	return cfg
}

// typeColFacts seeds type-only dataflow facts for a schema (no value
// statistics, hence no guard obligations).
func typeColFacts(schema *types.Schema) []dataflow.ColFact {
	facts := make([]dataflow.ColFact, schema.Len())
	for i := range facts {
		facts[i].Type = schema.Col(i).Type
	}
	return facts
}

// seedColFacts derives the dataflow seeds for a stage input schema from
// the sampled per-column statistics. idxs maps schema positions to
// stats positions (nil for identity). Value-statistic facts describe
// the sample only; any specialization resting on them is guarded.
func seedColFacts(schema *types.Schema, stats []sample.ColumnStats, idxs []int) []dataflow.ColFact {
	facts := typeColFacts(schema)
	for i := range facts {
		si := i
		if idxs != nil {
			if i >= len(idxs) {
				continue
			}
			si = idxs[i]
		}
		if si < 0 || si >= len(stats) {
			continue
		}
		st := &stats[si]
		if c, ok := st.ConstValue(); ok {
			facts[i].Const = c
		}
		if lo, hi, ok := st.IntRange(); ok {
			facts[i].Lo, facts[i].Hi, facts[i].HasRange = lo, hi, true
		}
	}
	return facts
}

// projectedFields maps the pushed projection to parser fields, the
// stage input schema (source column order), and the source column index
// of each projected field.
func projectedFields(plan *sample.CasePlan, proj []string) ([]csvio.FieldSpec, *types.Schema, []int) {
	full := plan.Schema
	var idxs []int
	if proj == nil {
		idxs = make([]int, full.Len())
		for i := range idxs {
			idxs[i] = i
		}
	} else {
		seen := map[int]bool{}
		for _, name := range proj {
			if i, ok := full.Lookup(name); ok && !seen[i] {
				idxs = append(idxs, i)
				seen[i] = true
			}
		}
		sort.Ints(idxs)
		if len(idxs) == 0 {
			// Degenerate projection (e.g. a count-only pipeline): keep
			// the first column so rows still flow.
			idxs = []int{0}
		}
	}
	fields := make([]csvio.FieldSpec, len(idxs))
	cols := make([]types.Column, len(idxs))
	for i, idx := range idxs {
		fields[i] = csvio.FieldSpec{Col: idx, Type: full.Col(idx).Type}
		cols[i] = full.Col(idx)
	}
	return fields, types.NewSchema(cols), idxs
}

func (eng *engine) partSize(n int) int {
	per := n / (4 * eng.opts.Executors)
	if per < 1024 {
		per = 1024
	}
	if per > eng.opts.PartitionRows {
		per = eng.opts.PartitionRows
	}
	return per
}

func splitRange(n, size int) [][2]int {
	if n == 0 {
		return [][2]int{{0, 0}}
	}
	var out [][2]int
	for start := 0; start < n; start += size {
		end := start + size
		if end > n {
			end = n
		}
		out = append(out, [2]int{start, end})
	}
	return out
}

// splitPlainLines splits text content on newlines (no quoting).
func splitPlainLines(data []byte) [][]byte {
	var out [][]byte
	start := 0
	for i := 0; i < len(data); i++ {
		if data[i] == '\n' {
			end := i
			if end > start && data[end-1] == '\r' {
				end--
			}
			out = append(out, data[start:end])
			start = i + 1
		}
	}
	if start < len(data) {
		out = append(out, data[start:])
	}
	return out
}
