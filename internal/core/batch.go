package core

// Columnar batch execution: the one normal-case data plane. Every
// stage compiles its map/filter/withColumn/mapColumn/select/join
// operators and its terminal into batch kernels over column vectors
// (internal/colvec). Ingest appends cells directly onto typed source
// vectors — the generated CSV parser, one string cell per text line, or
// slot rows from a Parallelize source or the previous stage's
// materialization. Adjacent per-row kernels fuse into one pass over the
// shared selection vector, joins probe the sharded build table and emit
// gathered column vectors, and filters shrink the selection instead of
// copying columns. A row that fails classification or raises in a
// kernel leaves the plane for the pooled exception path (general case,
// fallback, resolvers; boxed.go).
//
// Join fan-out aborts depth-first: the first failure downstream of a
// join pools the SOURCE row once (unscaled key — resolve replays the
// whole boxed program from source values) and invalidates the same
// source's not-yet-processed output rows, while already-emitted earlier
// matches stay.

import (
	"github.com/gotuplex/tuplex/internal/colvec"
	"github.com/gotuplex/tuplex/internal/physical"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/rows"
	"github.com/gotuplex/tuplex/internal/types"
)

// batchMaxRows bounds one batch so vector memory stays chunk-sized even
// for materialized partitions.
const batchMaxRows = 4096

// bkKind enumerates batch kernel kinds.
type bkKind uint8

const (
	bkMap bkKind = iota
	bkFilter
	bkWithColumn
	bkMapColumn
	bkSelect
	bkJoin
)

// batchKernel is one operator compiled for batch execution.
type batchKernel struct {
	kind bkKind
	su   *stageUDF
	ridx int32
	// ki is the kernel's index in the stage plan (set by fuseKernels);
	// it addresses the kernel's derived vectors in batchState.
	ki int
	// scalar marks UDFs receiving a bare column value; colIdx is that
	// column (also the mapColumn target, the withColumn replace index
	// with -1 = append, and the join probe-key column).
	scalar bool
	colIdx int
	// inCols is the schema width entering the op; argCols lists the
	// columns a whole-row UDF actually reads (accessed columns plus guard
	// columns; nil = fill every column).
	inCols  int
	argCols []int
	// outTypes types the derived output vectors (map: one per output
	// column; withColumn/mapColumn: one; join: the full output schema).
	outTypes []types.Type
	// perm is the select permutation.
	perm []int
	// join state (bkJoin): the materialized build table and the
	// left-outer flag.
	join      *buildTable
	leftOuter bool
}

// batchProg is a stage's batch plan.
type batchProg struct {
	kernels []*batchKernel
	// groups partitions the kernels into fused passes: runs of adjacent
	// map/filter/withColumn/mapColumn kernels execute in one scan over
	// the selection vector; select and join kernels form singleton
	// groups (they change the column layout / index space).
	groups [][]*batchKernel
}

// fuseKernels partitions the kernels into fused passes and stamps
// each kernel's plan index.
func fuseKernels(kernels []*batchKernel) [][]*batchKernel {
	var groups [][]*batchKernel
	var cur []*batchKernel
	for i, k := range kernels {
		k.ki = i
		switch k.kind {
		case bkSelect, bkJoin:
			if len(cur) > 0 {
				groups = append(groups, cur)
				cur = nil
			}
			groups = append(groups, []*batchKernel{k})
		default:
			cur = append(cur, k)
		}
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}

// batchState is the per-task reusable batch memory: ingest target
// vectors, per-kernel derived vectors, selection double-buffer, order
// keys and source rows of the current batch, plus the join index-space
// remapping state.
type batchState struct {
	src     []*colvec.Vec
	derived [][]*colvec.Vec
	cols    []*colvec.Vec
	cols2   []*colvec.Vec
	sel     []int32
	sel2    []int32
	// keys / raws / srcRows are indexed by SOURCE batch position: the
	// per-record order keys, raw records (record ingest) and slot rows
	// (slot ingest) of the rows that survived classification.
	keys    []uint64
	raws    [][]byte
	srcRows []rows.Row
	argBuf  []rows.Slot

	// n is the current index-space size: the source row count until a
	// join remaps the batch to its fan-out output space.
	n int

	// srcIdx maps current index → source index (nil = identity, before
	// any join); outKeys carries the join-scaled order keys (nil =
	// bst.keys, unscaled). The *2 twins are the swap spares.
	srcIdx, srcIdx2   []int32
	outKeys, outKeys2 []uint64

	// dropped marks current-index rows invalidated by a same-source
	// failure earlier in the pass; pooledSrc marks source rows already
	// pooled (one pool entry per source row: its first failure aborts it).
	dropped, pooledSrc    colvec.Bitmap
	anyDropped, anyPooled bool

	// Fused-pass scratch: per-kernel input column views (arena-backed),
	// the set of vectors writable within the current group, the per-
	// kernel argument accessors, and the CSV renderer's per-column
	// no-null flags.
	views     [][]*colvec.Vec
	viewArena []*colvec.Vec
	writeSet  []*colvec.Vec
	argFns    []func(int32) rows.Slot
	noNull    []bool
}

func newBatchState(cs *compiledStage) *batchState {
	bst := &batchState{}
	if cs.parse != nil {
		bst.src = cs.parse.NewVecsFor()
	} else {
		bst.src = make([]*colvec.Vec, cs.inSchema.Len())
		for i := range bst.src {
			bst.src[i] = colvec.NewVec(cs.inSchema.Col(i).Type)
		}
	}
	bst.derived = make([][]*colvec.Vec, len(cs.batch.kernels))
	for ki, k := range cs.batch.kernels {
		if len(k.outTypes) == 0 {
			continue
		}
		vecs := make([]*colvec.Vec, len(k.outTypes))
		for j, t := range k.outTypes {
			vecs[j] = colvec.NewVec(t)
		}
		bst.derived[ki] = vecs
	}
	bst.argBuf = make([]rows.Slot, cs.maxCols)
	return bst
}

// getBatchState takes a batch-state from the stage pool (or builds one).
func (cs *compiledStage) getBatchState(ts *task) *batchState {
	if ts.bst == nil {
		if got, ok := cs.bstPool.Get().(*batchState); ok {
			ts.bst = got
		} else {
			ts.bst = newBatchState(cs)
		}
	}
	return ts.bst
}

// putBatchState returns the batch memory to the stage pool: nothing in
// it escapes the task (strings are sealed views under the donated-buffer
// protocol, pooled raw records point at stable input memory or were
// detached, output rows have fresh backing).
func (cs *compiledStage) putBatchState(ts *task) {
	bst := ts.bst
	ts.bst = nil
	cs.bstPool.Put(bst)
}

// beginBatch resets the per-batch state: ingest vectors, index-space
// remaps (back to identity) and failure bitmaps.
func (bst *batchState) beginBatch() {
	for _, v := range bst.src {
		v.Reset()
	}
	bst.keys = bst.keys[:0]
	bst.srcIdx2 = bst.srcIdx[:0]
	bst.srcIdx = nil
	bst.outKeys2 = bst.outKeys[:0]
	bst.outKeys = nil
	bst.dropped.Reset()
	bst.pooledSrc.Reset()
	bst.anyDropped, bst.anyPooled = false, false
}

// srcOf maps a current-index row to its source batch position.
func (bst *batchState) srcOf(r int32) int32 {
	if bst.srcIdx == nil {
		return r
	}
	return bst.srcIdx[r]
}

// keyOf is the row's order key in the current index space (join-scaled
// after a join kernel, the source key before).
func (bst *batchState) keyOf(r int32) uint64 {
	if bst.outKeys == nil {
		return bst.keys[r]
	}
	return bst.outKeys[r]
}

// sourceEx builds the pool entry for source row sr: raw record bytes on
// the record path, boxed source values on the slot path. The key is the
// SOURCE order key — resolve replays the whole boxed program from source
// values and rescales per join.
func (bst *batchState) sourceEx(p int, sr int32, ec ECode, op int32) exRow {
	ex := exRow{part: p, key: bst.keys[sr], ec: ec, op: op}
	if bst.raws != nil {
		ex.raw = bst.raws[sr]
	} else {
		ex.vals = rows.RowToValues(bst.srcRows[sr])
	}
	return ex
}

// failBatchRow handles a normal-path failure at current-index row r:
// pool the source row once and invalidate the same source's later
// output rows (a source row aborts depth-first at its first failure;
// earlier emitted matches stay). Returns 1 iff a new pool entry was
// made: one normal-path exception per source row.
func (cs *compiledStage) failBatchRow(ts *task, bst *batchState, p int, r int32, ec ECode, op int32) int64 {
	sr := bst.srcOf(r)
	if bst.srcIdx != nil {
		// Join fan-out keeps a source's output rows consecutive, so the
		// forward scan covers exactly the not-yet-processed siblings.
		for nr := int(r) + 1; nr < bst.n && bst.srcIdx[nr] == sr; nr++ {
			bst.dropped.Set(nr)
			bst.anyDropped = true
		}
	}
	if bst.anyPooled && bst.pooledSrc.Get(int(sr)) {
		return 0
	}
	bst.pooledSrc.Set(int(sr))
	bst.anyPooled = true
	ts.pool = append(ts.pool, bst.sourceEx(p, sr, ec, op))
	if ts.routeExc != nil {
		ts.routeExc[op]++
	}
	return 1
}

// runRecords feeds raw source records through the batch plan with
// order keys baseKey+i: CSV records parse straight into the source
// vectors, text lines become one string cell each. Rejected records
// pool with their raw bytes. Counters accumulate locally and flush once
// per call — atomics per row would dominate tight loops. copyRaw
// detaches pooled exception rows from the record storage (required
// when records alias a reusable chunk buffer).
func (cs *compiledStage) runRecords(ts *task, p int, recs [][]byte, baseKey uint64, copyRaw bool) error {
	bst := cs.getBatchState(ts)
	var input, rejects, normalExc int64

	for start := 0; start < len(recs); start += batchMaxRows {
		end := min(start+batchMaxRows, len(recs))
		sub := recs[start:end]
		input += int64(len(sub))

		bst.beginBatch()
		bst.srcRows = nil
		bst.raws = bst.raws[:0]
		for i, rec := range sub {
			key := baseKey + uint64(start+i)
			if cs.isText {
				bst.src[0].AppendStrBytes(rec)
			} else if ec := cs.parse.ParseLineVecs(rec, bst.src); ec != 0 {
				rejects++
				ts.pool = append(ts.pool, exRow{part: p, key: key, raw: rec, ec: ec})
				continue
			}
			bst.keys = append(bst.keys, key)
			bst.raws = append(bst.raws, rec)
		}
		normalExc += cs.runBatchBody(ts, bst, p)
	}

	cs.flushPartition(ts, input, rejects, normalExc)
	if copyRaw {
		for i := range ts.pool {
			if ts.pool[i].raw != nil {
				ts.pool[i].raw = append([]byte(nil), ts.pool[i].raw...)
			}
		}
	}
	cs.putBatchState(ts)
	return nil
}

// runSlots feeds slot rows through the batch plan: a Parallelize
// source's rows (order keys baseKey+i; rows that do not match the
// normal schema pool boxed as classifier rejects) or a materialized
// stage input (order keys from keys; the previous stage produced every
// row in this stage's input schema).
func (cs *compiledStage) runSlots(ts *task, p int, in []rows.Row, keys []uint64, baseKey uint64) error {
	bst := cs.getBatchState(ts)
	classify := keys == nil
	var input, rejects, normalExc int64

	for start := 0; start < len(in); start += batchMaxRows {
		end := min(start+batchMaxRows, len(in))
		input += int64(end - start)

		bst.beginBatch()
		bst.raws = nil
		bst.srcRows = bst.srcRows[:0]
		for i := start; i < end; i++ {
			src := in[i]
			key := baseKey + uint64(i)
			if !classify {
				key = keys[i]
			} else if !rowConforms(src, cs.inSchema) {
				rejects++
				ts.pool = append(ts.pool, exRow{part: p, key: key, vals: rows.RowToValues(src), ec: pyvalue.ExcBadParse})
				continue
			}
			for c, v := range bst.src {
				v.AppendSlot(src[c])
			}
			bst.keys = append(bst.keys, key)
			bst.srcRows = append(bst.srcRows, src)
		}
		normalExc += cs.runBatchBody(ts, bst, p)
	}

	cs.flushPartition(ts, input, rejects, normalExc)
	cs.putBatchState(ts)
	return nil
}

// flushPartition publishes one run-partition call's row accounting and
// drains the task-local probe and batch-plane tallies.
func (cs *compiledStage) flushPartition(ts *task, input, rejects, normalExc int64) {
	c := &ts.eng.res.Metrics.Counters
	c.InputRows.Add(input)
	c.ClassifierRejects.Add(rejects)
	c.NormalPathExceptions.Add(normalExc)
	c.NormalRows.Add(input - rejects - normalExc)
	ts.inRows += input
	if ts.route != nil {
		ts.route[0] += input
		ts.routeExc[0] += rejects
	}
	ts.flushProbeCounters()
	ts.flushBatchCounters()
}

// runBatchBody executes the kernel groups and the terminal over one
// ingested batch. Returns the normal-path exception count (one per
// failed source row).
func (cs *compiledStage) runBatchBody(ts *task, bst *batchState, p int) int64 {
	bp := cs.batch
	n := len(bst.keys)
	bst.n = n
	bst.sel = bst.sel[:0]
	for i := 0; i < n; i++ {
		bst.sel = append(bst.sel, int32(i))
	}
	bst.cols = append(bst.cols[:0], bst.src...)

	var normalExc int64
	for _, g := range bp.groups {
		switch g[0].kind {
		case bkJoin:
			normalExc += cs.runJoinKernel(ts, bst, g[0], p)
		case bkSelect:
			k := g[0]
			if ts.route != nil {
				ts.route[k.ridx] += int64(len(bst.sel))
			}
			out := bst.cols2[:0]
			for _, i := range k.perm {
				out = append(out, bst.cols[i])
			}
			bst.cols, bst.cols2 = out, bst.cols
		default:
			normalExc += cs.runGroup(ts, bst, g, p)
		}
	}
	ts.columnarRows += int64(len(bst.sel))

	switch {
	case cs.sinkCSV:
		if ts.route != nil {
			ts.route[cs.termRouteIdx] += int64(len(bst.sel))
		}
		cs.renderBatchCSV(ts, bst)
	case cs.terminal == physical.TerminalUnique:
		if ts.route != nil {
			ts.route[cs.termRouteIdx] += int64(len(bst.sel))
		}
		cs.uniqueBatch(ts, bst)
	case cs.terminal == physical.TerminalAggregate:
		normalExc += cs.aggregateBatch(ts, bst, p)
	default:
		if ts.route != nil {
			ts.route[cs.termRouteIdx] += int64(len(bst.sel))
		}
		cs.gatherBatch(ts, bst)
	}
	return normalExc
}

// layoutAfter simulates kernel k's column-layout transformation over an
// input view (layout is row-independent, so each fused pass computes
// every kernel's input view once per batch).
func layoutAfter(bst *batchState, k *batchKernel, in []*colvec.Vec) []*colvec.Vec {
	d := bst.derived[k.ki]
	switch k.kind {
	case bkFilter:
		return in
	case bkMap:
		return d
	case bkMapColumn:
		out := bst.carve(len(in))
		copy(out, in)
		out[k.colIdx] = d[0]
		return out
	case bkWithColumn:
		if k.colIdx >= 0 {
			out := bst.carve(len(in))
			copy(out, in)
			out[k.colIdx] = d[0]
			return out
		}
		out := bst.carve(len(in) + 1)
		copy(out, in)
		out[len(in)] = d[0]
		return out
	}
	return in
}

// carve takes an n-slot view from the arena (capped so later carves
// never stomp it; a reallocation strands already-filled views safely).
func (bst *batchState) carve(n int) []*colvec.Vec {
	start := len(bst.viewArena)
	if cap(bst.viewArena)-start < n {
		bst.viewArena = append(bst.viewArena, make([]*colvec.Vec, n)...)
	} else {
		bst.viewArena = bst.viewArena[:start+n]
	}
	return bst.viewArena[start : start+n : start+n]
}

// argAccessor builds kernel k's per-row argument reader against its
// input view. Scalar kernels over a column the batch proves all-valid —
// and that no kernel in the current fused group writes — dispatch to a
// null-check-elided variant reading a re-sliced typed array (bounds
// checks hoisted to the [:n] re-slice).
func (cs *compiledStage) argAccessor(ts *task, bst *batchState, k *batchKernel, view []*colvec.Vec, n int) func(int32) rows.Slot {
	if !k.scalar {
		return func(r int32) rows.Slot { return gatherArgView(k, view, bst, int(r)) }
	}
	v := view[k.colIdx]
	writable := false
	for _, w := range bst.writeSet {
		if w == v {
			writable = true
			break
		}
	}
	if !writable && v.AllValid() {
		switch v.Kind {
		case types.KindI64:
			ts.nullElided++
			vals := v.I[:n]
			return func(r int32) rows.Slot { return rows.I64(vals[r]) }
		case types.KindF64:
			ts.nullElided++
			vals := v.F[:n]
			return func(r int32) rows.Slot { return rows.F64(vals[r]) }
		case types.KindBool:
			ts.nullElided++
			vals := v.B[:n]
			return func(r int32) rows.Slot { return rows.Bool(vals[r]) }
		case types.KindStr:
			ts.nullElided++
			return func(r int32) rows.Slot { return rows.Str(v.Str(int(r))) }
		}
	}
	ts.nullChecked++
	return func(r int32) rows.Slot { return v.Slot(int(r)) }
}

// runGroup executes one fused pass: every kernel in the group runs over
// each live row in a single scan of the selection vector, with per-row
// filter short-circuits and the shared drop/pool failure protocol.
//
//tuplex:kernel
func (cs *compiledStage) runGroup(ts *task, bst *batchState, group []*batchKernel, p int) int64 {
	n := bst.n
	// Static per-batch setup: input views, derived vectors grown to the
	// index space, argument accessors.
	bst.viewArena = bst.viewArena[:0]
	bst.views = bst.views[:0]
	cur := bst.cols
	for _, k := range group {
		bst.views = append(bst.views, cur)
		for _, v := range bst.derived[k.ki] {
			v.Reset()
			v.Grow(n)
		}
		cur = layoutAfter(bst, k, cur)
	}
	final := cur
	bst.writeSet = bst.writeSet[:0]
	for _, k := range group {
		bst.writeSet = append(bst.writeSet, bst.derived[k.ki]...)
	}
	bst.argFns = bst.argFns[:0]
	for gi, k := range group {
		bst.argFns = append(bst.argFns, cs.argAccessor(ts, bst, k, bst.views[gi], n))
	}

	var excs int64
	newSel := bst.sel2[:0]
rowLoop:
	for _, r := range bst.sel {
		if bst.anyDropped && bst.dropped.Get(int(r)) {
			continue
		}
		for gi, k := range group {
			if ts.route != nil {
				ts.route[k.ridx]++
			}
			v, ec := callKernelUDF(ts, k.su, bst.argFns[gi](r))
			if ec != 0 {
				excs += cs.failBatchRow(ts, bst, p, r, ec, k.ridx)
				continue rowLoop
			}
			derived := bst.derived[k.ki]
			switch k.kind {
			case bkFilter:
				if !v.Truth() {
					continue rowLoop
				}
			case bkMap:
				switch {
				case len(v.Seq) > 0 && (v.Tag == types.KindDict || v.Tag == types.KindTuple):
					if len(v.Seq) != len(derived) {
						excs += cs.failBatchRow(ts, bst, p, r, pyvalue.ExcUnsupported, k.ridx)
						continue rowLoop
					}
					for j := range derived {
						derived[j].Set(int(r), v.Seq[j])
					}
				case len(derived) == 1:
					derived[0].Set(int(r), v)
				default:
					excs += cs.failBatchRow(ts, bst, p, r, pyvalue.ExcUnsupported, k.ridx)
					continue rowLoop
				}
			case bkWithColumn, bkMapColumn:
				derived[0].Set(int(r), v)
			}
		}
		newSel = append(newSel, r)
	}
	bst.sel, bst.sel2 = newSel, bst.sel
	bst.cols = append(bst.cols[:0], final...)
	ts.fusedPasses++
	return excs
}

// runJoinKernel probes the sharded build table for each live row and
// emits the join output as gathered column vectors, remapping the
// batch's index space to the fan-out output (srcIdx tracks each output
// row's source; outKeys carries the key*256+sub order keys that the
// exception path's resolved rows also use).
//
//tuplex:kernel
func (cs *compiledStage) runJoinKernel(ts *task, bst *batchState, k *batchKernel, p int) int64 {
	bt := k.join
	derived := bst.derived[k.ki]
	for _, v := range derived {
		v.Reset()
	}
	keyVec := bst.cols[k.colIdx]
	nIn := k.inCols
	var excs int64
	newSel := bst.sel2[:0]
	newKeys := bst.outKeys2[:0]
	newSrc := bst.srcIdx2[:0]
	m := 0
	for _, r := range bst.sel {
		if bst.anyDropped && bst.dropped.Get(int(r)) {
			continue
		}
		if ts.route != nil {
			ts.route[k.ridx]++
		}
		key := bst.keyOf(r)
		sr := bst.srcOf(r)
		buf, ok := rows.AppendJoinKey(ts.keyBuf[:0], keyVec.Slot(int(r)))
		ts.keyBuf = buf
		var matches []buildRef
		if ok {
			if bt.genCount > 0 && len(bt.general[string(buf)]) > 0 {
				// Normal×exception join pairs run on the exception path
				// (§4.5 pairwise joins).
				excs += cs.failBatchRow(ts, bst, p, r, pyvalue.ExcUnsupported, k.ridx)
				continue
			}
			matches = bt.lookup(rows.Hash64(buf), buf)
		}
		if len(matches) == 0 {
			ts.probeMisses++
			if !k.leftOuter {
				continue
			}
			for c := 0; c < nIn; c++ {
				derived[c].AppendFrom(bst.cols[c], int(r))
			}
			for c := nIn; c < len(derived); c++ {
				derived[c].AppendNull()
			}
			newSel = append(newSel, int32(m))
			newKeys = append(newKeys, key*256)
			newSrc = append(newSrc, sr)
			m++
			continue
		}
		ts.probeHits++
		for i, ref := range matches {
			sub := uint64(i)
			if sub > 255 {
				sub = 255
			}
			for c := 0; c < nIn; c++ {
				derived[c].AppendFrom(bst.cols[c], int(r))
			}
			bvecs := bt.bparts[ref>>32]
			bi := int(int32(ref))
			for c, bv := range bvecs {
				derived[nIn+c].AppendFrom(bv, bi)
			}
			newSel = append(newSel, int32(m))
			newKeys = append(newKeys, key*256+sub)
			newSrc = append(newSrc, sr)
			m++
		}
	}
	bst.sel, bst.sel2 = newSel, bst.sel
	bst.outKeys, bst.outKeys2 = newKeys, bst.outKeys[:0]
	bst.srcIdx, bst.srcIdx2 = newSrc, bst.srcIdx[:0]
	bst.cols = append(bst.cols[:0], derived...)
	bst.n = m
	// New index space: drop marks from the input space don't carry over
	// (the surviving rows were re-emitted above).
	bst.dropped.Reset()
	bst.anyDropped = false
	return excs
}

// gatherArgView assembles a whole-row UDF argument for batch row r from
// the kernel's input view: the row tuple with only the accessed (and
// guarded) columns filled — unread positions keep stale slots that the
// compiled body never loads.
//
//tuplex:kernel
func gatherArgView(k *batchKernel, view []*colvec.Vec, bst *batchState, r int) rows.Slot {
	row := bst.argBuf[:k.inCols]
	if k.argCols == nil {
		for c, v := range view[:k.inCols] {
			row[c] = v.Slot(r)
		}
	} else {
		for _, c := range k.argCols {
			row[c] = view[c].Slot(r)
		}
	}
	return rows.Tuple(row)
}

// callKernelUDF invokes a kernel's compiled UDF on a gathered argument;
// a UDF without a normal-case form raises ExcUnsupported, sending the
// row to the exception path.
func callKernelUDF(ts *task, su *stageUDF, arg rows.Slot) (rows.Slot, ECode) {
	if su.compiled == nil {
		return rows.Slot{}, pyvalue.ExcUnsupported
	}
	return su.compiled.Call1(ts.frames[su.frameIdx], arg)
}

// renderBatchCSV renders the live rows straight from the vectors into
// the task's CSV writer — no row materialization, no per-cell strings.
// Columns the batch proves all-valid skip the per-cell null check.
//
//tuplex:kernel
func (cs *compiledStage) renderBatchCSV(ts *task, bst *batchState) {
	w := ts.csvW
	noNull := bst.noNull[:0]
	for _, v := range bst.cols {
		nv := v.AllValid()
		if nv {
			ts.nullElided++
		} else {
			ts.nullChecked++
		}
		noNull = append(noNull, nv)
	}
	bst.noNull = noNull
	for _, r := range bst.sel {
		ri := int(r)
		for c, v := range bst.cols {
			if c > 0 {
				w.Delim()
			}
			if !noNull[c] && v.IsNull(ri) {
				continue
			}
			switch v.Kind {
			case types.KindBool:
				w.CellBool(v.B[ri])
			case types.KindI64:
				w.CellI64(v.I[ri])
			case types.KindF64:
				w.CellF64(v.F[ri])
			case types.KindStr:
				w.CellStrBytes(v.RawStr(ri))
			case types.KindNull:
			default:
				w.CellSlot(v.Slots[ri])
			}
		}
		w.EndRecord()
		ts.lineEnds = append(ts.lineEnds, w.Len())
		ts.outKeys = append(ts.outKeys, bst.keyOf(r))
	}
}

// uniqueBatch feeds the live rows into the task's open distinct set (the
// unique terminal): duplicate rows cost one hash lookup over their
// encoded row key and no allocation; the sets merge shard-parallel at
// finish (mergeUnique).
//
//tuplex:kernel
func (cs *compiledStage) uniqueBatch(ts *task, bst *batchState) {
	for _, r := range bst.sel {
		row := ts.rowBuf[:len(bst.cols)]
		for c, v := range bst.cols {
			row[c] = v.Slot(int(r))
		}
		buf := rows.AppendRowKey(ts.keyBuf[:0], row)
		ts.keyBuf = buf
		ts.uniq.insert(rows.Hash64(buf), buf, row, bst.keyOf(r))
	}
}

// aggregateBatch folds the live rows into the task's accumulator slot
// (the columnar aggregate terminal); failures pool the source row like
// every other batch step.
//
//tuplex:kernel
func (cs *compiledStage) aggregateBatch(ts *task, bst *batchState, p int) int64 {
	su := cs.aggUDF
	var excs int64
	for _, r := range bst.sel {
		if bst.anyDropped && bst.dropped.Get(int(r)) {
			continue
		}
		if ts.route != nil {
			ts.route[cs.termRouteIdx]++
		}
		if su == nil || su.compiled == nil {
			excs += cs.failBatchRow(ts, bst, p, r, pyvalue.ExcUnsupported, cs.termRouteIdx)
			continue
		}
		var arg rows.Slot
		if cs.aggScalar {
			arg = bst.cols[0].Slot(int(r))
		} else {
			row := ts.rowBuf[:len(bst.cols)]
			for c, v := range bst.cols {
				row[c] = v.Slot(int(r))
			}
			arg = rows.Tuple(row)
		}
		v, ec := su.compiled.Call2(ts.frames[su.frameIdx], ts.aggSlot, arg)
		if ec != 0 {
			excs += cs.failBatchRow(ts, bst, p, r, ec, cs.termRouteIdx)
			continue
		}
		ts.aggSlot = v
	}
	return excs
}

// gatherBatch materializes the live rows (collect/materialize terminal)
// with one bulk backing allocation per batch.
func (cs *compiledStage) gatherBatch(ts *task, bst *batchState) {
	b := colvec.Batch{Cols: bst.cols, N: bst.n}
	got := b.GatherRows(bst.sel)
	ts.outRows = append(ts.outRows, got...)
	for _, r := range bst.sel {
		ts.outKeys = append(ts.outKeys, bst.keyOf(r))
	}
}

// kernelArgCols resolves the column set a whole-row UDF reads at this
// schema point: accessed columns from the static analysis plus the
// columns its compiled guards test. nil means the analysis could not
// attribute reads (or a name failed to resolve) and the kernel must fill
// every column.
func kernelArgCols(su *stageUDF, schema *types.Schema) []int {
	acc := su.spec.Access
	if acc == nil || acc.WholeRow {
		return nil
	}
	seen := make(map[int]bool)
	var out []int
	add := func(i int) {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	for _, nm := range acc.ByName {
		i, ok := schema.Lookup(nm)
		if !ok {
			return nil
		}
		add(i)
	}
	for _, i := range acc.ByIndex {
		if i < 0 || i >= schema.Len() {
			return nil
		}
		add(i)
	}
	if su.compiled != nil {
		for _, g := range su.compiled.Guards {
			if g.Col < 0 || g.Col >= schema.Len() {
				return nil
			}
			add(g.Col)
		}
	}
	return out
}
