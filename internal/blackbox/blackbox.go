// Package blackbox implements the comparison engines of §6.1 that treat
// Python UDFs as opaque functions: PySpark (RDD and SparkSQL flavors),
// Dask, and plain single-threaded CPython/Pandas-style execution. All
// rows are boxed pyvalue objects and UDFs run in internal/interp — the
// cost structure the paper attributes to these systems:
//
//   - black-box UDFs: no end-to-end optimization, no projection pushdown
//     through UDFs, per-operator row materialization;
//   - PySpark mode: every UDF call crosses a serialization boundary
//     (JVM↔Python worker), modeled by really encoding/decoding rows with
//     a pickle-like binary codec;
//   - PySparkSQL mode: relational operators and string functions run
//     natively ("JVM codegen"), but UDF calls still pay serde+interp;
//   - Dask mode: everything interpreted in one process per worker — no
//     serde, but also nothing native;
//   - UDFs optionally run under the transpiled (Cython/Nuitka) or traced
//     (PyPy) interp modes for the §6.2.1 comparisons.
package blackbox

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/gotuplex/tuplex/internal/csvio"
	"github.com/gotuplex/tuplex/internal/interp"
	"github.com/gotuplex/tuplex/internal/pyast"
	"github.com/gotuplex/tuplex/internal/pyvalue"
)

// Mode selects the simulated system.
type Mode int

const (
	// ModePython is single-threaded interpreted execution (the CPython
	// baseline of Fig. 3a).
	ModePython Mode = iota
	// ModePySpark is parallel execution with a serde boundary around
	// every UDF call (RDD-style).
	ModePySpark
	// ModePySparkSQL adds native relational/string operators; UDFs still
	// pay serde.
	ModePySparkSQL
	// ModeDask is parallel interpreted execution without serde.
	ModeDask
)

func (m Mode) String() string {
	switch m {
	case ModePython:
		return "python"
	case ModePySpark:
		return "pyspark"
	case ModePySparkSQL:
		return "pysparksql"
	default:
		return "dask"
	}
}

// UDFEngine selects how UDFs execute (the §6.2.1 compiler comparisons).
type UDFEngine int

const (
	// EngineInterp is tree-walking interpretation (CPython).
	EngineInterp UDFEngine = iota
	// EngineTranspiled is one-time closure compilation over boxed values
	// (Cython/Nuitka analog).
	EngineTranspiled
	// EngineTraced is warm-up tracing with guards and deopt (PyPy
	// analog).
	EngineTraced
)

// RowFormat selects how whole-row UDFs receive rows (Fig. 3's dict vs
// tuple pipelines).
type RowFormat int

const (
	// RowsAsDicts passes rows as Python dicts keyed by column name.
	RowsAsDicts RowFormat = iota
	// RowsAsTuples passes rows as Python tuples.
	RowsAsTuples
)

// Config parameterizes an Engine.
type Config struct {
	Mode      Mode
	Executors int
	UDFEngine UDFEngine
	RowFormat RowFormat
	// CExtCost simulates PyPy's cpyext conversion overhead when
	// combined with Pandas/Dask-style extension boundaries (copies per
	// boundary crossing); 0 disables.
	CExtCost int
	Seed     uint64
	// DropFailed drops a row whose UDF raises, counting it in Failed,
	// instead of aborting the run: the try/except around each row a
	// script over dirty data needs.
	DropFailed bool
}

// Engine executes black-box pipelines.
type Engine struct {
	cfg    Config
	failed atomic.Int64
}

// Failed reports the rows dropped under Config.DropFailed.
func (e *Engine) Failed() int64 { return e.failed.Load() }

// New returns an engine.
func New(cfg Config) *Engine {
	if cfg.Executors <= 0 {
		cfg.Executors = 1
	}
	return &Engine{cfg: cfg}
}

// Frame is a materialized boxed table: the unit every operator consumes
// and produces (the per-operator materialization barrier of black-box
// engines).
type Frame struct {
	Columns []string
	Rows    [][]pyvalue.Value
}

// colIndex finds a column.
func (f *Frame) colIndex(name string) (int, error) {
	for i, c := range f.Columns {
		if c == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("blackbox: no column %q (have %v)", name, f.Columns)
}

// udf is one prepared black-box UDF.
type udf struct {
	fn      *pyast.Function
	globals map[string]pyvalue.Value
	access  *pyast.ColumnAccess
}

// prepare parses UDF source once (like pickling a function to workers).
func (e *Engine) prepare(src string, globals map[string]pyvalue.Value) (*udf, error) {
	fn, err := pyast.ParseUDF(src)
	if err != nil {
		return nil, err
	}
	return &udf{fn: fn, globals: globals, access: pyast.AnalyzeColumns(fn)}, nil
}

// worker is per-executor state.
type worker struct {
	eng      *Engine
	ip       *interp.Interp
	compiled map[*udf]*interp.Compiled
	traced   map[*udf]*interp.Traced
}

func (e *Engine) newWorker(seed uint64) *worker {
	return &worker{
		eng:      e,
		ip:       interp.New(nil),
		compiled: map[*udf]*interp.Compiled{},
		traced:   map[*udf]*interp.Traced{},
	}
}

// call invokes a UDF under the configured engine, paying the serde
// boundary in PySpark modes.
func (w *worker) call(u *udf, args []pyvalue.Value) (pyvalue.Value, error) {
	if w.eng.cfg.Mode == ModePySpark || w.eng.cfg.Mode == ModePySparkSQL {
		// JVM -> Python worker: encode and decode the arguments.
		for i, a := range args {
			args[i] = roundTrip(a)
		}
	}
	w.ip.Globals = u.globals
	var v pyvalue.Value
	var err error
	switch w.eng.cfg.UDFEngine {
	case EngineTranspiled:
		c := w.compiled[u]
		if c == nil {
			c, err = w.ip.Compile(u.fn)
			if err != nil {
				return nil, err
			}
			w.compiled[u] = c
		}
		v, err = c.Call(w.ip, args)
	case EngineTraced:
		t := w.traced[u]
		if t == nil {
			t = interp.NewTraced(w.ip, u.fn, 0)
			t.CExtBoundaryCost = w.eng.cfg.CExtCost
			w.traced[u] = t
		}
		v, err = t.Call(args)
	default:
		v, err = w.ip.Call(u.fn, args)
	}
	if err != nil {
		return nil, err
	}
	if w.eng.cfg.Mode == ModePySpark || w.eng.cfg.Mode == ModePySparkSQL {
		// Python worker -> JVM: encode and decode the result.
		v = roundTrip(v)
	}
	return v, nil
}

// rowArg builds the UDF argument for a whole row. Single-column rows
// pass the bare value unless the UDF indexes the row by column name.
func (w *worker) rowArg(u *udf, f *Frame, row []pyvalue.Value) pyvalue.Value {
	if len(f.Columns) == 1 && len(row) == 1 {
		byName := u != nil && len(u.access.ByName) > 0 && u.access.ByName[0] == f.Columns[0]
		if !byName {
			return row[0]
		}
	}
	if w.eng.cfg.RowFormat == RowsAsTuples {
		return &pyvalue.Tuple{Items: row}
	}
	// SparkSQL projects a UDF's input columns before shipping rows to the
	// Python worker — one reason it beats RDD-mode PySpark and Dask on
	// wide tables (§6.1.2's "compiled query plan").
	if w.eng.cfg.Mode == ModePySparkSQL && u != nil && !u.access.WholeRow && len(u.access.ByName) > 0 {
		d := pyvalue.NewDict()
		for _, name := range u.access.ByName {
			for i, c := range f.Columns {
				if c == name && i < len(row) {
					d.Set(c, row[i])
					break
				}
			}
		}
		return d
	}
	d := pyvalue.NewDict()
	for i, c := range f.Columns {
		if i < len(row) {
			d.Set(c, row[i])
		}
	}
	return d
}

// parallelMap fans row transformation across executors, materializing a
// full output frame (the per-op barrier).
func (e *Engine) parallelMap(f *Frame, apply func(w *worker, row []pyvalue.Value) ([][]pyvalue.Value, error)) (*Frame, [][]pyvalue.Value, error) {
	n := len(f.Rows)
	workers := e.cfg.Executors
	if workers > n {
		workers = max(1, n)
	}
	chunk := (n + workers - 1) / max(1, workers)
	outs := make([][][]pyvalue.Value, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for wi := range workers {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			w := e.newWorker(uint64(wi))
			lo := wi * chunk
			hi := min(n, lo+chunk)
			var out [][]pyvalue.Value
			for _, row := range f.Rows[lo:hi] {
				produced, err := apply(w, row)
				if err != nil && e.cfg.DropFailed {
					e.failed.Add(1)
					continue
				}
				if err != nil {
					errs[wi] = err
					return
				}
				out = append(out, produced...)
			}
			outs[wi] = out
		}(wi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	var rows [][]pyvalue.Value
	for _, o := range outs {
		rows = append(rows, o...)
	}
	return f, rows, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// CSV loads a CSV frame (general per-cell sniffing, like schema
// inference in these systems).
func (e *Engine) CSV(data []byte, header bool, delim byte, columns []string, nullValues []string) (*Frame, error) {
	if delim == 0 {
		delim = ','
	}
	if nullValues == nil {
		nullValues = csvio.DefaultNullValues
	}
	records := csvio.SplitRecords(data)
	if len(records) == 0 {
		return nil, fmt.Errorf("blackbox: empty CSV")
	}
	names := columns
	if header {
		hdr := csvio.SplitCells(records[0], delim, nil)
		records = records[1:]
		if names == nil {
			names = hdr
		}
	}
	f := &Frame{Columns: names, Rows: make([][]pyvalue.Value, 0, len(records))}
	for _, rec := range records {
		f.Rows = append(f.Rows, csvio.GeneralParse(rec, delim, nullValues))
	}
	if names == nil && len(f.Rows) > 0 {
		names = make([]string, len(f.Rows[0]))
		for i := range names {
			names[i] = fmt.Sprintf("_%d", i)
		}
		f.Columns = names
	}
	return f, nil
}

// Text loads newline-delimited text as a single-column frame.
func (e *Engine) Text(data []byte, column string) *Frame {
	if column == "" {
		column = "value"
	}
	f := &Frame{Columns: []string{column}}
	start := 0
	for i := 0; i <= len(data); i++ {
		if i == len(data) || data[i] == '\n' {
			if i > start {
				end := i
				if data[end-1] == '\r' {
					end--
				}
				f.Rows = append(f.Rows, []pyvalue.Value{pyvalue.Str(string(data[start:end]))})
			}
			start = i + 1
		}
	}
	return f
}
