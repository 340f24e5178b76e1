package blackbox

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"github.com/gotuplex/tuplex/internal/csvio"
	"github.com/gotuplex/tuplex/internal/pyvalue"
)

// MapUDF replaces each row with the UDF result (dicts become columns).
func (e *Engine) MapUDF(f *Frame, src string, globals map[string]pyvalue.Value) (*Frame, error) {
	u, err := e.prepare(src, globals)
	if err != nil {
		return nil, err
	}
	var outCols []string
	var mu chan struct{} // first-result column discovery
	mu = make(chan struct{}, 1)
	mu <- struct{}{}
	_, rows, err := e.parallelMap(f, func(w *worker, row []pyvalue.Value) ([][]pyvalue.Value, error) {
		arg := w.rowArg(u, f, row)
		v, err := w.call(u, []pyvalue.Value{arg})
		if err != nil {
			return nil, err
		}
		switch v := v.(type) {
		case *pyvalue.Dict:
			<-mu
			if outCols == nil {
				outCols = append([]string(nil), v.Keys()...)
			}
			cols := outCols
			mu <- struct{}{}
			out := make([]pyvalue.Value, len(cols))
			for i, k := range cols {
				val, ok := v.Get(k)
				if !ok {
					return nil, fmt.Errorf("blackbox: map result missing key %q", k)
				}
				out[i] = val
			}
			return [][]pyvalue.Value{out}, nil
		case *pyvalue.Tuple:
			return [][]pyvalue.Value{v.Items}, nil
		default:
			return [][]pyvalue.Value{{v}}, nil
		}
	})
	if err != nil {
		return nil, err
	}
	if outCols == nil {
		outCols = []string{"value"}
		if len(rows) > 0 {
			outCols = make([]string, len(rows[0]))
			for i := range outCols {
				outCols[i] = fmt.Sprintf("_%d", i)
			}
			if len(outCols) == 1 {
				outCols[0] = "value"
			}
		}
	}
	return &Frame{Columns: outCols, Rows: rows}, nil
}

// FilterUDF keeps truthy rows.
func (e *Engine) FilterUDF(f *Frame, src string, globals map[string]pyvalue.Value) (*Frame, error) {
	u, err := e.prepare(src, globals)
	if err != nil {
		return nil, err
	}
	_, rows, err := e.parallelMap(f, func(w *worker, row []pyvalue.Value) ([][]pyvalue.Value, error) {
		v, err := w.call(u, []pyvalue.Value{w.rowArg(u, f, row)})
		if err != nil {
			return nil, err
		}
		if pyvalue.Truth(v) {
			return [][]pyvalue.Value{row}, nil
		}
		return nil, nil
	})
	if err != nil {
		return nil, err
	}
	return &Frame{Columns: f.Columns, Rows: rows}, nil
}

// WithColumnUDF appends/replaces a column from a whole-row UDF.
func (e *Engine) WithColumnUDF(f *Frame, col, src string, globals map[string]pyvalue.Value) (*Frame, error) {
	u, err := e.prepare(src, globals)
	if err != nil {
		return nil, err
	}
	replace := -1
	for i, c := range f.Columns {
		if c == col {
			replace = i
		}
	}
	_, rows, err := e.parallelMap(f, func(w *worker, row []pyvalue.Value) ([][]pyvalue.Value, error) {
		v, err := w.call(u, []pyvalue.Value{w.rowArg(u, f, row)})
		if err != nil {
			return nil, err
		}
		if replace >= 0 {
			out := append([]pyvalue.Value{}, row...)
			out[replace] = v
			return [][]pyvalue.Value{out}, nil
		}
		out := append(append([]pyvalue.Value{}, row...), v)
		return [][]pyvalue.Value{out}, nil
	})
	if err != nil {
		return nil, err
	}
	cols := f.Columns
	if replace < 0 {
		cols = append(append([]string{}, f.Columns...), col)
	}
	return &Frame{Columns: cols, Rows: rows}, nil
}

// MapColumnUDF rewrites one column with a scalar UDF.
func (e *Engine) MapColumnUDF(f *Frame, col, src string, globals map[string]pyvalue.Value) (*Frame, error) {
	u, err := e.prepare(src, globals)
	if err != nil {
		return nil, err
	}
	idx, err := f.colIndex(col)
	if err != nil {
		return nil, err
	}
	_, rows, err := e.parallelMap(f, func(w *worker, row []pyvalue.Value) ([][]pyvalue.Value, error) {
		v, err := w.call(u, []pyvalue.Value{row[idx]})
		if err != nil {
			return nil, err
		}
		out := append([]pyvalue.Value{}, row...)
		out[idx] = v
		return [][]pyvalue.Value{out}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Frame{Columns: f.Columns, Rows: rows}, nil
}

// Rename renames a column.
func (e *Engine) Rename(f *Frame, old, new string) (*Frame, error) {
	idx, err := f.colIndex(old)
	if err != nil {
		return nil, err
	}
	cols := append([]string{}, f.Columns...)
	cols[idx] = new
	return &Frame{Columns: cols, Rows: f.Rows}, nil
}

// Select projects columns.
func (e *Engine) Select(f *Frame, cols ...string) (*Frame, error) {
	idxs := make([]int, len(cols))
	for i, c := range cols {
		idx, err := f.colIndex(c)
		if err != nil {
			return nil, err
		}
		idxs[i] = idx
	}
	out := &Frame{Columns: cols, Rows: make([][]pyvalue.Value, len(f.Rows))}
	for r, row := range f.Rows {
		nr := make([]pyvalue.Value, len(idxs))
		for i, idx := range idxs {
			nr[i] = row[idx]
		}
		out.Rows[r] = nr
	}
	return out, nil
}

// Join hash-joins with build (inner or left), prefixing build columns.
func (e *Engine) Join(f, build *Frame, leftKey, rightKey string, left bool, rightPrefix string) (*Frame, error) {
	li, err := f.colIndex(leftKey)
	if err != nil {
		return nil, err
	}
	ri, err := build.colIndex(rightKey)
	if err != nil {
		return nil, err
	}
	table := map[string][][]pyvalue.Value{}
	for _, row := range build.Rows {
		k := boxKey(row[ri])
		if k == "" {
			continue
		}
		proj := make([]pyvalue.Value, 0, len(row)-1)
		for i, v := range row {
			if i != ri {
				proj = append(proj, v)
			}
		}
		table[k] = append(table[k], proj)
	}
	pad := len(build.Columns) - 1
	_, rows, err := e.parallelMap(f, func(w *worker, row []pyvalue.Value) ([][]pyvalue.Value, error) {
		matches := table[boxKey(row[li])]
		if len(matches) == 0 {
			if !left {
				return nil, nil
			}
			out := append([]pyvalue.Value{}, row...)
			for range pad {
				out = append(out, pyvalue.None{})
			}
			return [][]pyvalue.Value{out}, nil
		}
		var outs [][]pyvalue.Value
		for _, m := range matches {
			out := append(append([]pyvalue.Value{}, row...), m...)
			outs = append(outs, out)
		}
		return outs, nil
	})
	if err != nil {
		return nil, err
	}
	cols := append([]string{}, f.Columns...)
	for i, c := range build.Columns {
		if i != ri {
			cols = append(cols, rightPrefix+c)
		}
	}
	return &Frame{Columns: cols, Rows: rows}, nil
}

// Unique deduplicates rows.
func (e *Engine) Unique(f *Frame) *Frame {
	seen := map[string]bool{}
	out := &Frame{Columns: f.Columns}
	for _, row := range f.Rows {
		k := rowKey(row)
		if !seen[k] {
			seen[k] = true
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

// Aggregate folds rows (acc, row) -> acc per worker, merging partials
// with comb.
func (e *Engine) Aggregate(f *Frame, aggSrc, combSrc string, initial pyvalue.Value) (pyvalue.Value, error) {
	u, err := e.prepare(aggSrc, nil)
	if err != nil {
		return nil, err
	}
	comb, err := e.prepare(combSrc, nil)
	if err != nil {
		return nil, err
	}
	n := len(f.Rows)
	workers := max(1, min(e.cfg.Executors, n))
	chunk := (n + workers - 1) / workers
	partials := make([]pyvalue.Value, workers)
	errs := make([]error, workers)
	var wg chan struct{}
	wg = make(chan struct{}, workers)
	for wi := range workers {
		go func(wi int) {
			defer func() { wg <- struct{}{} }()
			w := e.newWorker(uint64(wi))
			acc := initial
			lo := wi * chunk
			hi := min(n, lo+chunk)
			for _, row := range f.Rows[lo:hi] {
				v, err := w.call(u, []pyvalue.Value{acc, w.rowArg(u, f, row)})
				if err != nil && e.cfg.DropFailed {
					e.failed.Add(1)
					continue
				}
				if err != nil {
					errs[wi] = err
					return
				}
				acc = v
			}
			partials[wi] = acc
		}(wi)
	}
	for range workers {
		<-wg
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	w := e.newWorker(0xc0b)
	acc := partials[0]
	for _, p := range partials[1:] {
		v, err := w.call(comb, []pyvalue.Value{acc, p})
		if err != nil {
			return nil, err
		}
		acc = v
	}
	return acc, nil
}

// ToCSV renders the frame.
func (e *Engine) ToCSV(f *Frame) []byte {
	w := csvio.NewWriter(',')
	w.WriteHeader(f.Columns)
	for _, row := range f.Rows {
		w.WriteValues(row)
	}
	return w.Bytes()
}

// ---- Native ("JVM code-generated") operators for PySparkSQL mode ----

// NativeSplitColumns splits a single-column text frame on spaces into n
// named columns (SparkSQL's split + getItem, executed natively).
func (e *Engine) NativeSplitColumns(f *Frame, names []string) (*Frame, error) {
	srcIdx := 0
	out := &Frame{Columns: names, Rows: make([][]pyvalue.Value, 0, len(f.Rows))}
	for _, row := range f.Rows {
		s, ok := row[srcIdx].(pyvalue.Str)
		if !ok {
			continue
		}
		parts := strings.Split(string(s), " ")
		nr := make([]pyvalue.Value, len(names))
		for i := range names {
			if i < len(parts) {
				nr[i] = pyvalue.Str(parts[i])
			} else {
				// SparkSQL getItem out of range yields NULL silently.
				nr[i] = pyvalue.None{}
			}
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// NativeRegexExtract adds a column extracted by a per-column regex using
// Go's stdlib RE2 (the java.util.regex analog: correct, but slower than
// the compiled engine Tuplex uses). A non-match yields ” like SparkSQL's
// regexp_extract — the §7 silent-semantics difference.
func (e *Engine) NativeRegexExtract(f *Frame, srcCol, dstCol, pattern string, group int) (*Frame, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, err
	}
	srcIdx, err := f.colIndex(srcCol)
	if err != nil {
		return nil, err
	}
	cols := append(append([]string{}, f.Columns...), dstCol)
	out := &Frame{Columns: cols, Rows: make([][]pyvalue.Value, len(f.Rows))}
	for r, row := range f.Rows {
		val := ""
		if s, ok := row[srcIdx].(pyvalue.Str); ok {
			if m := re.FindStringSubmatch(string(s)); m != nil && group < len(m) {
				val = m[group]
			}
		}
		out.Rows[r] = append(append([]pyvalue.Value{}, row...), pyvalue.Str(val))
	}
	return out, nil
}

// NativeCastInt converts a string column to ints natively (SparkSQL
// cast); failures become NULL.
func (e *Engine) NativeCastInt(f *Frame, col string) (*Frame, error) {
	idx, err := f.colIndex(col)
	if err != nil {
		return nil, err
	}
	out := &Frame{Columns: f.Columns, Rows: make([][]pyvalue.Value, len(f.Rows))}
	for r, row := range f.Rows {
		nr := append([]pyvalue.Value{}, row...)
		switch v := row[idx].(type) {
		case pyvalue.Str:
			if n, err := strconv.ParseInt(strings.TrimSpace(string(v)), 10, 64); err == nil {
				nr[idx] = pyvalue.Int(n)
			} else {
				nr[idx] = pyvalue.None{}
			}
		case pyvalue.Int:
		default:
			nr[idx] = pyvalue.None{}
		}
		out.Rows[r] = nr
	}
	return out, nil
}

func boxKey(v pyvalue.Value) string {
	switch v := v.(type) {
	case pyvalue.Str:
		return "s:" + string(v)
	case pyvalue.Int:
		return "i:" + strconv.FormatInt(int64(v), 10)
	case pyvalue.Float:
		if f := float64(v); f == float64(int64(f)) {
			return "i:" + strconv.FormatInt(int64(f), 10)
		}
		return "f:" + strconv.FormatFloat(float64(v), 'g', -1, 64)
	case pyvalue.Bool:
		if v {
			return "i:1"
		}
		return "i:0"
	default:
		return ""
	}
}

func rowKey(row []pyvalue.Value) string {
	var sb strings.Builder
	for i, v := range row {
		if i > 0 {
			sb.WriteByte(0)
		}
		sb.WriteString(pyvalue.Repr(v))
	}
	return sb.String()
}
