package tuplex_test

import (
	"fmt"
	"strings"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/blackbox"
	"github.com/gotuplex/tuplex/internal/pyvalue"
)

// Columnar edge cases: the column-vector data plane must agree with the
// black-box interpreter engine (single-threaded Python mode: boxed
// values, every UDF interpreted per row, a raising row dropped and
// counted as failed) byte-for-byte on inputs that stress its layout —
// null bitmaps across chunk seams, chunks with no complete record
// payload, all-null columns, and string cells with embedded quotes and
// newlines (which make physical records span raw chunk boundaries).

// pyEngine returns the oracle engine.
func pyEngine() *blackbox.Engine {
	return blackbox.New(blackbox.Config{Mode: blackbox.ModePython, DropFailed: true})
}

// pyCSVFrame loads CSV text into an oracle frame.
func pyCSVFrame(t *testing.T, e *blackbox.Engine, raw string) *blackbox.Frame {
	t.Helper()
	f, err := e.CSV([]byte(raw), true, ',', nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// must unwraps an oracle step; the oracle only errs on a malformed
// test pipeline.
func must(f *blackbox.Frame, err error) *blackbox.Frame {
	if err != nil {
		panic(err)
	}
	return f
}

// wantOracleCSV compares a CSV-sink result with the oracle frame
// rendered by the oracle's CSV writer, plus the row accounting.
func wantOracleCSV(t *testing.T, res *tuplex.Result, e *blackbox.Engine, want *blackbox.Frame) {
	t.Helper()
	if exp := e.ToCSV(want); string(res.CSV) != string(exp) {
		t.Fatalf("CSV differs:\n  engine %q\n  oracle %q", res.CSV, exp)
	}
	wantOracleCounts(t, res, e, len(want.Rows))
}

// wantOracleRows compares a collect result's rows with the oracle
// frame's, cell by cell as Python reprs, plus the row accounting.
func wantOracleRows(t *testing.T, res *tuplex.Result, e *blackbox.Engine, want *blackbox.Frame) {
	t.Helper()
	got := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = reprAny(v)
		}
		got[i] = strings.Join(cells, "|")
	}
	exp := make([]string, len(want.Rows))
	for i, r := range want.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = pyvalue.Repr(v)
		}
		exp[i] = strings.Join(cells, "|")
	}
	if fmt.Sprint(got) != fmt.Sprint(exp) {
		t.Fatalf("rows differ:\n  engine %v\n  oracle %v", got, exp)
	}
	wantOracleCounts(t, res, e, len(want.Rows))
}

// wantOracleCounts checks Output and Failed against the oracle. Ignored
// has no oracle counterpart (it counts exception-path rows that a
// filter, an inner-join miss or an ignore() handler dropped, and which
// rows take the exception path depends on the sampled normal case), so
// it is checked by conservation: every row that left the normal path
// has exactly one outcome.
func wantOracleCounts(t *testing.T, res *tuplex.Result, e *blackbox.Engine, output int) {
	t.Helper()
	c := res.Metrics.Rows
	if c.Output != int64(output) || c.Failed != e.Failed() {
		t.Fatalf("accounting: engine output=%d failed=%d, oracle output=%d failed=%d",
			c.Output, c.Failed, output, e.Failed())
	}
	exc := c.ClassifierRejects + c.NormalPathExceptions
	if left := exc - c.GeneralResolved - c.FallbackResolved - c.ResolverResolved - c.Failed; c.Ignored != left {
		t.Fatalf("accounting: ignored=%d, but %d exception rows leave %d after resolution and failures (%+v)",
			c.Ignored, exc, left, c)
	}
}

func TestColumnarNullBitmapsAcrossChunkSeams(t *testing.T) {
	// Nullable int and str columns with nulls placed so every tiny chunk
	// boundary lands inside a null run somewhere.
	var sb strings.Builder
	sb.WriteString("a,b,c\n")
	for i := range 400 {
		a, b := "", ""
		if i%3 != 0 {
			a = fmt.Sprint(i)
		}
		if i%5 != 0 {
			b = fmt.Sprintf("s%d", i)
		}
		fmt.Fprintf(&sb, "%s,%s,%d\n", a, b, i)
	}
	raw := sb.String()
	const pred = "lambda x: x['c'] % 2 == 0"
	for _, chunk := range []int{1 << 7, 1 << 9, 1 << 12} {
		res, err := tuplex.NewContext(tuplex.WithChunkSize(chunk)).
			CSV("", tuplex.CSVData([]byte(raw))).
			Filter(tuplex.UDF(pred)).
			ToCSV("")
		if err != nil {
			t.Fatal(err)
		}
		e := pyEngine()
		wantOracleCSV(t, res, e, must(e.FilterUDF(pyCSVFrame(t, e, raw), pred, nil)))
		if res.Metrics.Rows.Output != 200 {
			t.Fatalf("chunk=%d: output rows = %d, want 200", chunk, res.Metrics.Rows.Output)
		}
	}
}

func TestColumnarAllNullColumn(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("x,y\n")
	for i := range 50 {
		fmt.Fprintf(&sb, ",%d\n", i)
	}
	const udf = "lambda x: x['y'] * 2"
	res, err := tuplex.NewContext(tuplex.WithChunkSize(1<<7)).
		CSV("", tuplex.CSVData([]byte(sb.String()))).
		WithColumn("z", tuplex.UDF(udf)).
		ToCSV("")
	if err != nil {
		t.Fatal(err)
	}
	e := pyEngine()
	wantOracleCSV(t, res, e, must(e.WithColumnUDF(pyCSVFrame(t, e, sb.String()), "z", udf, nil)))
	if res.Metrics.Rows.Output != 50 {
		t.Fatalf("output rows = %d, want 50", res.Metrics.Rows.Output)
	}
	// The all-null column must render as empty cells, not vanish.
	first := strings.SplitN(string(res.CSV), "\n", 3)
	if len(first) < 2 || !strings.HasPrefix(first[1], ",") {
		t.Fatalf("all-null first column not rendered empty: %q", first[1])
	}
}

func TestColumnarQuotedNewlinesAcrossChunks(t *testing.T) {
	// Records whose quoted cells contain newlines, quotes and delimiters;
	// tiny chunks guarantee raw chunk boundaries fall inside quoted
	// bodies, exercising the record-aligned carry.
	var sb strings.Builder
	sb.WriteString("id,text\n")
	for i := range 120 {
		fmt.Fprintf(&sb, "%d,\"line one %d\nline \"\"two\"\", with comma %d\"\n", i, i, i)
	}
	raw := sb.String()
	const pred = "lambda x: 'two' in x['text']"
	for _, chunk := range []int{1 << 6, 1 << 8} {
		res, err := tuplex.NewContext(tuplex.WithChunkSize(chunk)).
			CSV("", tuplex.CSVData([]byte(raw))).
			Filter(tuplex.UDF(pred)).
			ToCSV("")
		if err != nil {
			t.Fatal(err)
		}
		e := pyEngine()
		wantOracleCSV(t, res, e, must(e.FilterUDF(pyCSVFrame(t, e, raw), pred, nil)))
		if res.Metrics.Rows.Output != 120 {
			t.Fatalf("chunk=%d: output rows = %d, want 120", chunk, res.Metrics.Rows.Output)
		}
		if !strings.Contains(string(res.CSV), "\"line one 7\nline \"\"two\"\", with comma 7\"") {
			t.Fatalf("chunk=%d: quoted newline cell not round-tripped", chunk)
		}
	}
}

func TestColumnarEmptyAndHeaderOnlyInputs(t *testing.T) {
	// Header-only input has no sampleable rows: the engine rejects it
	// up front, streamed or materialized.
	for _, streamed := range []bool{true, false} {
		c := tuplex.NewContext(tuplex.WithStreamingIngest(streamed))
		_, err := c.CSV("", tuplex.CSVData([]byte("a,b\n"))).
			Map(tuplex.UDF("lambda x: x['a']")).
			ToCSV("")
		if err == nil || !strings.Contains(err.Error(), "empty CSV input") {
			t.Fatalf("streamed=%v: err = %v, want empty-input rejection", streamed, err)
		}
	}
}

func TestColumnarEmptyChunksFromFilter(t *testing.T) {
	// A filter that annihilates entire chunks produces empty batches
	// downstream; seams between surviving chunks must stay consistent.
	var sb strings.Builder
	sb.WriteString("n,s\n")
	for i := range 300 {
		fmt.Fprintf(&sb, "%d,v%d\n", i, i)
	}
	const pred, upper = "lambda x: x['n'] >= 290", "lambda x: x.upper()"
	res, err := tuplex.NewContext(tuplex.WithChunkSize(1<<7)).
		CSV("", tuplex.CSVData([]byte(sb.String()))).
		Filter(tuplex.UDF(pred)).
		MapColumn("s", tuplex.UDF(upper)).
		ToCSV("")
	if err != nil {
		t.Fatal(err)
	}
	e := pyEngine()
	f := must(e.FilterUDF(pyCSVFrame(t, e, sb.String()), pred, nil))
	wantOracleCSV(t, res, e, must(e.MapColumnUDF(f, "s", upper, nil)))
	if res.Metrics.Rows.Output != 10 {
		t.Fatalf("output rows = %d, want 10", res.Metrics.Rows.Output)
	}
}

// reprAny renders a collected cell the way pyvalue.Repr renders the
// oracle's boxed cell.
func reprAny(v any) string {
	switch v := v.(type) {
	case nil:
		return "None"
	case bool:
		return pyvalue.Repr(pyvalue.Bool(v))
	case float64:
		return pyvalue.FloatRepr(v)
	case string:
		return pyvalue.Repr(pyvalue.Str(v))
	default:
		return fmt.Sprint(v)
	}
}
