package tuplex_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
)

// The batch plane's two row-fed inputs beyond the CSV parser: text
// sources (one string cell per line) and stages whose input is the
// previous stage's materialization (after Cache(), or every stage after
// the first with stage fusion off). Each is checked against an
// independent oracle.

// textCorpus builds a text input that mixes LF and CRLF endings, empty
// lines, lines longer than a 1 KiB chunk (so chunk seams fall inside
// lines) and a final line without a trailing newline. Lines starting
// with three digits parse in the test UDF; the rest raise ValueError.
func textCorpus() string {
	var sb strings.Builder
	for i := range 400 {
		switch {
		case i%7 == 0:
			// empty line
		case i%11 == 0:
			fmt.Fprintf(&sb, "xyz-%d", i)
		case i == 200:
			fmt.Fprintf(&sb, "%03d-%s", i, strings.Repeat("L", 3000))
		default:
			fmt.Fprintf(&sb, "%03d-%s", i, strings.Repeat("a", i*37%400))
		}
		if i%2 == 1 {
			sb.WriteString("\r\n")
		} else {
			sb.WriteString("\n")
		}
	}
	sb.WriteString("399-last line, no newline")
	return sb.String()
}

// splitTextLines is the oracle line split: '\n' ends a line, a '\r'
// before it belongs to the ending, and a trailing newline does not
// start another line.
func splitTextLines(s string) []string {
	lines := strings.Split(s, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	for i, l := range lines {
		lines[i] = strings.TrimSuffix(l, "\r")
	}
	return lines
}

func TestTextSourceBatchIngest(t *testing.T) {
	text := textCorpus()
	var want []string
	var failed int64
	for _, l := range splitTextLines(text) {
		n, err := strconv.Atoi(l[:min(3, len(l))])
		if err != nil || len(l) < 3 {
			failed++
			continue
		}
		want = append(want, fmt.Sprintf("%s|%d", l, n))
	}
	path := filepath.Join(t.TempDir(), "lines.txt")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, streamed := range []bool{true, false} {
		c := tuplex.NewContext(tuplex.WithChunkSize(1<<10), tuplex.WithExecutors(2))
		src := c.Text(path, tuplex.TextColumn("line"))
		if !streamed {
			src = c.Text("", tuplex.TextData([]byte(text)), tuplex.TextColumn("line"))
		}
		res, err := src.WithColumn("n", tuplex.UDF("lambda x: int(x['line'][:3])")).Collect()
		if err != nil {
			t.Fatalf("streamed=%v: %v", streamed, err)
		}
		got := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			got[i] = fmt.Sprintf("%v|%v", r[0], r[1])
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("streamed=%v: %d rows, want %d:\n got %q\nwant %q", streamed, len(got), len(want), got, want)
		}
		c2 := res.Metrics.Rows
		if c2.Output != int64(len(want)) || c2.Failed != failed || c2.Ignored != 0 {
			t.Fatalf("streamed=%v: accounting output=%d failed=%d ignored=%d, want %d/%d/0",
				streamed, c2.Output, c2.Failed, c2.Ignored, len(want), failed)
		}
		if res.Metrics.Batch.ColumnarRows != c2.Normal {
			t.Fatalf("streamed=%v: %d rows ran columnar, %d completed the normal path",
				streamed, res.Metrics.Batch.ColumnarRows, c2.Normal)
		}

		// The same rows through the CSV sink, read back with the
		// standard library's CSV reader.
		out, err := src.WithColumn("n", tuplex.UDF("lambda x: int(x['line'][:3])")).ToCSV("")
		if err != nil {
			t.Fatalf("streamed=%v: %v", streamed, err)
		}
		recs, err := csv.NewReader(bytes.NewReader(out.CSV)).ReadAll()
		if err != nil {
			t.Fatalf("streamed=%v: reading CSV output: %v", streamed, err)
		}
		got = got[:0]
		for _, r := range recs {
			got = append(got, strings.Join(r, "|"))
		}
		if fmt.Sprint(got) != fmt.Sprint(append([]string{"line|n"}, want...)) {
			t.Fatalf("streamed=%v: CSV has %d records, want header + %d:\n got %q\nwant %q", streamed, len(got), len(want), got, want)
		}
		if c3 := out.Metrics.Rows; c3.Output != int64(len(want)) || c3.Failed != failed {
			t.Fatalf("streamed=%v: CSV accounting output=%d failed=%d, want %d/%d",
				streamed, c3.Output, c3.Failed, len(want), failed)
		}
	}
}

// dirtyNumbers is a CSV whose int column a carries floats (normal-case
// rejects that resolve on the general path and cross the stage barrier
// as exception rows), empty cells and garbage (which fail, some only in
// a later stage). The floats sit past the first sampleRows rows, so the
// sampled normal case types a as int.
func dirtyNumbers() string {
	var sb strings.Builder
	sb.WriteString("a,b\n")
	for i := range 600 {
		switch {
		case i >= sampleRows && i%50 == 3:
			fmt.Fprintf(&sb, "%d.5,s%d\n", i, i)
		case i%61 == 5:
			fmt.Fprintf(&sb, ",s%d\n", i)
		case i%97 == 7:
			fmt.Fprintf(&sb, "bad%d,s%d\n", i, i)
		default:
			fmt.Fprintf(&sb, "%d,s%d\n", i, i)
		}
	}
	return sb.String()
}

// sampleRows is the sample size the materialized-input tests run with.
const sampleRows = 200

func TestMaterializedInputStagesMatchPython(t *testing.T) {
	raw := dirtyNumbers()
	const (
		double = "lambda x: x['a'] * 2"
		keep   = "lambda x: x['c'] % 3 != 0"
		upper  = "lambda x: x.upper()"
		div    = "lambda x: 100 // (x['a'] % 5)"
	)
	e := pyEngine()
	f := must(e.WithColumnUDF(pyCSVFrame(t, e, raw), "c", double, nil))
	f = must(e.FilterUDF(f, keep, nil))
	f = must(e.MapColumnUDF(f, "b", upper, nil))
	want := must(e.WithColumnUDF(f, "d", div, nil))

	for _, tc := range []struct {
		name  string
		opts  []tuplex.Option
		cache bool
	}{
		{"cache", nil, true},
		{"no-fusion", []tuplex.Option{tuplex.WithStageFusion(false)}, false},
		{"cache/no-fusion/parallel", []tuplex.Option{tuplex.WithStageFusion(false), tuplex.WithExecutors(2), tuplex.WithPartitionRows(100)}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]tuplex.Option{tuplex.WithSampleSize(sampleRows)}, tc.opts...)
			ds := tuplex.NewContext(opts...).CSV("", tuplex.CSVData([]byte(raw))).
				WithColumn("c", tuplex.UDF(double))
			if tc.cache {
				ds = ds.Cache()
			}
			res, err := ds.Filter(tuplex.UDF(keep)).
				MapColumn("b", tuplex.UDF(upper)).
				WithColumn("d", tuplex.UDF(div)).
				ToCSV("")
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.NumStages < 2 {
				t.Fatalf("stages = %d, want a materialized stage boundary", res.Metrics.NumStages)
			}
			if exp := e.ToCSV(want); string(res.CSV) != string(exp) {
				t.Fatalf("CSV differs:\n  engine %q\n  oracle %q", res.CSV, exp)
			}
			c := res.Metrics.Rows
			if c.Output != int64(len(want.Rows)) || c.Failed != e.Failed() {
				t.Fatalf("accounting: engine output=%d failed=%d, oracle output=%d failed=%d",
					c.Output, c.Failed, len(want.Rows), e.Failed())
			}
		})
	}
}

// TestSmallFileChunkAllocation: a streamed file far smaller than the
// chunk size must not allocate a chunk-size buffer per run.
func TestSmallFileChunkAllocation(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("a,b\n")
	for i := range 300 {
		fmt.Fprintf(&sb, "%d,v%d\n", i, i%7)
	}
	path := filepath.Join(t.TempDir(), "small.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := tuplex.NewContext().CSV(path).
			WithColumn("c", tuplex.UDF("lambda x: x['a'] + 1")).
			Collect()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 300 {
			t.Fatalf("rows = %d, want 300", len(res.Rows))
		}
	}
	run() // warm package-level pools
	const runs = 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	const chunk = 16 << 20 // the default chunk size
	if perRun > chunk/8 {
		t.Fatalf("%d bytes allocated per run of a %d-byte file; want well below the %d-byte chunk size",
			perRun, sb.Len(), chunk)
	}
	t.Logf("%d bytes allocated per run", perRun)
}
