package tuplex_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/blackbox"
	"github.com/gotuplex/tuplex/internal/pyvalue"
)

// Columnar join edge cases: the vector-native build/probe path must
// agree with the black-box interpreter engine's hash join on inputs
// that stress its layout — keys from all-null columns, string keys long
// enough to span arena chunk seams, a filter-annihilated build side,
// and duplicate-key fan-out ordering (against a nested-loop reference)
// — plus dirty keys whose normal×exception pairs run on the exception
// path, streamed and materialized.

// pyJoin joins two oracle frames on column k.
func pyJoin(t *testing.T, e *blackbox.Engine, probe, build *blackbox.Frame, left bool) *blackbox.Frame {
	t.Helper()
	return must(e.Join(probe, build, "k", "k", left, ""))
}

// pyFrame boxes Go rows into an oracle frame.
func pyFrame(cols []string, in [][]any) *blackbox.Frame {
	f := &blackbox.Frame{Columns: cols}
	for _, r := range in {
		row := make([]pyvalue.Value, len(r))
		for i, v := range r {
			switch v := v.(type) {
			case int64:
				row[i] = pyvalue.Int(v)
			case string:
				row[i] = pyvalue.Str(v)
			}
		}
		f.Rows = append(f.Rows, row)
	}
	return f
}

// TestColumnarJoinAllNullKeyColumns: every key cell on one (then both)
// sides is null. A null key matches nothing, so inner joins drop the
// row and left joins pad it, as in the oracle.
func TestColumnarJoinAllNullKeyColumns(t *testing.T) {
	var build, probe strings.Builder
	build.WriteString("k,name\n")
	probe.WriteString("k,v\n")
	for i := range 50 {
		fmt.Fprintf(&build, ",b%d\n", i)
		if i%2 == 0 {
			fmt.Fprintf(&probe, ",p%d\n", i)
		} else {
			fmt.Fprintf(&probe, "%d,p%d\n", i, i)
		}
	}
	for _, left := range []bool{false, true} {
		c := tuplex.NewContext()
		lhs := c.CSV("", tuplex.CSVData([]byte(probe.String())))
		rhs := c.CSV("", tuplex.CSVData([]byte(build.String())))
		var res *tuplex.Result
		var err error
		if left {
			res, err = lhs.LeftJoin(rhs, "k", "k").Collect()
		} else {
			res, err = lhs.Join(rhs, "k", "k").Collect()
		}
		if err != nil {
			t.Fatal(err)
		}
		e := pyEngine()
		wantOracleRows(t, res, e, pyJoin(t, e, pyCSVFrame(t, e, probe.String()), pyCSVFrame(t, e, build.String()), left))
	}
}

// TestColumnarJoinArenaSeamKeys: string keys from a few hundred bytes
// up past the string arena's largest chunk size (64 KiB), so encoded
// keys routinely start in one arena chunk and end in another on both
// the build and probe vectors.
func TestColumnarJoinArenaSeamKeys(t *testing.T) {
	key := func(i int) string {
		return fmt.Sprintf("k%d-%s", i, strings.Repeat(string(rune('a'+i%26)), 300+i*700%70000))
	}
	var build, probe strings.Builder
	build.WriteString("k,name\n")
	probe.WriteString("k,v\n")
	for i := range 120 {
		fmt.Fprintf(&build, "%s,b%d\n", key(i), i)
		fmt.Fprintf(&probe, "%s,p%d\n", key(i*3%150), i)
	}
	c := tuplex.NewContext()
	lhs := c.CSV("", tuplex.CSVData([]byte(probe.String())))
	rhs := c.CSV("", tuplex.CSVData([]byte(build.String())))
	res, err := lhs.Join(rhs, "k", "k").ToCSV("")
	if err != nil {
		t.Fatal(err)
	}
	e := pyEngine()
	wantOracleCSV(t, res, e, pyJoin(t, e, pyCSVFrame(t, e, probe.String()), pyCSVFrame(t, e, build.String()), false))
	if !strings.Contains(string(res.CSV), ",b3\n") && !strings.Contains(string(res.CSV), ",b3\r\n") {
		t.Fatalf("expected some matches in output, got %d bytes", len(res.CSV))
	}
}

// TestColumnarJoinFilterAnnihilatedBuild: a filter drops every build
// row before the join, leaving an empty build table. Inner joins must
// emit nothing; left joins must pad every probe row.
func TestColumnarJoinFilterAnnihilatedBuild(t *testing.T) {
	buildRows := make([][]any, 30)
	for i := range buildRows {
		buildRows[i] = []any{int64(i), fmt.Sprintf("b%d", i)}
	}
	probeRows := make([][]any, 20)
	for i := range probeRows {
		probeRows[i] = []any{int64(i), fmt.Sprintf("p%d", i)}
	}
	const pred = "lambda x: x['k'] < 0"
	for _, left := range []bool{false, true} {
		c := tuplex.NewContext()
		rhs := c.Parallelize(buildRows, []string{"k", "name"}).Filter(tuplex.UDF(pred))
		lhs := c.Parallelize(probeRows, []string{"k", "v"})
		var res *tuplex.Result
		var err error
		if left {
			res, err = lhs.LeftJoin(rhs, "k", "k").Collect()
		} else {
			res, err = lhs.Join(rhs, "k", "k").Collect()
		}
		if err != nil {
			t.Fatal(err)
		}
		e := pyEngine()
		build := must(e.FilterUDF(pyFrame([]string{"k", "name"}, buildRows), pred, nil))
		wantOracleRows(t, res, e, pyJoin(t, e, pyFrame([]string{"k", "v"}, probeRows), build, left))
		if left && len(res.Rows) != len(probeRows) {
			t.Fatalf("left join over empty build: rows = %d, want %d", len(res.Rows), len(probeRows))
		}
		if !left && len(res.Rows) != 0 {
			t.Fatalf("inner join over empty build: rows = %v, want none", res.Rows)
		}
	}
}

// TestColumnarJoinDuplicateKeyFanOut: heavy duplicate-key fan-out (each
// probe row matches many build rows) must keep build input order within
// each probe row's matches, at one and several executors, exactly as a
// nested-loop join over the inputs does.
func TestColumnarJoinDuplicateKeyFanOut(t *testing.T) {
	const buildN, probeN, keys = 200, 60, 5
	buildRows := make([][]any, buildN)
	for i := range buildRows {
		buildRows[i] = []any{int64(i % keys), fmt.Sprintf("b%d", i)}
	}
	probeRows := make([][]any, probeN)
	for i := range probeRows {
		probeRows[i] = []any{int64(i % (keys + 2)), fmt.Sprintf("p%d", i)}
	}
	var want []string
	for _, pr := range probeRows {
		for _, br := range buildRows {
			if pr[0] == br[0] {
				want = append(want, fmt.Sprint([]any{pr[0], pr[1], br[1]}))
			}
		}
	}
	for _, execs := range []int{1, 4} {
		c := tuplex.NewContext(tuplex.WithExecutors(execs))
		lhs := c.Parallelize(probeRows, []string{"k", "v"})
		rhs := c.Parallelize(buildRows, []string{"k", "name"})
		res, err := lhs.Join(rhs, "k", "k").Collect()
		if err != nil {
			t.Fatal(err)
		}
		if c := res.Metrics.Rows; c.Output != int64(len(want)) || c.Failed != 0 || c.Ignored != 0 {
			t.Fatalf("executors=%d: accounting output=%d failed=%d ignored=%d, want %d/0/0",
				execs, c.Output, c.Failed, c.Ignored, len(want))
		}
		got := make([]string, 0, len(res.Rows))
		for _, r := range res.Rows {
			got = append(got, fmt.Sprint([]any(r)))
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("executors=%d: fan-out order diverges from nested-loop reference (%d vs %d rows)",
				execs, len(got), len(want))
		}
	}
}

// TestColumnarJoinDirtyKeyPairsDiff: NC/EC join pairs — both sides
// carry dirty key cells (bools and garbage in an int column) that land
// on the exception path and must join consistently with the sharded
// normal-case table, as the oracle's single hash join does, materialized
// and streamed.
func TestColumnarJoinDirtyKeyPairsDiff(t *testing.T) {
	var build, probe strings.Builder
	build.WriteString("k,name\n")
	probe.WriteString("k,v\n")
	for i := range 800 {
		switch {
		case i%97 == 0:
			fmt.Fprintf(&build, "True,b%d\n", i)
		case i%53 == 0:
			fmt.Fprintf(&build, "junk-%d,b%d\n", i, i)
		default:
			fmt.Fprintf(&build, "%d,b%d\n", i%120, i)
		}
		switch {
		case i%89 == 0:
			fmt.Fprintf(&probe, "False,p%d\n", i)
		case i%41 == 0:
			fmt.Fprintf(&probe, "bad-%d,p%d\n", i, i)
		default:
			fmt.Fprintf(&probe, "%d,p%d\n", i%150, i)
		}
	}
	for _, streamed := range []bool{false, true} {
		extra := []tuplex.Option{tuplex.WithStreamingIngest(false)}
		if streamed {
			extra = []tuplex.Option{tuplex.WithChunkSize(2 << 10)}
		}
		for _, left := range []bool{false, true} {
			c := tuplex.NewContext(extra...)
			lhs := c.CSV("", tuplex.CSVData([]byte(probe.String())))
			rhs := c.CSV("", tuplex.CSVData([]byte(build.String())))
			var res *tuplex.Result
			var err error
			if left {
				res, err = lhs.LeftJoin(rhs, "k", "k").ToCSV("")
			} else {
				res, err = lhs.Join(rhs, "k", "k").ToCSV("")
			}
			if err != nil {
				t.Fatal(err)
			}
			e := pyEngine()
			want := pyJoin(t, e, pyCSVFrame(t, e, probe.String()), pyCSVFrame(t, e, build.String()), left)
			// A probe row whose key also matches exception-path build rows
			// (True == 1) joins on the exception path, which emits its
			// normal-table matches before its exception-path matches
			// rather than in build input order; compare each probe row's
			// matches as a set.
			if got, exp := byProbeRow(res.CSV), byProbeRow(e.ToCSV(want)); got != exp {
				t.Fatalf("streamed=%v left=%v: CSV differs:\n  engine %q\n  oracle %q", streamed, left, got, exp)
			}
			wantOracleCounts(t, res, e, len(want.Rows))
		}
	}
}

// byProbeRow sorts each run of CSV lines that share their first two
// cells (one probe row's join matches) and rejoins the lines.
func byProbeRow(csv []byte) string {
	lines := strings.Split(string(csv), "\n")
	probeOf := func(l string) string {
		if i := strings.IndexByte(l, ','); i >= 0 {
			if j := strings.IndexByte(l[i+1:], ','); j >= 0 {
				return l[:i+1+j]
			}
		}
		return l
	}
	for start := 0; start < len(lines); {
		end := start + 1
		for end < len(lines) && probeOf(lines[end]) == probeOf(lines[start]) {
			end++
		}
		sort.Strings(lines[start:end])
		start = end
	}
	return strings.Join(lines, "\n")
}
