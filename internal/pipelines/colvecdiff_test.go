package pipelines_test

import (
	"bytes"
	"math"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/blackbox"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/handopt"
	"github.com/gotuplex/tuplex/internal/pipelines"
)

// The columnar batch data plane (column-vector partitions, vectorized
// CSV ingest, batch UDF kernels with selection vectors) is the engine's
// only normal-case path, so it is checked end to end against engines
// that share none of it: every paper pipeline runs over dirty data and
// must produce the rows and the row accounting (output/failed/ignored)
// of the black-box interpreter engine in its single-threaded Python
// mode — each UDF interpreted per row over boxed values, a raising row
// dropped and counted as failed — or, for Q6, of the hand-written
// native implementation.

// python returns the oracle engine: black-box single-threaded Python
// with per-row failure handling.
func python() *blackbox.Engine {
	return blackbox.New(blackbox.Config{Mode: blackbox.ModePython, DropFailed: true})
}

// diffCSV compares a CSV-sink result's bytes and accounting against
// the oracle frame rendered by the oracle's own CSV writer.
func diffCSV(t *testing.T, name string, res *tuplex.Result, oracle *blackbox.Engine, want *blackbox.Frame) {
	t.Helper()
	sameCSV(t, name, res.CSV, oracle.ToCSV(want))
	checkAccounting(t, name, res, oracle, len(want.Rows))
}

// sameCSV fails the test at the first byte where the engine's CSV a
// and the oracle's CSV b differ.
func sameCSV(t *testing.T, name string, a, b []byte) {
	t.Helper()
	if string(a) == string(b) {
		return
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo, hiA, hiB := max(0, i-40), min(len(a), i+40), min(len(b), i+40)
	t.Fatalf("%s: CSV differs at byte %d:\n  engine %q\n  oracle %q", name, i, a[lo:hiA], b[lo:hiB])
}

// checkAccounting compares the output and failed counts (and the
// failed-row list) with the oracle's.
func checkAccounting(t *testing.T, name string, res *tuplex.Result, oracle *blackbox.Engine, output int) {
	t.Helper()
	c := res.Metrics.Rows
	if c.Output != int64(output) || c.Failed != oracle.Failed() {
		t.Fatalf("%s: accounting output=%d failed=%d, oracle output=%d failed=%d",
			name, c.Output, c.Failed, output, oracle.Failed())
	}
	if len(res.Failed) != int(oracle.Failed()) {
		t.Fatalf("%s: failed-row list has %d entries, oracle %d", name, len(res.Failed), oracle.Failed())
	}
	checkIgnored(t, name, c)
}

// checkIgnored checks the Ignored count, which has no oracle
// counterpart: it counts exception-path rows that a filter, an
// inner-join miss or an ignore() handler dropped, and which rows take
// the exception path depends on the sampled normal case. Instead every
// row that left the normal path must have exactly one outcome.
func checkIgnored(t *testing.T, name string, c tuplex.RowCounts) {
	t.Helper()
	exc := c.ClassifierRejects + c.NormalPathExceptions
	want := exc - c.GeneralResolved - c.FallbackResolved - c.ResolverResolved - c.Failed
	if c.Ignored != want {
		t.Fatalf("%s: ignored=%d, but %d exception rows minus %d resolved and %d failed leave %d",
			name, c.Ignored, exc, c.GeneralResolved+c.FallbackResolved+c.ResolverResolved, c.Failed, want)
	}
}

func TestColumnarDiffZillow(t *testing.T) {
	raw := data.Zillow(data.ZillowConfig{Rows: 2000, Seed: 123, DirtyFraction: 0.03})
	res, err := pipelines.Zillow(tuplex.NewContext().CSV("", tuplex.CSVData(raw))).ToCSV("")
	if err != nil {
		t.Fatal(err)
	}
	oracle := python()
	want, err := oracle.RunZillow(raw)
	if err != nil {
		t.Fatal(err)
	}
	diffCSV(t, "zillow", res, oracle, want)
}

func TestColumnarDiffZillowStreamed(t *testing.T) {
	// Small chunks force many batch seams.
	raw := data.Zillow(data.ZillowConfig{Rows: 3000, Seed: 7, DirtyFraction: 0.05})
	c := tuplex.NewContext(tuplex.WithChunkSize(8 << 10))
	res, err := pipelines.Zillow(c.CSV("", tuplex.CSVData(raw))).ToCSV("")
	if err != nil {
		t.Fatal(err)
	}
	oracle := python()
	want, err := oracle.RunZillow(raw)
	if err != nil {
		t.Fatal(err)
	}
	diffCSV(t, "zillow/streamed", res, oracle, want)
}

func TestColumnarDiffFlights(t *testing.T) {
	perf := data.Flights(data.FlightsConfig{Rows: 3000, Seed: 321})
	in := pipelines.FlightsSources(tuplex.NewContext(), perf, data.Carriers(), data.Airports())
	res, err := pipelines.Flights(in).ToCSV("")
	if err != nil {
		t.Fatal(err)
	}
	oracle := python()
	want, err := oracle.RunFlights(perf, data.Carriers(), data.Airports())
	if err != nil {
		t.Fatal(err)
	}
	diffCSV(t, "flights", res, oracle, want)
}

func TestColumnarDiffWeblogs(t *testing.T) {
	logs, bad := data.Weblogs(data.WeblogConfig{Rows: 2500, Seed: 77})
	endpoint := -1
	for i, c := range pipelines.WeblogOutputColumns {
		if c == "endpoint" {
			endpoint = i
		}
	}
	for _, variant := range []pipelines.WeblogVariant{pipelines.WeblogStrip, pipelines.WeblogSplit, pipelines.WeblogRegex} {
		c := tuplex.NewContext(tuplex.WithSeed(4242))
		res, err := pipelines.Weblogs(
			c.Text("", tuplex.TextData(logs)),
			c.CSV("", tuplex.CSVData(bad)),
			variant).ToCSV("")
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		oracle := python()
		want, err := oracle.RunWeblogs(logs, bad, variant)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		// The anonymizer draws random letters for "/~user" endpoints;
		// the two engines seed their generators differently, so compare
		// those endpoints up to the drawn user name.
		name := "weblogs/" + variant.String()
		sameCSV(t, name, maskUserEndpoints(res.CSV, endpoint), maskUserEndpoints(oracle.ToCSV(want), endpoint))
		checkAccounting(t, name, res, oracle, len(want.Rows))
	}
}

// maskUserEndpoints rewrites field col of every CSV record in b that
// starts with "/~" (quoted or not) to "/~*" followed by the rest of the
// path after the user name. Every other byte is kept.
func maskUserEndpoints(b []byte, col int) []byte {
	var out []byte
	field, start, quoted := 0, 0, false
	flush := func(end int) {
		f := b[start:end]
		if field == col {
			q := len(f) > 0 && f[0] == '"'
			body := f
			if q {
				body = f[1:]
			}
			if len(body) >= 2 && body[0] == '/' && body[1] == '~' {
				rest := body[2:]
				if j := bytes.IndexAny(rest, "/\""); j >= 0 {
					rest = rest[j:]
				} else {
					rest = nil
				}
				if q {
					out = append(out, '"')
				}
				out = append(append(out, "/~*"...), rest...)
				return
			}
		}
		out = append(out, f...)
	}
	for i := 0; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			quoted = !quoted
		case quoted:
		case c == ',' || c == '\n':
			flush(i)
			out = append(out, c)
			start = i + 1
			if c == ',' {
				field++
			} else {
				field = 0
			}
		}
	}
	flush(len(b))
	return out
}

func TestColumnarDiffThreeOneOne(t *testing.T) {
	raw := data.ThreeOneOne(data.ThreeOneOneConfig{Rows: 4000, Seed: 55})
	res, err := pipelines.ThreeOneOne(tuplex.NewContext().CSV("", tuplex.CSVData(raw))).ToCSV("")
	if err != nil {
		t.Fatal(err)
	}
	oracle := python()
	want, err := oracle.Run311(raw)
	if err != nil {
		t.Fatal(err)
	}
	diffCSV(t, "311", res, oracle, want)
}

func TestColumnarDiffQ6(t *testing.T) {
	// Q6 is an aggregate: compare the scalar against the hand-written
	// native implementation and the accounting against the input.
	raw := data.TPCHLineitem(data.TPCHConfig{Rows: 8000, Seed: 99})
	got, res, err := pipelines.Q6(tuplex.NewContext().CSV("", tuplex.CSVData(raw)))
	if err != nil {
		t.Fatal(err)
	}
	want := handopt.Q6(raw, data.Q6DateLo, data.Q6DateHi)
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("q6 revenue: engine %.6f, native %.6f", got, want)
	}
	c := res.Metrics.Rows
	if c.Input != 8000 || c.Failed != 0 {
		t.Fatalf("q6 accounting: input=%d failed=%d, want 8000/0", c.Input, c.Failed)
	}
	checkIgnored(t, "q6", c)
}
