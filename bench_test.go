// Benchmarks regenerating the paper's evaluation (§6): one testing.B
// benchmark per table/figure, over small fixed datasets so `go test
// -bench=.` completes in minutes. For paper-style output with the
// published reference numbers alongside, run `go run ./cmd/tuplex-bench`
// — both paths share internal/experiments and internal/pipelines.
package tuplex_test

import (
	"fmt"
	"testing"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/blackbox"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/handopt"
	"github.com/gotuplex/tuplex/internal/hyper"
	"github.com/gotuplex/tuplex/internal/lambda"
	"github.com/gotuplex/tuplex/internal/pandaframe"
	"github.com/gotuplex/tuplex/internal/pipelines"
	"github.com/gotuplex/tuplex/internal/pyvalue"
	"github.com/gotuplex/tuplex/internal/weld"
)

const (
	benchZillowRows  = 20_000
	benchFlightRows  = 10_000
	benchWeblogRows  = 20_000
	bench311Rows     = 50_000
	benchQ6Rows      = 300_000
	benchParallelism = 4
)

var (
	benchZillow           = data.Zillow(data.ZillowConfig{Rows: benchZillowRows, Seed: 2})
	benchFlights          = data.Flights(data.FlightsConfig{Rows: benchFlightRows, Seed: 3})
	benchCarriers         = data.Carriers()
	benchAirports         = data.Airports()
	benchLogs, benchBadIP = data.Weblogs(data.WeblogConfig{Rows: benchWeblogRows, Seed: 4})
	bench311              = data.ThreeOneOne(data.ThreeOneOneConfig{Rows: bench311Rows, Seed: 5})
	benchLineitem         = data.TPCHLineitem(data.TPCHConfig{Rows: benchQ6Rows, Seed: 6})
)

// BenchmarkTable2Datagen measures the dataset generators themselves.
func BenchmarkTable2Datagen(b *testing.B) {
	b.Run("zillow", func(b *testing.B) {
		for range b.N {
			_ = data.Zillow(data.ZillowConfig{Rows: benchZillowRows, Seed: 2})
		}
	})
	b.Run("flights", func(b *testing.B) {
		for range b.N {
			_ = data.Flights(data.FlightsConfig{Rows: benchFlightRows, Seed: 3})
		}
	})
	b.Run("weblogs", func(b *testing.B) {
		for range b.N {
			_, _ = data.Weblogs(data.WeblogConfig{Rows: benchWeblogRows, Seed: 4})
		}
	})
}

// BenchmarkFig3SingleThreaded is the single-threaded Zillow comparison.
func BenchmarkFig3SingleThreaded(b *testing.B) {
	b.Run("python-dict", func(b *testing.B) {
		for range b.N {
			mustFrame(b)(blackbox.New(blackbox.Config{Mode: blackbox.ModePython}).RunZillow(benchZillow))
		}
	})
	b.Run("python-tuple", func(b *testing.B) {
		for range b.N {
			mustFrame(b)(blackbox.New(blackbox.Config{Mode: blackbox.ModePython, RowFormat: blackbox.RowsAsTuples}).RunZillow(benchZillow))
		}
	})
	b.Run("pandas", func(b *testing.B) {
		for range b.N {
			if _, err := pandaframe.NewEngine().RunZillow(benchZillow); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tuplex", func(b *testing.B) {
		for range b.N {
			runTuplexZillow(b, 1)
		}
	})
	b.Run("hand-optimized", func(b *testing.B) {
		for range b.N {
			if len(handopt.ZillowCSV(benchZillow)) == 0 {
				b.Fatal("empty output")
			}
		}
	})
}

// BenchmarkFig3Parallel is the multi-executor Zillow comparison.
func BenchmarkFig3Parallel(b *testing.B) {
	p := benchParallelism
	b.Run("pyspark-tuple", func(b *testing.B) {
		for range b.N {
			mustFrame(b)(blackbox.New(blackbox.Config{Mode: blackbox.ModePySpark, Executors: p, RowFormat: blackbox.RowsAsTuples}).RunZillow(benchZillow))
		}
	})
	b.Run("pysparksql", func(b *testing.B) {
		for range b.N {
			mustFrame(b)(blackbox.New(blackbox.Config{Mode: blackbox.ModePySparkSQL, Executors: p}).RunZillow(benchZillow))
		}
	})
	b.Run("dask", func(b *testing.B) {
		for range b.N {
			mustFrame(b)(blackbox.New(blackbox.Config{Mode: blackbox.ModeDask, Executors: p}).RunZillow(benchZillow))
		}
	})
	b.Run("tuplex", func(b *testing.B) {
		for range b.N {
			runTuplexZillow(b, p)
		}
	})
}

// BenchmarkFig4Flights is the flights pipeline comparison.
func BenchmarkFig4Flights(b *testing.B) {
	p := benchParallelism
	b.Run("dask", func(b *testing.B) {
		for range b.N {
			mustFrame(b)(blackbox.New(blackbox.Config{Mode: blackbox.ModeDask, Executors: p}).RunFlights(benchFlights, benchCarriers, benchAirports))
		}
	})
	b.Run("pysparksql", func(b *testing.B) {
		for range b.N {
			mustFrame(b)(blackbox.New(blackbox.Config{Mode: blackbox.ModePySparkSQL, Executors: p}).RunFlights(benchFlights, benchCarriers, benchAirports))
		}
	})
	b.Run("tuplex", func(b *testing.B) {
		for range b.N {
			c := tuplex.NewContext(tuplex.WithExecutors(p))
			res, err := pipelines.Flights(pipelines.FlightsSources(c, benchFlights, benchCarriers, benchAirports)).Collect()
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) == 0 {
				b.Fatal("no rows")
			}
		}
	})
}

// BenchmarkFig5Weblogs covers the parse variants on Tuplex and the
// black-box engines.
func BenchmarkFig5Weblogs(b *testing.B) {
	p := benchParallelism
	variants := []pipelines.WeblogVariant{
		pipelines.WeblogStrip, pipelines.WeblogSplit,
		pipelines.WeblogPerColRegex, pipelines.WeblogRegex,
	}
	for _, v := range variants {
		b.Run(fmt.Sprintf("tuplex-%s", slug(v.String())), func(b *testing.B) {
			for range b.N {
				c := tuplex.NewContext(tuplex.WithExecutors(p))
				res, err := pipelines.Weblogs(
					c.Text("", tuplex.TextData(benchLogs)),
					c.CSV("", tuplex.CSVData(benchBadIP)), v).ToCSV("")
				if err != nil {
					b.Fatal(err)
				}
				_ = res
			}
		})
	}
	b.Run("pyspark-strip", func(b *testing.B) {
		for range b.N {
			mustFrame(b)(blackbox.New(blackbox.Config{Mode: blackbox.ModePySpark, Executors: p}).RunWeblogs(benchLogs, benchBadIP, pipelines.WeblogStrip))
		}
	})
	b.Run("pysparksql-percol", func(b *testing.B) {
		for range b.N {
			mustFrame(b)(blackbox.New(blackbox.Config{Mode: blackbox.ModePySparkSQL, Executors: p}).RunWeblogs(benchLogs, benchBadIP, pipelines.WeblogRegex))
		}
	})
	b.Run("dask-strip", func(b *testing.B) {
		for range b.N {
			mustFrame(b)(blackbox.New(blackbox.Config{Mode: blackbox.ModeDask, Executors: p}).RunWeblogs(benchLogs, benchBadIP, pipelines.WeblogStrip))
		}
	})
}

// BenchmarkFig6PyPy contrasts the traced-JIT analog with plain
// interpretation.
func BenchmarkFig6PyPy(b *testing.B) {
	b.Run("cpython", func(b *testing.B) {
		for range b.N {
			mustFrame(b)(blackbox.New(blackbox.Config{Mode: blackbox.ModePython}).RunZillow(benchZillow))
		}
	})
	b.Run("pypy-analog", func(b *testing.B) {
		for range b.N {
			mustFrame(b)(blackbox.New(blackbox.Config{Mode: blackbox.ModePython, UDFEngine: blackbox.EngineTraced}).RunZillow(benchZillow))
		}
	})
	b.Run("pandas-pypy-cpyext", func(b *testing.B) {
		for range b.N {
			e := pandaframe.NewEngine()
			e.Traced = true
			e.CExtCost = 2
			if _, err := e.RunZillow(benchZillow); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig7Compilers contrasts the transpiler analog, Tuplex and the
// interpreter.
func BenchmarkFig7Compilers(b *testing.B) {
	b.Run("cpython", func(b *testing.B) {
		for range b.N {
			mustFrame(b)(blackbox.New(blackbox.Config{Mode: blackbox.ModePython}).RunZillow(benchZillow))
		}
	})
	b.Run("cython-analog", func(b *testing.B) {
		for range b.N {
			mustFrame(b)(blackbox.New(blackbox.Config{Mode: blackbox.ModePython, UDFEngine: blackbox.EngineTranspiled}).RunZillow(benchZillow))
		}
	})
	b.Run("tuplex", func(b *testing.B) {
		for range b.N {
			runTuplexZillow(b, 1)
		}
	})
}

// BenchmarkFig9Cleaning311 is the Weld comparison on the 311 workload.
func BenchmarkFig9Cleaning311(b *testing.B) {
	zips, err := pandaframe.Run311Load(bench311)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("weld-query-only", func(b *testing.B) {
		for range b.N {
			if len(weld.Clean311(zips)) == 0 {
				b.Fatal("empty")
			}
		}
	})
	b.Run("weld-e2e", func(b *testing.B) {
		for range b.N {
			if _, err := weld.Run311EndToEnd(bench311); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("tuplex-e2e", func(b *testing.B) {
		for range b.N {
			c := tuplex.NewContext(tuplex.WithExecutors(1))
			res, err := pipelines.ThreeOneOne(c.CSV("", tuplex.CSVData(bench311))).Collect()
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) == 0 {
				b.Fatal("no zips")
			}
		}
	})
	b.Run("dask-e2e", func(b *testing.B) {
		for range b.N {
			mustFrame(b)(blackbox.New(blackbox.Config{Mode: blackbox.ModeDask, Executors: benchParallelism}).Run311(bench311))
		}
	})
}

// BenchmarkFig10Q6 is the TPC-H Q6 comparison.
func BenchmarkFig10Q6(b *testing.B) {
	cols, err := weld.LoadQ6(benchLineitem)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := hyper.Load(benchLineitem)
	if err != nil {
		b.Fatal(err)
	}
	tab.BuildIndex()
	b.Run("weld-kernel", func(b *testing.B) {
		for range b.N {
			_ = weld.Q6(cols, data.Q6DateLo, data.Q6DateHi)
		}
	})
	b.Run("hyper-indexed", func(b *testing.B) {
		for range b.N {
			_ = tab.Q6Indexed(data.Q6DateLo, data.Q6DateHi)
		}
	})
	b.Run("hyper-e2e", func(b *testing.B) {
		for range b.N {
			t2, err := hyper.Load(benchLineitem)
			if err != nil {
				b.Fatal(err)
			}
			t2.BuildIndex()
			_ = t2.Q6Indexed(data.Q6DateLo, data.Q6DateHi)
		}
	})
	b.Run("tuplex-e2e", func(b *testing.B) {
		for range b.N {
			c := tuplex.NewContext(tuplex.WithExecutors(1))
			if _, _, err := pipelines.Q6(c.CSV("", tuplex.CSVData(benchLineitem))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("handopt", func(b *testing.B) {
		for range b.N {
			_ = handopt.Q6(benchLineitem, data.Q6DateLo, data.Q6DateHi)
		}
	})
}

// BenchmarkFig11Factors sweeps the optimization toggles on flights.
func BenchmarkFig11Factors(b *testing.B) {
	configs := []struct {
		name string
		opts []tuplex.Option
	}{
		{"unopt", []tuplex.Option{
			tuplex.WithoutLogicalOptimizations(), tuplex.WithStageFusion(false),
			tuplex.WithNullOptimization(false), tuplex.WithCompilerOptimizations(false)}},
		{"logical", []tuplex.Option{
			tuplex.WithStageFusion(false), tuplex.WithNullOptimization(false),
			tuplex.WithCompilerOptimizations(false)}},
		{"logical+fusion", []tuplex.Option{
			tuplex.WithNullOptimization(false), tuplex.WithCompilerOptimizations(false)}},
		{"logical+fusion+null", []tuplex.Option{tuplex.WithCompilerOptimizations(false)}},
		{"all", nil},
	}
	for _, cfg := range configs {
		opts := append([]tuplex.Option{tuplex.WithExecutors(benchParallelism)}, cfg.opts...)
		b.Run(cfg.name, func(b *testing.B) {
			for range b.N {
				c := tuplex.NewContext(opts...)
				if _, err := pipelines.Flights(pipelines.FlightsSources(c, benchFlights, benchCarriers, benchAirports)).Collect(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNullOptimization isolates §6.3.3 on the flights pipeline.
func BenchmarkNullOptimization(b *testing.B) {
	b.Run("with-null-opt", func(b *testing.B) {
		for range b.N {
			c := tuplex.NewContext(tuplex.WithExecutors(benchParallelism))
			if _, err := pipelines.Flights(pipelines.FlightsSources(c, benchFlights, benchCarriers, benchAirports)).Collect(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("without-null-opt", func(b *testing.B) {
		for range b.N {
			c := tuplex.NewContext(tuplex.WithExecutors(benchParallelism), tuplex.WithNullOptimization(false))
			if _, err := pipelines.Flights(pipelines.FlightsSources(c, benchFlights, benchCarriers, benchAirports)).Collect(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig12Distributed contrasts the serverless backend with the
// fixed cluster over chunked objects.
func BenchmarkFig12Distributed(b *testing.B) {
	store := lambda.NewObjectStore()
	lambda.UploadChunks(store, "in/z", lambda.ChunkCSV(benchZillow, len(benchZillow)/8+1, true))
	task := func(chunk []byte) ([]byte, error) {
		c := tuplex.NewContext(tuplex.WithExecutors(1))
		res, err := pipelines.Zillow(c.CSV("", tuplex.CSVData(chunk))).ToCSV("")
		if err != nil {
			return nil, err
		}
		return res.CSV, nil
	}
	sparkTask := func(chunk []byte) ([]byte, error) {
		e := blackbox.New(blackbox.Config{Mode: blackbox.ModePySpark, RowFormat: blackbox.RowsAsTuples})
		f, err := e.RunZillow(chunk)
		if err != nil {
			return nil, err
		}
		return e.ToCSV(f), nil
	}
	b.Run("tuplex-lambdas", func(b *testing.B) {
		for i := range b.N {
			cfg := lambda.DefaultConfig()
			cfg.MaxConcurrency = 8
			if _, err := lambda.NewBackend(cfg).Run(store, "in/z", fmt.Sprintf("out/z%d", i), task); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("spark-cluster", func(b *testing.B) {
		for range b.N {
			cl := &lambda.Cluster{Executors: 8}
			if _, _, err := cl.Run(store, "in/z", sparkTask); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCompilerOptimizations isolates the dataflow-driven UDF
// specialization (§5.1 analog): the UDF below carries a branch that is
// dead under the sampled facts (flag stays in 0..9) and a string
// comparison against a column the sample proves constant. With
// optimizations on, the dataflow pass prunes the branch and folds the
// comparison so the normal path runs the surviving arithmetic only;
// with them off, every row evaluates both conditions.
func BenchmarkCompilerOptimizations(b *testing.B) {
	const rows = 50_000
	var sb []byte
	sb = append(sb, "i,j,flag,tag\n"...)
	for n := range rows {
		sb = fmt.Appendf(sb, "%d,%d,%d,steady\n", n, n%97+1, n%10)
	}
	udf := tuplex.UDF(
		"lambda x: x['i'] * x['i'] + x['j'] if x['flag'] > 100 else " +
			"(x['i'] + x['j'] if x['tag'] == 'never-this-value' else x['i'] - x['j'])")
	run := func(b *testing.B, opt bool) {
		b.Helper()
		for range b.N {
			c := tuplex.NewContext(
				tuplex.WithExecutors(1), tuplex.WithCompilerOptimizations(opt))
			res, err := c.CSV("", tuplex.CSVData(sb)).
				WithColumn("v", udf).
				Collect()
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != rows {
				b.Fatalf("rows = %d, want %d", len(res.Rows), rows)
			}
		}
	}
	b.Run("optimized", func(b *testing.B) { run(b, true) })
	b.Run("unoptimized", func(b *testing.B) { run(b, false) })
}

// BenchmarkExceptionMechanisms backs the §5 prose claim that return-code
// exception flow beats unwinding: the same guarded division loop with
// codegen-style return codes vs Go panic/recover (the unwinding analog).
func BenchmarkExceptionMechanisms(b *testing.B) {
	const n = 10_000
	values := make([]int64, n)
	for i := range values {
		values[i] = int64(i % 100) // 1% zero divisors
	}
	b.Run("return-codes", func(b *testing.B) {
		div := func(a, bv int64) (int64, pyvalue.ExcKind) {
			if bv == 0 {
				return 0, pyvalue.ExcZeroDivisionError
			}
			return a / bv, 0
		}
		for range b.N {
			var sum int64
			exceptions := 0
			for _, v := range values {
				q, ec := div(1000, v)
				if ec != 0 {
					exceptions++
					continue
				}
				sum += q
			}
			if exceptions == 0 {
				b.Fatal("no exceptions exercised")
			}
		}
	})
	b.Run("panic-unwind", func(b *testing.B) {
		div := func(a, bv int64) int64 {
			if bv == 0 {
				panic(pyvalue.ExcZeroDivisionError)
			}
			return a / bv
		}
		for range b.N {
			var sum int64
			exceptions := 0
			for _, v := range values {
				func() {
					defer func() {
						if r := recover(); r != nil {
							exceptions++
						}
					}()
					sum += div(1000, v)
				}()
			}
			if exceptions == 0 {
				b.Fatal("no exceptions exercised")
			}
		}
	})
}

func runTuplexZillow(b *testing.B, executors int) {
	b.Helper()
	c := tuplex.NewContext(tuplex.WithExecutors(executors))
	res, err := pipelines.Zillow(c.CSV("", tuplex.CSVData(benchZillow))).ToCSV("")
	if err != nil {
		b.Fatal(err)
	}
	if len(res.CSV) == 0 {
		b.Fatal("empty output")
	}
}

func mustFrame(b *testing.B) func(*blackbox.Frame, error) {
	return func(f *blackbox.Frame, err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		if f == nil {
			b.Fatal("nil frame")
		}
	}
}

func slug(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' {
			c = '-'
		}
		out = append(out, c)
	}
	return string(out)
}
