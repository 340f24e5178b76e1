// Command tuplex-run executes one of the paper's evaluation pipelines
// end to end, over files on disk (see tuplex-datagen) or freshly
// generated data, and prints the dual-mode execution metrics.
//
// Usage:
//
//	tuplex-run -pipeline zillow -rows 200000 -executors 8
//	tuplex-run -pipeline zillow -input zillow.csv -output out.csv
//	tuplex-run -pipeline flights -input flights.csv
//	tuplex-run -pipeline weblogs -variant regex -rows 100000
//	tuplex-run -pipeline 311 -rows 200000
//	tuplex-run -pipeline q6 -rows 1000000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/pipelines"
	"github.com/gotuplex/tuplex/internal/telemetry"
)

func main() {
	pipeline := flag.String("pipeline", "zillow", "zillow | flights | weblogs | 311 | q6")
	input := flag.String("input", "", "input path (generated in memory when empty)")
	output := flag.String("output", "", "output CSV path (collect when empty)")
	rows := flag.Int("rows", 100_000, "rows to generate when -input is empty")
	executors := flag.Int("executors", 4, "executor threads")
	variant := flag.String("variant", "strip", "weblogs parse variant: strip|split|regex|percol")
	noOpt := flag.Bool("no-opt", false, "disable all optimizations (for comparison)")
	check := flag.Bool("check", false, "statically verify the pipeline and exit without running it")
	listen := flag.String("listen", "", "introspection server address (e.g. :9090)")
	progress := flag.Bool("progress", false, "live TTY progress line while the run executes")
	traceFormat := flag.String("trace-format", "", "export the run trace: json (native span tree) | chrome (trace-event, loads in Perfetto) | tree (human-readable)")
	traceOut := flag.String("trace-out", "", "trace output path (stdout when empty)")
	flag.Parse()

	switch *traceFormat {
	case "", "json", "chrome", "tree":
	default:
		fmt.Fprintf(os.Stderr, "tuplex-run: unknown -trace-format %q (json | chrome | tree)\n", *traceFormat)
		os.Exit(2)
	}

	if *listen != "" {
		srv, err := tuplex.Serve(*listen)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tuplex-run:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "tuplex-run: serving /metrics, /debug/tuplex/runz, /debug/pprof on %s\n", srv.Addr())
	}
	if *progress {
		release := telemetry.EnableProcess()
		defer release()
		stop := telemetry.StartProgress(os.Stderr, telemetry.Default, 0)
		defer stop()
	}

	opts := []tuplex.Option{tuplex.WithExecutors(*executors)}
	if *traceFormat != "" {
		// Exported traces carry the routing ledger — it is the point of
		// reading one.
		opts = append(opts, tuplex.WithTracing(tuplex.TraceRows))
	}
	if *noOpt {
		opts = append(opts,
			tuplex.WithoutLogicalOptimizations(),
			tuplex.WithStageFusion(false),
			tuplex.WithCompilerOptimizations(false),
			tuplex.WithNullOptimization(false))
	}
	c := tuplex.NewContext(opts...)

	// On-disk inputs open by path so the engine's streamed chunked
	// ingest runs; generated data stays in memory.
	csvSource := func(gen func() []byte) *tuplex.DataSet {
		if *input != "" {
			return c.CSV(*input)
		}
		return c.CSV("", tuplex.CSVData(gen()))
	}

	var ds *tuplex.DataSet
	var aggregate bool
	switch *pipeline {
	case "zillow":
		ds = pipelines.Zillow(csvSource(func() []byte {
			return data.Zillow(data.ZillowConfig{Rows: *rows, Seed: 42, DirtyFraction: 0.005})
		}))
	case "flights":
		perf := csvSource(func() []byte { return data.Flights(data.FlightsConfig{Rows: *rows, Seed: 42}) })
		carriers, airports := data.Carriers(), data.Airports()
		if *input != "" {
			dir := filepath.Dir(*input)
			if b, err := os.ReadFile(filepath.Join(dir, "carriers.csv")); err == nil {
				carriers = b
			}
			if b, err := os.ReadFile(filepath.Join(dir, "airports.txt")); err == nil {
				airports = b
			}
		}
		in := pipelines.FlightsSources(c, nil, carriers, airports)
		in.Perf = perf
		ds = pipelines.Flights(in)
	case "weblogs":
		var logs *tuplex.DataSet
		if *input != "" {
			logs = c.Text(*input)
		} else {
			l, _ := data.Weblogs(data.WeblogConfig{Rows: *rows, Seed: 42})
			logs = c.Text("", tuplex.TextData(l))
		}
		_, bad := data.Weblogs(data.WeblogConfig{Rows: 1, Seed: 42})
		if *input != "" {
			if b, err := os.ReadFile(filepath.Join(filepath.Dir(*input), "bad_ips.csv")); err == nil {
				bad = b
			}
		}
		v := pipelines.WeblogStrip
		switch *variant {
		case "split":
			v = pipelines.WeblogSplit
		case "regex":
			v = pipelines.WeblogRegex
		case "percol":
			v = pipelines.WeblogPerColRegex
		}
		ds = pipelines.Weblogs(logs, c.CSV("", tuplex.CSVData(bad)), v)
	case "311":
		ds = pipelines.ThreeOneOne(csvSource(func() []byte {
			return data.ThreeOneOne(data.ThreeOneOneConfig{Rows: *rows, Seed: 42})
		}))
	case "q6":
		aggregate = true
		src := csvSource(func() []byte {
			return data.TPCHLineitem(data.TPCHConfig{Rows: *rows, Seed: 42})
		})
		if *check {
			p, err := src.Plan()
			fatalIf(err)
			agg, comb, initial := pipelines.Q6UDFs()
			os.Exit(reportDiagnostics(*pipeline, p.WithAggregateSink(agg, comb, initial)))
		}
		t0 := time.Now()
		revenue, res, err := pipelines.Q6(src)
		fatalIf(err)
		fmt.Printf("Q6 revenue: %.2f (in %v)\n", revenue, time.Since(t0))
		fmt.Println("metrics:", res.Metrics)
		fatalIf(writeTrace(res.Trace, *traceFormat, *traceOut))
		return
	default:
		fmt.Fprintf(os.Stderr, "tuplex-run: unknown pipeline %q\n", *pipeline)
		os.Exit(2)
	}
	_ = aggregate

	if *check {
		p, err := ds.Plan()
		fatalIf(err)
		os.Exit(reportDiagnostics(*pipeline, p))
	}

	t0 := time.Now()
	var res *tuplex.Result
	var err error
	if *output != "" {
		res, err = ds.ToCSV(*output)
	} else {
		res, err = ds.Collect()
	}
	fatalIf(err)
	elapsed := time.Since(t0)

	if *output != "" {
		fmt.Printf("wrote %s (%.1f MB) in %v\n", *output, float64(len(res.CSV))/(1<<20), elapsed)
	} else {
		fmt.Printf("collected %d rows in %v\n", len(res.Rows), elapsed)
		for i, row := range res.Rows {
			if i >= 3 {
				break
			}
			fmt.Printf("  %v\n", row)
		}
	}
	fmt.Println("metrics:", res.Metrics)
	if len(res.Failed) > 0 {
		fmt.Printf("%d failed rows (first 3):\n", len(res.Failed))
		for i, f := range res.Failed {
			if i >= 3 {
				break
			}
			fmt.Printf("  [%s] %.80s\n", f.Exc, f.Input)
		}
	}
	for _, wmsg := range res.Warnings {
		fmt.Println("warning:", wmsg)
	}
	fatalIf(writeTrace(res.Trace, *traceFormat, *traceOut))
}

// writeTrace exports the run's trace in the requested format to the
// requested sink (stdout by default; -trace-out redirects to a file
// ready to drop into chrome://tracing or ui.perfetto.dev).
func writeTrace(tr *tuplex.Trace, format, out string) error {
	if format == "" {
		return nil
	}
	if tr == nil {
		return fmt.Errorf("no trace recorded")
	}
	var b []byte
	var err error
	switch format {
	case "json":
		if b, err = json.MarshalIndent(tr, "", " "); err == nil {
			b = append(b, '\n')
		}
	case "chrome":
		b, err = tr.MarshalChrome()
	case "tree":
		b = []byte(tr.String())
	}
	if err != nil {
		return err
	}
	if out == "" {
		_, err = os.Stdout.Write(b)
		return err
	}
	if err := os.WriteFile(out, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tuplex-run: wrote %s trace to %s\n", format, out)
	return nil
}

// reportDiagnostics prints every verifier finding and returns the
// process exit code: 0 when the plan carries no error-severity
// diagnostic, 1 otherwise.
func reportDiagnostics(name string, p *tuplex.Plan) int {
	diags := tuplex.Validate(p)
	for _, d := range diags {
		fmt.Printf("%s: %s\n", name, d)
	}
	errs := 0
	for _, d := range diags {
		if d.Severity == "error" {
			errs++
		}
	}
	if errs > 0 {
		fmt.Fprintf(os.Stderr, "tuplex-run: %s: %d error(s), %d total diagnostic(s)\n", name, errs, len(diags))
		return 1
	}
	fmt.Printf("%s: plan verifies clean (%d diagnostics)\n", name, len(diags))
	return 0
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tuplex-run:", err)
		os.Exit(1)
	}
}
