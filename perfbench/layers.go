package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/gotuplex/tuplex/internal/core"
)

// coldRun is one recorded compile-and-execute: the engine's result and
// the benchmark's own span durations around it.
type coldRun struct {
	res  *core.Result
	exec time.Duration // span around core.CompileAndExecute
	box  time.Duration // span around rows.Boxer (0 for non-collect sinks)
}

// engineLayerMetrics reports the engine's own per-phase timings and
// counters (Result.Metrics, the run trace's sink span) as medians over
// the recorded cold runs, plus the compile gap against warm executions
// of the same plans and the reconciliation of the benchmark's spans
// with the engine's Timings.
func engineLayerMetrics(b *bench, runs []coldRun, warmExecMS []float64) {
	med := func(f func(r coldRun) float64) float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	set := func(name, unit string, f func(r coldRun) float64) { b.rep.set(name, med(f), unit).N = len(runs) }
	perIn := func(r coldRun, n int64) float64 {
		return ratio(float64(n), float64(r.res.Metrics.Counters.InputRows.Load()))
	}
	set("sample.ms", "ms", func(r coldRun) float64 { return ms(r.res.Metrics.Timings.Sample) })
	set("logical.optimize_ms", "ms", func(r coldRun) float64 { return ms(r.res.Metrics.Timings.Optimize) })
	set("physical.stages", "count", func(r coldRun) float64 { return float64(r.res.Metrics.Stages) })
	set("core.compile_ms", "ms", func(r coldRun) float64 { return ms(r.res.Metrics.Timings.Compile) })
	set("core.execute_ms", "ms", func(r coldRun) float64 { return ms(r.res.Metrics.Timings.Execute) })
	for s := 0; s < maxStages; s++ {
		set(fmt.Sprintf("core.stage%d_ms", s), "ms", func(r coldRun) float64 {
			if st := r.res.Metrics.Stage; s < len(st) {
				return ms(st[s].Duration)
			}
			return 0
		})
	}
	set("core.sink_ms", "ms", func(r coldRun) float64 { return ms(spanDur(r.res.Trace, "sink")) })
	set("core.columnar_ratio", "ratio", func(r coldRun) float64 { return perIn(r, r.res.Metrics.Batch.ColumnarRows.Load()) })
	set("core.normal_ratio", "ratio", func(r coldRun) float64 { return perIn(r, r.res.Metrics.Counters.NormalRows.Load()) })
	set("core.fused_passes", "count", func(r coldRun) float64 { return float64(r.res.Metrics.Batch.FusedPasses.Load()) })
	set("core.null_elision_ratio", "ratio", func(r coldRun) float64 { return r.res.Metrics.Batch.ElisionRate() })
	set("core.bounced_rows", "count", func(r coldRun) float64 { return float64(r.res.Metrics.Batch.BouncedRows.Load()) })
	set("core.join_build_rows", "count", func(r coldRun) float64 { return float64(r.res.Metrics.Join.BuildRows.Load()) })
	set("core.join_probe_hits", "count", func(r coldRun) float64 { return float64(r.res.Metrics.Join.ProbeHits.Load()) })
	set("core.join_probe_misses", "count", func(r coldRun) float64 { return float64(r.res.Metrics.Join.ProbeMisses.Load()) })
	set("core.join_hit_ratio", "ratio", func(r coldRun) float64 { return r.res.Metrics.Join.HitRate() })
	set("core.join_shard_balance", "ratio", func(r coldRun) float64 { return r.res.Metrics.Join.ShardBalance() })
	set("core.resolve_ms", "ms", func(r coldRun) float64 { return ms(r.res.Metrics.Timings.Resolve) })
	c := func(f func(r coldRun) int64) func(r coldRun) float64 {
		return func(r coldRun) float64 { return float64(f(r)) }
	}
	set("core.classifier_rejects", "count", c(func(r coldRun) int64 { return r.res.Metrics.Counters.ClassifierRejects.Load() }))
	set("core.normal_exceptions", "count", c(func(r coldRun) int64 { return r.res.Metrics.Counters.NormalPathExceptions.Load() }))
	set("core.general_resolved", "count", c(func(r coldRun) int64 { return r.res.Metrics.Counters.GeneralResolved.Load() }))
	set("core.fallback_resolved", "count", c(func(r coldRun) int64 { return r.res.Metrics.Counters.FallbackResolved.Load() }))
	set("core.failed_rows", "count", c(func(r coldRun) int64 { return r.res.Metrics.Counters.FailedRows.Load() }))
	set("rows.box_ms", "ms", func(r coldRun) float64 { return ms(r.box) })

	b.rep.set("core.warm_execute_ms", median(warmExecMS), "ms").N = len(warmExecMS)
	m := b.rep.set("core.compile_gap_ms", med(func(r coldRun) float64 { return ms(r.exec) })-median(warmExecMS), "ms")
	m.N, m.Comment = len(runs), "median CompileAndExecute minus median Execute of the compiled plan"

	// Reconciliation: the benchmark's span around CompileAndExecute
	// against the engine's Timings.Total, and Timings.Total against the
	// sum of the engine's named phases.
	set("trace.timings_gap_ratio", "ratio", func(r coldRun) float64 {
		return ratio(ms(r.exec)-ms(r.res.Metrics.Timings.Total), ms(r.exec))
	})
	set("trace.phase_gap_ratio", "ratio", func(r coldRun) float64 {
		t := r.res.Metrics.Timings
		phases := t.Optimize + t.Sample + t.Compile + t.Execute + t.Resolve + spanDur(r.res.Trace, "sink")
		return ratio(ms(t.Total)-ms(phases), ms(t.Total))
	})
}

// memDelta is the allocation activity between two MemStats readings.
func memDelta(a, b runtime.MemStats) runtime.MemStats {
	return runtime.MemStats{
		TotalAlloc:   b.TotalAlloc - a.TotalAlloc,
		Mallocs:      b.Mallocs - a.Mallocs,
		NumGC:        b.NumGC - a.NumGC,
		PauseTotalNs: b.PauseTotalNs - a.PauseTotalNs,
	}
}

// runtimeMetrics reports Go runtime activity per run (or per job):
// medians of per-run deltas, or, for a single aggregate delta, that
// delta divided by runs.
func runtimeMetrics(b *bench, deltas []runtime.MemStats, rowsPerRun float64, runs int) {
	per := func(f func(m runtime.MemStats) float64) float64 {
		xs := make([]float64, len(deltas))
		for i, d := range deltas {
			xs[i] = f(d)
		}
		if len(deltas) == 1 {
			return xs[0] / float64(max(runs, 1))
		}
		return median(xs)
	}
	set := func(name, unit string, v float64) { b.rep.set(name, v, unit).N = runs }
	set("runtime.alloc_mb_per_run", "MB", per(func(m runtime.MemStats) float64 { return float64(m.TotalAlloc) / 1e6 }))
	set("runtime.allocs_per_row", "count", per(func(m runtime.MemStats) float64 { return ratio(float64(m.Mallocs), rowsPerRun) }))
	set("runtime.gc_cycles_per_run", "count", per(func(m runtime.MemStats) float64 { return float64(m.NumGC) }))
	set("runtime.gc_pause_ms", "ms", per(func(m runtime.MemStats) float64 { return float64(m.PauseTotalNs) / 1e6 }))
}
