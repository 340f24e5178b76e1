package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	tuplex "github.com/gotuplex/tuplex"
	"github.com/gotuplex/tuplex/internal/core"
	"github.com/gotuplex/tuplex/internal/data"
	"github.com/gotuplex/tuplex/internal/handopt"
	"github.com/gotuplex/tuplex/internal/pipelines"
	"github.com/gotuplex/tuplex/internal/plancheck"
	"github.com/gotuplex/tuplex/internal/service"
	"github.com/gotuplex/tuplex/internal/spec"
	"github.com/gotuplex/tuplex/internal/telemetry"
	"github.com/gotuplex/tuplex/internal/trace"
)

// serve-mixed: tuplex-serve on loopback, driven open-loop over two
// connections. Most submissions resubmit a plan from a warm pool that
// fits the plan cache; the rest are cold (a fresh fingerprint each).
const (
	poolVariants = 6   // input variants per pipeline; 4 pipelines → 24 warm plans
	coldShare    = 0.1 // share of submissions with a fresh fingerprint
	conns        = 2   // client connections (= cores)

	lowRate  = 200.0 // jobs/s, the fixed low offered rate
	highRate = 300.0 // jobs/s, the fixed high offered rate
	// lagLimit: a fixed-rate phase whose generator ran later than this
	// (tail) is invalid.
	lagLimit = 20 * time.Millisecond
)

// Shares of the run: low rate, high rate, then saturation.
const lowShare, highShare = 0.35, 0.25

// poolEntry is one warm plan: its request body and the reference its
// result must match.
type poolEntry struct {
	name  string
	kind  int // pipeline: 0 zillow, 1 weblogs, 2 311, 3 q6
	body  []byte
	check func(*service.JobResult) error
}

// poolKinds is the number of pipelines in the pool.
const poolKinds = 4

// byKind holds latencies (ms) split by the pipeline of the job.
type byKind [poolKinds][]float64

func (l *byKind) add(kind int, v float64) { l[kind] = append(l[kind], v) }

func (l *byKind) flat() []float64 {
	var all []float64
	for _, xs := range l {
		all = append(all, xs...)
	}
	return all
}

// stratMedian is the mean over pipelines of each pipeline's median
// latency. The pool mixes four pipelines whose latencies form separate
// modes; a plain median of the mixture falls between modes and jumps
// from run to run with the draw. ok is false when some pipeline has no
// sample, so the mean would be over fewer pipelines (or none).
func (l *byKind) stratMedian() (v float64, n int, ok bool) {
	ok = true
	for _, xs := range l {
		if len(xs) == 0 {
			ok = false
			continue
		}
		v += median(xs)
		n += len(xs)
	}
	return v / poolKinds, n, ok
}

type serveWorkload struct {
	pool    []poolEntry
	csvFile string // the largest pool Zillow input, for the csvio pass
	srv     *service.Server
	url     string
	client  *http.Client
}

// request is one scheduled submission, body precomputed.
type request struct {
	due   time.Duration
	body  []byte
	entry int
}

// outcome is one submission's measured result.
type outcome struct {
	latency time.Duration // from due time to response read
	rtt     time.Duration // from send to response read
	jobNS   int64         // server-side job duration (queue wait + run)
	hit     bool
	kind    int
	rows    int64
	id      string
	err     error
}

// makePool writes the pool's small inputs and builds the warm plans.
func (w *serveWorkload) makePool(b *bench) error {
	c := tuplex.NewContext(tuplex.WithExecutors(executors), tuplex.WithChunkSize(ingestChunk))
	w.pool = w.pool[:0]
	for v := 0; v < poolVariants; v++ {
		seed := b.seed*1000 + uint64(v) + 1
		dir := filepath.Join(b.dir, fmt.Sprintf("pool%d", v))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		write := func(name string, content []byte) (string, error) {
			p := filepath.Join(dir, name)
			return p, os.WriteFile(p, content, 0o644)
		}
		add := func(name string, kind int, p *tuplex.Plan, err error, check func(*service.JobResult) error) error {
			if err != nil {
				return err
			}
			body, err := p.MarshalJSON()
			if err != nil {
				return err
			}
			w.pool = append(w.pool, poolEntry{name: fmt.Sprintf("%s/%d", name, v), kind: kind, body: body, check: check})
			return nil
		}

		zraw := data.Zillow(data.ZillowConfig{Rows: 300 + 20*v, Seed: seed, DirtyFraction: 0.005})
		zp, err := write("zillow.csv", zraw)
		if err != nil {
			return err
		}
		w.csvFile = zp
		zplan, err := pipelines.Zillow(c.CSV(zp)).Plan()
		if err == nil {
			zplan = zplan.WithCSVSink("")
		}
		zsum := sha256.Sum256(handopt.ZillowCSV(zraw))
		if err := add("zillow", 0, zplan, err, func(r *service.JobResult) error {
			if sha256.Sum256([]byte(r.CSV)) != zsum {
				return fmt.Errorf("zillow csv digest differs from handopt.ZillowCSV")
			}
			return nil
		}); err != nil {
			return err
		}

		logs, bad := data.Weblogs(data.WeblogConfig{Rows: 400 + 20*v, Seed: seed})
		lp, err := write("access.log", logs)
		if err != nil {
			return err
		}
		bp, err := write("bad_ips.csv", bad)
		if err != nil {
			return err
		}
		wplan, err := pipelines.Weblogs(c.Text(lp), c.CSV(bp), pipelines.WeblogStrip).Plan()
		wwant := weblogWant(handopt.Weblogs(logs, bad, 1))
		if err := add("weblogs", 1, wplan, err, func(r *service.JobResult) error {
			got := make([]string, len(r.Rows))
			for i, row := range r.Rows {
				got[i] = weblogLine(row)
			}
			return checkLines("weblogs", got, wwant)
		}); err != nil {
			return err
		}

		traw := data.ThreeOneOne(data.ThreeOneOneConfig{Rows: 300 + 20*v, Seed: seed})
		tp, err := write("311.csv", traw)
		if err != nil {
			return err
		}
		tplan, err := pipelines.ThreeOneOne(c.CSV(tp)).Plan()
		twant := zipSet(handopt.ThreeOneOne(traw))
		if err := add("311", 2, tplan, err, func(r *service.JobResult) error {
			zips := make([]string, len(r.Rows))
			for i, row := range r.Rows {
				if len(row) != 1 {
					return fmt.Errorf("311: row width %d", len(row))
				}
				zips[i] = fmt.Sprint(row[0])
			}
			if got := zipSet(zips); got != twant {
				return fmt.Errorf("311: unique zips %q, reference %q", got, twant)
			}
			return nil
		}); err != nil {
			return err
		}

		qraw := data.TPCHLineitem(data.TPCHConfig{Rows: 400 + 20*v, Seed: seed})
		qp, err := write("lineitem.csv", qraw)
		if err != nil {
			return err
		}
		agg, comb, initial := pipelines.Q6UDFs()
		qplan, err := c.CSV(qp).Plan()
		if err == nil {
			qplan = qplan.WithAggregateSink(agg, comb, initial)
		}
		qwant := handopt.Q6(qraw, data.Q6DateLo, data.Q6DateHi)
		if err := add("q6", 3, qplan, err, func(r *service.JobResult) error {
			got, ok := r.Value.(float64)
			if !ok || !q6Matches(got, qwant) {
				return fmt.Errorf("q6: revenue %v, reference %v", r.Value, qwant)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// setupSalt is the first seed option of set-up's cold bodies; the
// measured phases count their salts up from 1.
const setupSalt = 1 << 40

// coldBody derives a body with a fresh fingerprint from a pool entry:
// the engine seed option changes the canonical spec (and so the cache
// key) without changing any checked output.
func coldBody(base []byte, salt uint64) ([]byte, error) {
	p, err := spec.Decode(base)
	if err != nil {
		return nil, err
	}
	if p.Options == nil {
		p.Options = &spec.Options{}
	}
	p.Options.Seed = salt
	return p.Encode()
}

// draw picks n submissions: each a warm pool plan or, with
// probability coldShare, a fresh-fingerprint variant of one.
func (w *serveWorkload) draw(rng *rand.Rand, n int, salt *uint64) ([]request, error) {
	reqs := make([]request, n)
	for i := range reqs {
		e := rng.IntN(len(w.pool))
		body := w.pool[e].body
		if rng.Float64() < coldShare {
			*salt++
			var err error
			if body, err = coldBody(body, *salt); err != nil {
				return nil, err
			}
		}
		reqs[i] = request{body: body, entry: e}
	}
	return reqs, nil
}

// poisson draws a fixed-rate phase with Poisson arrivals.
func (w *serveWorkload) poisson(b *bench, phase uint64, rate float64, d time.Duration, salt *uint64) ([]request, error) {
	rng := rand.New(rand.NewPCG(b.seed, phase))
	var dues []time.Duration
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		dues = append(dues, time.Duration(t*float64(time.Second)))
	}
	reqs, err := w.draw(rng, len(dues), salt)
	for i := range reqs {
		reqs[i].due = dues[i]
	}
	return reqs, err
}

// submit sends one precomputed body and checks the result.
func (w *serveWorkload) submit(r request, due time.Time) outcome {
	o := outcome{kind: w.pool[r.entry].kind}
	t0 := time.Now()
	resp, err := w.client.Post(w.url+"/v1/jobs", "application/json", bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		return o
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	o.latency, o.rtt = t1.Sub(due), t1.Sub(t0)
	if err != nil {
		o.err = err
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, raw)
		return o
	}
	var st service.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		o.err = fmt.Errorf("decoding job status: %w", err)
		return o
	}
	o.jobNS, o.hit, o.id = st.DurationNS, st.CacheHit, st.ID
	if st.State != service.StateDone || st.Result == nil {
		o.err = fmt.Errorf("job %s state %s: %s", st.ID, st.State, st.Error)
		return o
	}
	o.rows = st.Result.InputRows
	if err := w.pool[r.entry].check(st.Result); err != nil {
		o.err = fmt.Errorf("%s: %w", w.pool[r.entry].name, err)
	}
	return o
}

// phaseResult summarizes one open-loop phase.
type phaseResult struct {
	outs     []outcome
	lags     []float64 // ms
	backlog  int       // submissions still waiting for a connection when dispatch ended
	recordNS int64     // time the connection workers spent recording spans
}

// runPhase plays a schedule. A dispatcher releases each request at its
// due time into a queue the connection workers drain; the queue holds
// the whole schedule, so the dispatcher never blocks and its lateness
// (lag) is its own. Latency is timed from the due time, so waiting for
// a free connection counts.
func (w *serveWorkload) runPhase(reqs []request, rec *recorder) phaseResult {
	pr := phaseResult{outs: make([]outcome, len(reqs)), lags: make([]float64, len(reqs))}
	queue := make(chan int, len(reqs))
	start := time.Now()
	var recordNS atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				due := start.Add(reqs[i].due)
				o := w.submit(reqs[i], due)
				if rec != nil && o.err == nil {
					// Recording runs on the connection's own goroutine,
					// before its next request: its cost is on the path.
					t0 := time.Now()
					run := rec.newRun()
					end := due.Add(o.latency)
					root := rec.add(run, -1, "job", "loadgen", due, end)
					rec.add(run, root, "loadgen.wait", "loadgen", due, end.Add(-o.rtt))
					http := rec.add(run, root, "http.roundtrip", "http", end.Add(-o.rtt), end)
					rec.add(run, http, "service.job", "service", end.Add(-time.Duration(o.jobNS)), end)
					recordNS.Add(time.Since(t0).Nanoseconds())
				}
				pr.outs[i] = o
			}
		}()
	}
	for i := range reqs {
		due := start.Add(reqs[i].due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		pr.lags[i] = ms(time.Since(due))
		queue <- i
	}
	pr.backlog = len(queue)
	close(queue)
	wg.Wait()
	pr.recordNS = recordNS.Load()
	return pr
}

// tally folds a phase's outcomes into the report and splits latencies
// by cache outcome.
func (w *serveWorkload) tally(b *bench, pr phaseResult) (warm, cold byKind, rows int64, failed int) {
	for _, o := range pr.outs {
		b.rep.Attempted++
		if o.err != nil {
			b.rep.fail(o.err)
			failed++
			continue
		}
		rows += o.rows
		if o.hit {
			warm.add(o.kind, ms(o.latency))
		} else {
			cold.add(o.kind, ms(o.latency))
		}
	}
	return warm, cold, rows, failed
}

func (w *serveWorkload) start() error {
	srv, err := service.Serve(service.Config{
		Addr:            "127.0.0.1:0",
		MaxConcurrent:   conns,
		ExecutorsPerJob: executors,
		Registry:        telemetry.NewRegistry(),
	})
	if err != nil {
		return err
	}
	w.srv = srv
	w.url = "http://" + srv.Addr()
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	return nil
}

func (w *serveWorkload) stop() {
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.srv != nil {
		w.srv.Close()
	}
}

func (w *serveWorkload) run(ctx context.Context, b *bench) error {
	// Set-up: write the pool inputs, build the plans, start the daemon
	// and warm the cache with every pool plan (compile + one hit each).
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.makePool(b); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		if err := w.start(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		for rep := 0; rep < 2; rep++ {
			for e := range w.pool {
				o := w.submit(request{body: w.pool[e].body, entry: e}, time.Now())
				b.rep.Attempted++
				if o.err == nil && o.hit != (rep == 1) {
					o.err = fmt.Errorf("warm-up %s: cache hit %v on submission %d", w.pool[e].name, o.hit, rep+1)
				}
				if o.err != nil {
					b.rep.fail(o.err)
				}
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			w.stop()
		}
	}
	defer w.stop()
	b.rep.set("setup_s", median(setups), "s").N = len(setups)

	// A cold body must miss the cache: a fingerprint that ignored the
	// seed option would turn every cold job into a hit and leave
	// cold_p50_ms without samples. The salts lie above any the measured
	// phases draw, so these bodies stay cold there.
	for e := range w.pool {
		body, err := coldBody(w.pool[e].body, setupSalt+uint64(e))
		if err != nil {
			return err
		}
		o := w.submit(request{body: body, entry: e}, time.Now())
		b.rep.Attempted++
		if o.err == nil && o.hit {
			o.err = fmt.Errorf("cold check %s: a fresh fingerprint hit the plan cache", w.pool[e].name)
		}
		if o.err != nil {
			b.rep.fail(o.err)
		}
	}

	// All request bodies are built before anything is timed, so the
	// generator only sleeps and enqueues.
	var salt uint64
	lowD := time.Duration(float64(b.seconds) * lowShare)
	low, err := w.poisson(b, 1, lowRate, lowD, &salt)
	if err != nil {
		return err
	}
	if b.traced {
		return w.traced(ctx, b, low)
	}
	highD := time.Duration(float64(b.seconds) * highShare)
	high, err := w.poisson(b, 2, highRate, highD, &salt)
	if err != nil {
		return err
	}
	satD := b.seconds - lowD - highD
	// Enough bodies for the saturation phase at several times the
	// capacity measured on a 2-core machine.
	sat, err := w.draw(rand.New(rand.NewPCG(b.seed, 3)), int(2000*satD.Seconds()), &salt)
	if err != nil {
		return err
	}
	rssReset := resetPeakRSS()

	lp := w.runPhase(low, nil)
	warm, cold, _, _ := w.tally(b, lp)
	setStrat(b, "open_warm_p50_ms", &warm, fmt.Sprintf("at %.0f jobs/s", lowRate))
	q, v := tail(warm.flat())
	m := b.rep.set("warm_p99_ms", v, "ms")
	m.N, m.Pct, m.Comment = len(warm.flat()), q, fmt.Sprintf("at %.0f jobs/s", lowRate)
	setStrat(b, "open_cold_p50_ms", &cold, fmt.Sprintf("at %.0f jobs/s", lowRate))
	w.checkLag(b, "low-rate phase", lp.lags)
	b.rep.note("open loop at %.0f jobs/s: %d jobs, backlog %d at the end of dispatch", lowRate, len(low), lp.backlog)

	hp := w.runPhase(high, nil)
	warm, _, _, _ = w.tally(b, hp)
	q, v = tail(warm.flat())
	m = b.rep.set("loaded_warm_p99_ms", v, "ms")
	m.N, m.Pct, m.Comment = len(warm.flat()), q, fmt.Sprintf("at %.0f jobs/s", highRate)
	w.checkLag(b, "high-rate phase", hp.lags)
	q, v = tail(append(lp.lags, hp.lags...))
	m = b.rep.set("loadgen.lag_p99_ms", v, "ms")
	m.N, m.Pct = len(lp.lags)+len(hp.lags), q
	b.rep.note("open loop at %.0f jobs/s: %d jobs, backlog %d at the end of dispatch", highRate, len(high), hp.backlog)

	// Capacity: both connections submit back to back (closed loop) for
	// the rest of the run.
	jobs, rows, elapsed := w.saturate(b, sat, satD)
	m = b.rep.set("max_jobs_per_s", float64(jobs)/elapsed.Seconds(), "1/s")
	m.N, m.Comment = jobs, "closed loop, two connections back to back"
	m = b.rep.set("rows_per_s", float64(rows)/elapsed.Seconds(), "1/s")
	m.N, m.Comment = jobs, "input rows per second at max_jobs_per_s"
	m = b.rep.set("peak_rss_mb", peakRSSMB(), "MB")
	if !rssReset {
		m.Comment = "peak includes set-up: the kernel refused the peak reset"
	}
	return nil
}

// saturate runs the closed-loop capacity phase: each connection
// submits the next precomputed body as soon as its previous job
// returns, until d has passed or the bodies run out.
func (w *serveWorkload) saturate(b *bench, reqs []request, d time.Duration) (jobs int, rows int64, elapsed time.Duration) {
	var next atomic.Int64
	outs := make([]outcome, len(reqs))
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				outs[i] = w.submit(reqs[i], time.Now())
			}
		}()
	}
	wg.Wait()
	elapsed = time.Since(start)
	n := min(int(next.Load()), len(reqs))
	warm, cold, rows, _ := w.tally(b, phaseResult{outs: outs[:n]})
	okWarm := setStrat(b, "warm_p50_ms", &warm, "closed loop")
	okCold := setStrat(b, "cold_p50_ms", &cold, "closed loop")
	if !okWarm || !okCold {
		b.rep.Invalid = append(b.rep.Invalid, "closed-loop phase: some pipeline had no warm or no cold job")
	}
	return n, rows, elapsed
}

// setStrat reports l's stratified median as metric name and returns
// whether every pipeline had a sample.
func setStrat(b *bench, name string, l *byKind, where string) bool {
	v, n, ok := l.stratMedian()
	m := b.rep.set(name, v, "ms")
	m.N, m.Comment = n, where+"; mean of the four pipelines' medians"
	if !ok {
		m.Comment += "; some pipeline had no job"
	}
	return ok
}

// checkLag marks the run invalid when the generator itself fell behind.
func (w *serveWorkload) checkLag(b *bench, phase string, lags []float64) {
	q, v := tail(lags)
	if v > ms(lagLimit) {
		b.rep.Invalid = append(b.rep.Invalid, fmt.Sprintf("%s: generator lag p%g = %.2f ms exceeds %v", phase, q*100, v, lagLimit))
	}
}

// traced is serve-mixed's per-layer mode: the low-rate phase with
// client-side spans on every other request, the job traces the daemon
// exposes, and a replay of the handler's public calls over the same
// bodies.
func (w *serveWorkload) traced(ctx context.Context, b *bench, low []request) error {
	if err := reportCSVPass(b, w.csvFile, ingestChunk, 3); err != nil {
		return err
	}
	st := w.srv.Stats()
	hits0, miss0, rej0 := st.CacheHits.Load(), st.CacheMisses.Load(), st.JobsRejected.Load()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	lp := w.runPhase(low, b.rec)
	runtime.ReadMemStats(&m1)
	w.tally(b, lp)
	jobs := float64(len(lp.outs))
	var inRows int64
	var httpOver []float64
	var ids []string
	var busyNS int64 // connection time spent in requests
	for _, o := range lp.outs {
		if o.err != nil {
			continue
		}
		inRows += o.rows
		ids = append(ids, o.id)
		busyNS += o.rtt.Nanoseconds()
		if o.hit {
			httpOver = append(httpOver, ms(o.rtt)-float64(o.jobNS)/1e6)
		}
	}
	set := func(name string, v float64, unit string, n int) { b.rep.set(name, v, unit).N = n }
	runtimeMetrics(b, []runtime.MemStats{memDelta(m0, m1)}, float64(inRows)/jobs, len(lp.outs))
	set("service.http_overhead_ms", median(httpOver), "ms", len(httpOver))
	hits, miss := st.CacheHits.Load()-hits0, st.CacheMisses.Load()-miss0
	set("service.cache_hit_ratio", ratio(float64(hits), float64(hits+miss)), "ratio", int(hits+miss))
	set("service.rejected_429", float64(st.JobsRejected.Load()-rej0), "count", len(lp.outs))
	_, lag := tail(lp.lags)
	set("loadgen.lag_p99_ms", lag, "ms", len(lp.lags))
	w.checkLag(b, "low-rate phase", lp.lags)
	// The daemon traces every job whether or not the benchmark does, so
	// the benchmark's own cost is its span recording: connection time
	// with recording over connection time without it.
	set("trace.overhead_ratio", ratio(float64(busyNS+lp.recordNS), float64(busyNS)), "ratio", len(ids))

	// Queue wait, from the admission span of the daemon's own job
	// traces (the job table keeps the most recent jobs).
	var waits []float64
	if len(ids) > 200 {
		ids = ids[len(ids)-200:]
	}
	for _, id := range ids {
		resp, err := w.client.Get(w.url + "/v1/jobs/" + id + "/trace")
		if err != nil {
			continue
		}
		var tr trace.Trace
		err = json.NewDecoder(resp.Body).Decode(&tr)
		resp.Body.Close()
		if err != nil || tr.Root == nil {
			continue
		}
		for _, c := range tr.Root.Children {
			if c.Name == "admission" {
				waits = append(waits, float64(c.DurNS)/1e6)
			}
		}
	}
	set("service.queue_wait_ms", median(waits), "ms", len(waits))

	// Warm allocations per job: a closed-loop burst of warm
	// submissions, client and daemon together (one process).
	const burst = 200
	runtime.ReadMemStats(&m0)
	for i := 0; i < burst; i++ {
		e := i % len(w.pool)
		o := w.submit(request{body: w.pool[e].body, entry: e}, time.Now())
		b.rep.Attempted++
		if o.err != nil {
			b.rep.fail(o.err)
		}
	}
	runtime.ReadMemStats(&m1)
	set("service.warm_allocs_per_job", float64(m1.Mallocs-m0.Mallocs)/burst, "count", burst)

	if err := w.replay(ctx, b); err != nil {
		return err
	}
	reportSelf(b, "job")
	return nil
}

// replay makes, in process, the public calls the job handler makes for
// each pool body — decode, fingerprint, verify, build, compile+execute,
// cached re-execution, result encoding — and times each.
func (w *serveWorkload) replay(ctx context.Context, b *bench) error {
	var decode, fp, check, build, warmExec, encode []float64
	var colds []coldRun
	for round := 0; round < 3; round++ {
		for _, e := range w.pool {
			t0 := time.Now()
			p, err := spec.Decode(e.body)
			t1 := time.Now()
			if err != nil {
				return err
			}
			if _, err := p.Fingerprint(); err != nil {
				return err
			}
			t2 := time.Now()
			diags := plancheck.Check(p)
			t3 := time.Now()
			if plancheck.HasErrors(diags) {
				return fmt.Errorf("%s: plancheck errors: %v", e.name, diags)
			}
			bt, err := p.Build()
			t4 := time.Now()
			if err != nil {
				return err
			}
			bt.Opts.Executors = executors
			res, cp, err := core.CompileAndExecute(ctx, bt.Node, bt.Kind, bt.CSVPath, bt.Opts)
			t5 := time.Now()
			if err != nil {
				return err
			}
			wres, err := cp.ExecuteLabeled(ctx, bt.CSVPath, "replay")
			t6 := time.Now()
			if err != nil {
				return err
			}
			jr := &service.JobResult{
				InputRows:  wres.Metrics.Counters.InputRows.Load(),
				OutputRows: wres.Metrics.Counters.OutputRows.Load(),
			}
			switch {
			case bt.IsAgg:
				if vals := spec.ResultRows(wres, 1); len(vals) == 1 && len(vals[0]) == 1 {
					jr.Value = vals[0][0]
				}
			case bt.Kind == core.SinkCSV:
				jr.CSV = string(wres.CSV)
			default:
				jr.Rows = spec.ResultRows(wres, -1)
			}
			t7 := time.Now()
			if err := e.check(jr); err != nil {
				b.rep.Attempted++
				b.rep.fail(fmt.Errorf("replay %s: %w", e.name, err))
				continue
			}
			t8 := time.Now()
			if _, err := json.Marshal(service.JobStatus{ID: "replay", State: service.StateDone, Result: jr}); err != nil {
				return err
			}
			t9 := time.Now()
			decode = append(decode, float64(t1.Sub(t0).Nanoseconds())/1e3)
			fp = append(fp, float64(t2.Sub(t1).Nanoseconds())/1e3)
			check = append(check, ms(t3.Sub(t2)))
			build = append(build, ms(t4.Sub(t3)))
			warmExec = append(warmExec, ms(t6.Sub(t5)))
			encode = append(encode, float64(t9.Sub(t8).Nanoseconds())/1e3)
			colds = append(colds, coldRun{res: res, exec: t5.Sub(t4), box: t7.Sub(t6)})
		}
	}
	set := func(name string, xs []float64, unit string) { b.rep.set(name, median(xs), unit).N = len(xs) }
	set("spec.decode_us", decode, "us")
	set("spec.fingerprint_us", fp, "us")
	set("plancheck.check_ms", check, "ms")
	set("spec.build_ms", build, "ms")
	set("service.encode_us", encode, "us")
	engineLayerMetrics(b, colds, warmExec)
	return nil
}
