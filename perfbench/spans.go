package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/gotuplex/tuplex/internal/trace"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public function (or imported from the engine's own run
// trace, which the engine already records at its default level).
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a run's root span
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"` // since the benchmark's clock origin
	End    int64  `json:"end_ns"`
	// Source is "bench" for spans the benchmark timed itself and
	// "engine" for spans copied from core's run trace.
	Source string `json:"source"`
}

// recorder keeps spans in memory until the benchmark ends. A nil
// *recorder is the untraced mode: every method is a no-op.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
	runs  int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.t0).Nanoseconds() }

// newRun allocates a run id (one whole pipeline run or one job).
func (r *recorder) newRun() int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.runs++
	return r.runs
}

// add records a finished span and returns its id.
func (r *recorder) add(run, parent int, name, layer string, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Run: run, Name: name, Layer: layer,
		Start: r.ns(start), End: r.ns(end), Source: "bench"})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (r *recorder) open(run, parent int, name, layer string) int {
	if r == nil {
		return -1
	}
	now := time.Now()
	return r.add(run, parent, name, layer, now, now)
}

func (r *recorder) close(id int) {
	if r == nil || id < 0 {
		return
	}
	end := r.ns(time.Now())
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// engineLayer maps core's run-trace span names to the module that does
// the work.
var engineLayer = map[string]string{
	"run":     "core",
	"plan":    "logical",
	"stage":   "core",
	"sample":  "sample",
	"compile": "codegen",
	"analyze": "dataflow",
	"execute": "core",
	"resolve": "interp",
	"sink":    "core",
}

// importEngine copies core's run trace under parent. The engine's
// clock starts inside the call the parent span wraps, so its spans are
// placed relative to the parent's start; any gap before the engine's
// first span shows up as the parent's self time.
func (r *recorder) importEngine(run, parent int, tr *trace.Trace) {
	if r == nil || tr == nil || tr.Root == nil || parent < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	base := r.spans[parent].Start
	var walk func(s *trace.Span, p int)
	walk = func(s *trace.Span, p int) {
		id := len(r.spans)
		layer := engineLayer[s.Name]
		if layer == "" {
			layer = "core"
		}
		name := "engine." + s.Name
		r.spans = append(r.spans, Span{ID: id, Parent: p, Run: run, Name: name, Layer: layer,
			Start: base + s.StartNS, End: base + s.StartNS + s.DurNS, Source: "engine"})
		for _, c := range s.Children {
			walk(c, id)
		}
	}
	walk(tr.Root, parent)
}

// selfTimes computes every span's self time: its duration minus the
// part of its interval its children cover.
func (r *recorder) selfTimes() []int64 {
	kids := make([][]int, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(r.spans[k].Start, s.Start), min(r.spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		curA, curB = -1, -1
		for _, v := range ivs {
			if v.a > curB {
				if curB > curA {
					covered += curB - curA
				}
				curA, curB = v.a, v.b
			} else if v.b > curB {
				curB = v.b
			}
		}
		if curB > curA {
			covered += curB - curA
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelf sums self time per layer over the spans of the runs whose
// root span is named rootName, divided by the number of such runs (ms
// per run). It also returns each run's unattributed share: the root's
// own self time over its wall time.
func (r *recorder) layerSelf(rootName string) (perLayer map[string]float64, unattributed []float64, nRuns int) {
	if r == nil {
		return nil, nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	self := r.selfTimes()
	runRoot := map[int]int{}
	for _, s := range r.spans {
		if s.Parent < 0 && s.Name == rootName {
			runRoot[s.Run] = s.ID
		}
	}
	perLayer = map[string]float64{}
	for _, s := range r.spans {
		root, ok := runRoot[s.Run]
		if !ok || s.ID == root {
			continue
		}
		perLayer[s.Layer] += float64(self[s.ID]) / 1e6
	}
	for _, root := range runRoot {
		wall := r.spans[root].End - r.spans[root].Start
		if wall > 0 {
			unattributed = append(unattributed, float64(self[root])/float64(wall))
		}
	}
	nRuns = len(runRoot)
	for k := range perLayer {
		perLayer[k] /= float64(max(nRuns, 1))
	}
	return perLayer, unattributed, nRuns
}

// write dumps every span as JSON.
func (r *recorder) write(path string, stamp any) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Env   any    `json:"env"`
		Spans []Span `json:"spans"`
	}{stamp, r.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
