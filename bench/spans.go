package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Spans of one walk share its id; Parent is 0 for a walk's
// steps. Times are nanoseconds since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Walk   int    `json:"walk"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. The walker opens one
// step at a time; the instrumented stores open ring spans under the step
// and wire spans under the ring span, which is how calls nest in the stack.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	walk  int
	step  int // open step span id (0 = none)
	ring  int // open ring-level span id (0 = none)
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// spanLevel says where a span opens in the stack.
type spanLevel int

const (
	levelStep spanLevel = iota // a call the walker makes
	levelRing                  // a shardkvs.Ring operation
	levelWire                  // a kvs.Client operation to one shard
)

// begin opens a span and returns its id.
func (r *recorder) begin(name string, level spanLevel) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	parent := 0
	switch level {
	case levelRing:
		parent = r.step
	case levelWire:
		if parent = r.ring; parent == 0 {
			parent = r.step
		}
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Walk: r.walk, Name: name, Start: int64(time.Since(r.t0))})
	switch level {
	case levelStep:
		r.step = id
	case levelRing:
		r.ring = id
	}
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
	if r.step == id {
		r.step = 0
	}
	if r.ring == id {
		r.ring = 0
	}
}

// nextWalk starts a new walk: the spans that follow belong to it.
func (r *recorder) nextWalk() {
	r.mu.Lock()
	r.walk++
	r.mu.Unlock()
}

// do times fn as one step of the current walk.
func (r *recorder) do(name string, fn func()) {
	id := r.begin(name, levelStep)
	fn()
	r.end(id)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its direct children cover. Children may overlap each other
// (a replicated write fans out in parallel) and are clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			start, end := max(k.Start, cursor), min(k.End, s.End)
			if end > start {
				covered += end - start
				cursor = end
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// spanStats is the median duration and median self time of each span name,
// in microseconds, with the sample count.
type spanStats struct {
	p50us  map[string]float64
	selfus map[string]float64
	count  map[string]int
}

func summarize(spans []span) spanStats {
	self := selfTimes(spans)
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e3)
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID])/1e3)
	}
	st := spanStats{p50us: map[string]float64{}, selfus: map[string]float64{}, count: map[string]int{}}
	for name, d := range durs {
		st.p50us[name] = median(d)
		st.selfus[name] = median(selfs[name])
		st.count[name] = len(d)
	}
	return st
}

// budgetNode is one call in a workload's static call tree: the span whose
// median gives its time, the layer that owns it, and how many times its
// parent makes it per request.
type budgetNode struct {
	layer string
	span  string
	times float64
	// parallel marks children a parent runs concurrently (chained calls):
	// together they cannot take longer than the parent, so when their sum
	// does, each is scaled down to fit.
	parallel bool
	kids     []budgetNode
}

// budgetRow is one line of a budget table.
type budgetRow struct {
	Layer  string  `json:"layer"`
	SelfUs float64 `json:"self_us"`
}

// budget is a workload's table: the HTTP median on top, each layer's self
// time beneath it, and what the layers leave unexplained.
type budget struct {
	Workload      string      `json:"workload"`
	HTTPp50Us     float64     `json:"http_p50_us"`
	Rows          []budgetRow `json:"rows"`
	UnexplainedUs float64     `json:"unexplained_us"`
}

// layerOrder is the stack top to bottom, the order budget rows print in.
var layerOrder = []string{"ingress", "frt", "mbus", "sched", "core", "wavm", "state", "shardkvs", "kvs.wire", "kvs.engine"}

// computeBudget walks the tree: a node's self time is its median minus its
// children's (never below zero), and a layer's row is the sum over its
// nodes. unexplained_us is the HTTP median minus every row; it is negative
// when calls timed on their own add up to more than the request they are
// part of.
func computeBudget(workload string, httpUs float64, roots []budgetNode, p50 map[string]float64) budget {
	perLayer := map[string]float64{}
	var visit func(n budgetNode, total, scale float64)
	visit = func(n budgetNode, total, scale float64) {
		var kidSum float64
		for _, k := range n.kids {
			kidSum += p50[k.span] * k.times
		}
		kidScale := 1.0
		if parallelKids(n.kids) && kidSum > total && kidSum > 0 {
			kidScale = total / kidSum
		}
		perLayer[n.layer] += max(0, total-kidSum*kidScale) * scale
		for _, k := range n.kids {
			visit(k, p50[k.span], scale*k.times*kidScale)
		}
	}
	for _, root := range roots {
		visit(root, p50[root.span], root.times)
	}
	b := budget{Workload: workload, HTTPp50Us: httpUs, UnexplainedUs: httpUs}
	for _, layer := range layerOrder {
		if v, ok := perLayer[layer]; ok {
			b.Rows = append(b.Rows, budgetRow{Layer: layer, SelfUs: v})
			b.UnexplainedUs -= v
		}
	}
	return b
}

func parallelKids(kids []budgetNode) bool {
	for _, k := range kids {
		if k.parallel {
			return true
		}
	}
	return false
}

// layerShare is the summed self time of the named layers as a share of the
// HTTP median.
func (b budget) layerShare(layers ...string) float64 {
	var sum float64
	for _, row := range b.Rows {
		for _, l := range layers {
			if row.Layer == l {
				sum += row.SelfUs
			}
		}
	}
	return sum / b.HTTPp50Us
}

// String renders the table.
func (b budget) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "budget %-16s %10s %7s\n", b.Workload, "us", "share")
	fmt.Fprintf(&sb, "  %-21s %10.1f %6.1f%%\n", "http p50", b.HTTPp50Us, 100.0)
	for _, row := range b.Rows {
		fmt.Fprintf(&sb, "  %-21s %10.1f %6.1f%%\n", row.Layer+" self", row.SelfUs, 100*row.SelfUs/b.HTTPp50Us)
	}
	fmt.Fprintf(&sb, "  %-21s %10.1f %6.1f%%\n", "unexplained_us", b.UnexplainedUs, 100*b.UnexplainedUs/b.HTTPp50Us)
	return sb.String()
}

// traceFile is what a traced run leaves in bench/out.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
