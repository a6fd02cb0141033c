package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "state.push", Start: 0, End: 1000},
		// A replicated write: two wire calls in parallel under one ring call.
		{ID: 2, Parent: 1, Name: "shardkvs.set_range", Start: 100, End: 900},
		{ID: 3, Parent: 2, Name: "kvs.wire_set_range", Start: 150, End: 700},
		{ID: 4, Parent: 2, Name: "kvs.wire_set_range", Start: 200, End: 850},
		// A child that outlives its parent is clipped to it.
		{ID: 5, Name: "core.execute", Start: 2000, End: 2100},
		{ID: 6, Parent: 5, Name: "shardkvs.get", Start: 2050, End: 2300},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{
		1: 200, // 1000 − [100,900)
		2: 100, // 800 − union [150,850), not 800 − 550 − 650
		3: 550, 4: 650,
		5: 50, // 100 − [2050,2100)
		6: 250,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	st := summarize(spans)
	if st.count["kvs.wire_set_range"] != 2 || st.p50us["kvs.wire_set_range"] != 0.55 {
		t.Errorf("summary: %+v", st)
	}
	if st.selfus["shardkvs.set_range"] != 0.1 {
		t.Errorf("median self time: %v", st.selfus["shardkvs.set_range"])
	}
}

// The instrumented stores never see the walker, yet their spans must nest:
// ring operations under the open step, wire operations under the open ring
// operation.
func TestRecorderNestsByLevel(t *testing.T) {
	rec := newRecorder()
	rec.nextWalk()
	var ring, wire, bare int
	rec.do("state.pull", func() {
		ring = rec.begin("shardkvs.get_range", levelRing)
		wire = rec.begin("kvs.wire_get_range", levelWire)
		rec.end(wire)
		rec.end(ring)
	})
	rec.nextWalk()
	rec.do("kvs.wire_rtt", func() {
		bare = rec.begin("kvs.wire_get", levelWire) // no ring call open
		rec.end(bare)
	})
	byID := map[int]span{}
	for _, s := range rec.spans {
		byID[s.ID] = s
		if s.End < s.Start {
			t.Errorf("span %s never closed", s.Name)
		}
	}
	step := byID[ring].Parent
	if byID[step].Name != "state.pull" || byID[step].Parent != 0 {
		t.Errorf("ring span's parent is %+v", byID[step])
	}
	if byID[wire].Parent != ring {
		t.Errorf("wire span's parent is %d, want the ring span %d", byID[wire].Parent, ring)
	}
	if got := byID[byID[bare].Parent].Name; got != "kvs.wire_rtt" {
		t.Errorf("bare wire span's parent is %q", got)
	}
	if byID[ring].Walk != 1 || byID[bare].Walk != 2 {
		t.Errorf("walk ids: %d %d", byID[ring].Walk, byID[bare].Walk)
	}
}

func TestBudgetSubtraction(t *testing.T) {
	one := func(layer, span string, kids ...budgetNode) budgetNode {
		return budgetNode{layer: layer, span: span, times: 1, kids: kids}
	}
	p50 := map[string]float64{
		"ingress.null": 200, "frt.call": 700, "sched": 1, "exec": 600,
		"wavm": 30, "pull": 480, "ring": 470, "wire": 460, "engine": 90,
	}
	tree := []budgetNode{
		one("ingress", "ingress.null"),
		one("frt", "frt.call", one("sched", "sched"),
			one("core", "exec", one("wavm", "wavm"),
				one("state", "pull", one("shardkvs", "ring", one("kvs.wire", "wire", one("kvs.engine", "engine")))))),
	}
	b := computeBudget("state_read", 1000, tree, p50)
	want := map[string]float64{
		"ingress": 200, "frt": 99, "sched": 1, "core": 90, "wavm": 30,
		"state": 10, "shardkvs": 10, "kvs.wire": 370, "kvs.engine": 90,
	}
	var sum float64
	for _, row := range b.Rows {
		if math.Abs(row.SelfUs-want[row.Layer]) > 1e-9 {
			t.Errorf("%s self = %v, want %v", row.Layer, row.SelfUs, want[row.Layer])
		}
		sum += row.SelfUs
	}
	if len(b.Rows) != len(want) {
		t.Errorf("rows: %+v", b.Rows)
	}
	// Everything under frt.call telescopes to it; what is left of the HTTP
	// median after ingress and frt.call is unexplained.
	if math.Abs(b.UnexplainedUs-100) > 1e-9 || math.Abs(sum+b.UnexplainedUs-1000) > 1e-9 {
		t.Errorf("unexplained = %v, rows sum to %v", b.UnexplainedUs, sum)
	}
	if got := b.layerShare("state", "shardkvs", "kvs.wire", "kvs.engine"); math.Abs(got-0.48) > 1e-9 {
		t.Errorf("tier share = %v, want 0.48", got)
	}

	// Children timed on their own that add up to more than their parent
	// leave it no self time and show as negative unexplained time...
	over := computeBudget("x", 100, []budgetNode{one("frt", "call", one("core", "a"), one("wavm", "b"))},
		map[string]float64{"call": 100, "a": 80, "b": 50})
	if over.Rows[0].SelfUs != 0 || math.Abs(over.UnexplainedUs+30) > 1e-9 {
		t.Errorf("overcounted children: %+v", over)
	}
	// ...unless the parent runs them concurrently: 64 chained calls cannot
	// take longer than the call that awaits them, so they are scaled to fit.
	child := budgetNode{layer: "frt", span: "child", times: 64, parallel: true, kids: []budgetNode{one("mbus", "cycle")}}
	par := computeBudget("chain", 1500, []budgetNode{one("frt", "call", one("wavm", "parent"), child)},
		map[string]float64{"call": 1000, "parent": 40, "child": 60, "cycle": 6})
	got := map[string]float64{}
	for _, row := range par.Rows {
		got[row.Layer] = row.SelfUs
	}
	scale := 1000.0 / (40 + 64*60)
	if math.Abs(got["wavm"]-40*scale) > 1e-9 || math.Abs(got["mbus"]-64*6*scale) > 1e-9 ||
		math.Abs(got["frt"]-64*54*scale) > 1e-9 || math.Abs(par.UnexplainedUs-500) > 1e-9 {
		t.Errorf("parallel children: %+v unexplained %v", got, par.UnexplainedUs)
	}
}
