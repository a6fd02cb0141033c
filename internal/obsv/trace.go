package obsv

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one invocation's trace. 0 is "untraced": it is never
// assigned, and propagating it to a peer is a no-op there.
type TraceID uint64

// Span is one timed segment of an invocation. Name is the span taxonomy
// entry (see docs/ARCHITECTURE.md); Key is the span's object — a state key,
// a peer host, a function name — and Bytes the payload moved, where that
// makes sense for the span kind.
type Span struct {
	Host  string `json:"host"`
	Name  string `json:"name"`
	Key   string `json:"key,omitempty"`
	Start int64  `json:"start_ns"` // tracer-clock unix nanos
	Dur   int64  `json:"dur_ns"`
	Bytes int64  `json:"bytes,omitempty"`
	Fail  bool   `json:"fail,omitempty"`
}

// Trace accumulates the spans of one invocation. All methods are safe on a
// nil receiver, so unsampled call sites record unconditionally.
type Trace struct {
	id    TraceID
	fn    string
	host  string // entry host
	start int64

	mu    sync.Mutex
	spans []Span

	finished atomic.Bool
}

// ID returns the trace id (0 for a nil trace).
func (t *Trace) ID() TraceID {
	if t == nil {
		return 0
	}
	return t.id
}

// Started reports when the trace began (Tracer.Start's clock reading).
func (t *Trace) Started() time.Time { return time.Unix(0, t.start) }

// RecordSpan appends one span. Nil-safe; implements core.TraceSink.
func (t *Trace) RecordSpan(host, name, key string, start time.Time, dur time.Duration, bytes int64, fail bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{
		Host:  host,
		Name:  name,
		Key:   key,
		Start: start.UnixNano(),
		Dur:   int64(dur),
		Bytes: bytes,
		Fail:  fail,
	})
	t.mu.Unlock()
}

// TraceSnapshot is a trace's queryable form (GET /trace/<id>).
type TraceSnapshot struct {
	ID    TraceID `json:"id"`
	Fn    string  `json:"fn"`
	Host  string  `json:"host"`
	Start int64   `json:"start_ns"`
	// Dur is the span-covered duration: from the trace's start to the last
	// span's end (0 when no span has completed yet).
	Dur   int64  `json:"dur_ns"`
	Spans []Span `json:"spans"`
}

func (t *Trace) snapshot() TraceSnapshot {
	t.mu.Lock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var end int64
	for _, s := range spans {
		if e := s.Start + s.Dur; e > end {
			end = e
		}
	}
	dur := end - t.start
	if dur < 0 {
		dur = 0
	}
	return TraceSnapshot{ID: t.id, Fn: t.fn, Host: t.host, Start: t.start, Dur: dur, Spans: spans}
}

// DefaultSampleRate traces one invocation in this many by default; at this
// rate the warm invoke path stays within noise of its untraced cost.
const DefaultSampleRate = 64

// DefaultTraceBuffer is the default number of retained traces.
const DefaultTraceBuffer = 1024

// traceShards spreads retention so concurrent sampled calls rarely contend.
const traceShards = 16

type traceShard struct {
	mu   sync.Mutex
	byID map[TraceID]*Trace
	ring []TraceID // FIFO eviction order
	next int
}

// Tracer samples, retains and aggregates invocation traces for one host (or
// one shared harness). The unsampled path is one atomic add and a modulo.
type Tracer struct {
	now  func() time.Time
	rate atomic.Int64
	seq  atomic.Uint64

	shards [traceShards]traceShard

	// agg is the per-span-name aggregate view: name → *SpanAgg, fed once per
	// trace at Finish.
	agg sync.Map
}

// SpanAgg aggregates all finished occurrences of one span name.
type SpanAgg struct {
	durs  Histogram // nanos
	bytes atomic.Int64
	fails atomic.Int64
}

// SpanStat is one span name's aggregate summary.
type SpanStat struct {
	Name  string
	Count int64
	P50   time.Duration
	P99   time.Duration
	Total time.Duration
	Bytes int64
	Fails int64
}

// NewTracer creates a tracer on the given clock. sampleRate traces 1-in-N
// invocations (<= 0 disables tracing entirely, 1 traces everything); callers
// wanting the standard rate pass DefaultSampleRate. buffer bounds retained
// traces (<= 0 means DefaultTraceBuffer).
func NewTracer(now func() time.Time, sampleRate, buffer int) *Tracer {
	if now == nil {
		now = time.Now
	}
	if buffer <= 0 {
		buffer = DefaultTraceBuffer
	}
	per := buffer / traceShards
	if per < 1 {
		per = 1
	}
	t := &Tracer{now: now}
	t.rate.Store(int64(sampleRate))
	for i := range t.shards {
		t.shards[i].byID = make(map[TraceID]*Trace, per)
		t.shards[i].ring = make([]TraceID, per)
	}
	return t
}

// SetSampleRate changes the sampling rate: trace 1-in-n (n == 1 traces all,
// n <= 0 disables).
func (tr *Tracer) SetSampleRate(n int) { tr.rate.Store(int64(n)) }

// Start begins a trace for one invocation entering at host, or returns nil
// when the invocation is sampled out (the common case).
func (tr *Tracer) Start(host, fn string) *Trace {
	seq := tr.seq.Add(1)
	rate := tr.rate.Load()
	if rate <= 0 || seq%uint64(rate) != 0 {
		return nil
	}
	t := &Trace{id: TraceID(seq), fn: fn, host: host, start: tr.now().UnixNano()}
	tr.retain(t)
	return t
}

// Join attaches to the trace a peer propagated (a forwarded call's remote
// half). With a shared tracer the existing trace is returned (created =
// false) and the origin still owns its lifecycle; with per-host tracers a
// local trace is created under the same ID (created = true) and the caller
// must Finish it. id 0 returns nil.
func (tr *Tracer) Join(id TraceID, host, fn string) (t *Trace, created bool) {
	if id == 0 {
		return nil, false
	}
	s := &tr.shards[uint64(id)%traceShards]
	s.mu.Lock()
	if t = s.byID[id]; t != nil {
		s.mu.Unlock()
		return t, false
	}
	s.mu.Unlock()
	t = &Trace{id: id, fn: fn, host: host, start: tr.now().UnixNano()}
	tr.retain(t)
	return t, true
}

// retain inserts t into its shard, evicting the oldest retained trace when
// the shard's ring is full.
func (tr *Tracer) retain(t *Trace) {
	s := &tr.shards[uint64(t.id)%traceShards]
	s.mu.Lock()
	if old := s.ring[s.next]; old != 0 {
		delete(s.byID, old)
	}
	s.ring[s.next] = t.id
	s.next = (s.next + 1) % len(s.ring)
	s.byID[t.id] = t
	s.mu.Unlock()
}

// Finish seals a trace and feeds its spans into the per-name aggregates.
// Nil-safe and idempotent (a shared-tracer forward would otherwise
// double-count).
func (tr *Tracer) Finish(t *Trace) {
	if t == nil || !t.finished.CompareAndSwap(false, true) {
		return
	}
	t.mu.Lock()
	spans := make([]Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	for _, s := range spans {
		a := tr.aggFor(s.Name)
		a.durs.Observe(s.Dur)
		if s.Bytes != 0 {
			a.bytes.Add(s.Bytes)
		}
		if s.Fail {
			a.fails.Add(1)
		}
	}
}

func (tr *Tracer) aggFor(name string) *SpanAgg {
	if a, ok := tr.agg.Load(name); ok {
		return a.(*SpanAgg)
	}
	a, _ := tr.agg.LoadOrStore(name, &SpanAgg{})
	return a.(*SpanAgg)
}

// Get returns the retained trace with the given id.
func (tr *Tracer) Get(id TraceID) (TraceSnapshot, bool) {
	if id == 0 {
		return TraceSnapshot{}, false
	}
	s := &tr.shards[uint64(id)%traceShards]
	s.mu.Lock()
	t := s.byID[id]
	s.mu.Unlock()
	if t == nil {
		return TraceSnapshot{}, false
	}
	return t.snapshot(), true
}

// Slowest returns up to n retained traces ordered by descending duration
// (GET /traces?slowest=N).
func (tr *Tracer) Slowest(n int) []TraceSnapshot {
	if n <= 0 {
		n = 10
	}
	var all []TraceSnapshot
	for i := range tr.shards {
		s := &tr.shards[i]
		s.mu.Lock()
		ts := make([]*Trace, 0, len(s.byID))
		for _, t := range s.byID {
			ts = append(ts, t)
		}
		s.mu.Unlock()
		for _, t := range ts {
			all = append(all, t.snapshot())
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Dur > all[j].Dur })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// SpanStats summarises every span name seen by finished traces, sorted by
// total time descending — the experiment reports' span breakdown.
func (tr *Tracer) SpanStats() []SpanStat {
	var out []SpanStat
	tr.agg.Range(func(k, v any) bool {
		a := v.(*SpanAgg)
		st := SpanStat{
			Name:  k.(string),
			Count: a.durs.Count(),
			P50:   time.Duration(a.durs.Quantile(0.5)),
			P99:   time.Duration(a.durs.Quantile(0.99)),
			Total: time.Duration(a.durs.Sum()),
			Bytes: a.bytes.Load(),
			Fails: a.fails.Load(),
		}
		out = append(out, st)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}
