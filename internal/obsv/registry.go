package obsv

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonic counter, one atomic add per write: registry-owned
// (Registry.Counter), or a plain field exposed with CounterFunc. The zero
// value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// KiBMicros prices one execution's billable memory (§6.1's GB-seconds:
// footprint held for the run) in the integer unit a Counter accumulates,
// KiB·µs, truncated. One unit is 1.024e-12 GB-s, so a 64 KiB echo that runs
// 70 µs charges 4480 units and an int64 holds 9.4e6 GB-s.
func KiBMicros(bytes int64, d time.Duration) int64 {
	return int64(float64(bytes) * float64(d) / (1 << 10 * 1e3))
}

// Gauge is a registry-owned instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the number of power-of-two histogram buckets: bucket b
// counts observations v with bits.Len64(v) == b, i.e. v in [2^(b-1), 2^b).
const histBuckets = 64

// Histogram is a bounded, power-of-two-bucket histogram over non-negative
// int64 observations (typically nanoseconds). Observe is three atomic adds —
// cheap enough for hot paths, with memory fixed regardless of sample count.
// The zero value is ready to use.
type Histogram struct {
	buckets [histBuckets + 1]atomic.Int64
	sum     atomic.Int64
	count   atomic.Int64
}

// Observe records one value (negative values clamp to 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile approximates the q-th quantile from the bucket counts: the
// geometric midpoint of the bucket holding the q-th observation. Error is
// bounded by the power-of-two bucket width (≤ ~41% of the value), which is
// plenty for latency triage.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b := 0; b <= histBuckets; b++ {
		seen += h.buckets[b].Load()
		if seen >= rank {
			if b == 0 {
				return 0
			}
			shift := b - 1
			if shift > 62 {
				shift = 62
			}
			lo := int64(1) << shift
			hi := int64(math.MaxInt64)
			if b < 63 {
				hi = int64(1)<<b - 1
			}
			return lo + (hi-lo)/2
		}
	}
	return 0
}

// metricKind is the exposition TYPE of a family.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// metric is one (family, label-set) series.
type metric struct {
	labels string // rendered {k="v",...} or ""
	ctr    *Counter
	gauge  *Gauge
	fn     func() int64
	hist   *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	mu      sync.Mutex
	series  map[string]*metric
	ordered []string // label signatures in first-registration order
}

// nameRE is the registry's naming convention, checked at registration:
// faasm_<subsystem>_<noun>[...], lower snake case throughout.
var nameRE = regexp.MustCompile(`^faasm_[a-z][a-z0-9]*_[a-z0-9_]+$`)

// labelRE constrains label names.
var labelRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// Registry holds metric families. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// renderLabels canonicalises a label set ({} order-independent).
func renderLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !labelRE.MatchString(k) {
			panic(fmt.Sprintf("obsv: invalid label name %q", k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

func (r *Registry) family(name, help string, kind metricKind) *family {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("obsv: metric name %q violates the faasm_<subsystem>_<noun> convention", name))
	}
	if kind == kindCounter && !strings.HasSuffix(name, "_total") {
		panic(fmt.Sprintf("obsv: counter %q must end in _total", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: map[string]*metric{}}
		r.fams[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obsv: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

// series returns the (creating if needed) series for a label set; make is
// called under the family lock to build a fresh metric.
func (f *family) metricFor(labels map[string]string, make func() *metric) *metric {
	sig := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.series[sig]
	if !ok {
		m = make()
		m.labels = sig
		f.series[sig] = m
		f.ordered = append(f.ordered, sig)
	}
	return m
}

// Counter registers (or fetches) a registry-owned counter.
func (r *Registry) Counter(name, help string, labels map[string]string) *Counter {
	m := r.family(name, help, kindCounter).metricFor(labels, func() *metric { return &metric{ctr: &Counter{}} })
	return m.ctr
}

// CounterFunc registers a counter whose value is read from f at exposition
// time — the bridge for pre-existing atomic counters (no double counting on
// the write path). Re-registering the same series replaces the function.
func (r *Registry) CounterFunc(name, help string, labels map[string]string, f func() int64) {
	m := r.family(name, help, kindCounter).metricFor(labels, func() *metric { return &metric{} })
	m.fn = f
}

// Gauge registers (or fetches) a registry-owned gauge.
func (r *Registry) Gauge(name, help string, labels map[string]string) *Gauge {
	m := r.family(name, help, kindGauge).metricFor(labels, func() *metric { return &metric{gauge: &Gauge{}} })
	return m.gauge
}

// GaugeFunc registers a gauge read from f at exposition time.
func (r *Registry) GaugeFunc(name, help string, labels map[string]string, f func() int64) {
	m := r.family(name, help, kindGauge).metricFor(labels, func() *metric { return &metric{} })
	m.fn = f
}

// Histogram registers (or fetches) a histogram. Duration histograms observe
// nanoseconds and must be named *_seconds: exposition divides by 1e9.
func (r *Registry) Histogram(name, help string, labels map[string]string) *Histogram {
	m := r.family(name, help, kindHistogram).metricFor(labels, func() *metric { return &metric{hist: &Histogram{}} })
	return m.hist
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), families and series in stable order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	r.mu.Unlock()
	sort.Strings(names)

	for _, name := range names {
		r.mu.Lock()
		f := r.fams[name]
		r.mu.Unlock()
		if f == nil {
			continue
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		f.mu.Lock()
		sigs := append([]string(nil), f.ordered...)
		series := make([]*metric, len(sigs))
		for i, sig := range sigs {
			series[i] = f.series[sig]
		}
		f.mu.Unlock()
		for _, m := range series {
			if err := writeSeries(w, f, m); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, m *metric) error {
	switch f.kind {
	case kindCounter, kindGauge:
		var v int64
		switch {
		case m.fn != nil:
			v = m.fn()
		case m.ctr != nil:
			v = m.ctr.Value()
		case m.gauge != nil:
			v = m.gauge.Value()
		}
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, m.labels, v)
		return err
	case kindHistogram:
		return writeHistogram(w, f.name, m)
	}
	return nil
}

// writeHistogram renders cumulative power-of-two buckets. Duration
// histograms (named *_seconds) observe nanoseconds internally; bounds and
// sum are scaled to seconds on the way out.
func writeHistogram(w io.Writer, name string, m *metric) error {
	scale := 1.0
	if strings.HasSuffix(name, "_seconds") {
		scale = 1e-9
	}
	labels := m.labels
	inner := ""
	if labels != "" {
		inner = labels[1:len(labels)-1] + ","
	}
	var cum int64
	for b := 0; b < histBuckets; b++ {
		n := m.hist.buckets[b].Load()
		cum += n
		if n == 0 {
			continue // keep the output compact: only materialised buckets
		}
		le := formatFloat(float64(uint64(1)<<b-1) * scale)
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, inner, le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, inner, m.hist.Count()); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(float64(m.hist.Sum())*scale)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, m.hist.Count())
	return err
}

func formatFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}
