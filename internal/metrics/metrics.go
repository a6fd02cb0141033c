// Package metrics implements the measurement primitives used by the
// evaluation harness: monotonic counters, latency recorders with quantile and
// CDF extraction, and the billable-memory (GB-second) accounting defined in
// §6.1 of the paper.
package metrics

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a concurrency-safe monotonic counter (e.g. bytes transferred).
// It is a single atomic so hot paths (per-call warm-start accounting,
// per-pull byte counts) never serialise on a lock.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n may be negative for corrections).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v.Store(0) }

// ReservoirCap bounds the raw samples a Latencies retains. Beyond it,
// recording switches to reservoir sampling (Vitter's algorithm R), so
// arbitrarily long experiment runs hold a fixed ~512 KiB of samples while
// count, mean and max stay exact and quantiles stay uniformly representative.
const ReservoirCap = 65536

// Latencies records latency samples and answers distribution queries. Memory
// is bounded at ReservoirCap samples; see its comment for what stays exact.
type Latencies struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
	seen    int64         // total samples ever recorded
	sum     time.Duration // exact running sum
	max     time.Duration // exact running max
	rng     *rand.Rand
}

// Record appends one sample, evicting a uniformly random earlier sample once
// the reservoir is full.
func (l *Latencies) Record(d time.Duration) {
	l.mu.Lock()
	l.seen++
	l.sum += d
	if d > l.max {
		l.max = d
	}
	if len(l.samples) < ReservoirCap {
		l.samples = append(l.samples, d)
		l.sorted = false
	} else {
		if l.rng == nil {
			// Seeded deterministically: reservoir contents (and therefore
			// quantile estimates) are reproducible across runs.
			l.rng = rand.New(rand.NewSource(1))
		}
		if j := l.rng.Int63n(l.seen); j < ReservoirCap {
			l.samples[j] = d
			l.sorted = false
		}
	}
	l.mu.Unlock()
}

// Count returns the number of recorded samples (exact, not the retained
// reservoir size).
func (l *Latencies) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.seen)
}

func (l *Latencies) sortLocked() {
	if !l.sorted {
		sort.Slice(l.samples, func(i, j int) bool { return l.samples[i] < l.samples[j] })
		l.sorted = true
	}
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) using nearest-rank, or 0 if
// no samples were recorded.
func (l *Latencies) Quantile(q float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) == 0 {
		return 0
	}
	l.sortLocked()
	if q <= 0 {
		return l.samples[0]
	}
	if q >= 1 {
		return l.max
	}
	idx := int(math.Ceil(q*float64(len(l.samples)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(l.samples) {
		idx = len(l.samples) - 1
	}
	return l.samples[idx]
}

// Median returns the 50th percentile.
func (l *Latencies) Median() time.Duration { return l.Quantile(0.5) }

// Mean returns the exact arithmetic mean over every recorded sample, or 0
// with no samples.
func (l *Latencies) Mean() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == 0 {
		return 0
	}
	return l.sum / time.Duration(l.seen)
}

// Max returns the largest sample ever recorded (exact).
func (l *Latencies) Max() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.max
}

// FractionBelow returns the fraction of samples strictly below d.
func (l *Latencies) FractionBelow(d time.Duration) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) == 0 {
		return 0
	}
	l.sortLocked()
	i := sort.Search(len(l.samples), func(i int) bool { return l.samples[i] >= d })
	return float64(i) / float64(len(l.samples))
}

// CDF returns (latency, cumulative fraction) pairs at n evenly spaced ranks,
// suitable for plotting Fig 7b-style curves.
func (l *Latencies) CDF(n int) []CDFPoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) == 0 || n <= 0 {
		return nil
	}
	l.sortLocked()
	pts := make([]CDFPoint, 0, n)
	for i := 1; i <= n; i++ {
		frac := float64(i) / float64(n)
		idx := int(math.Ceil(frac*float64(len(l.samples)))) - 1
		if idx < 0 {
			idx = 0
		}
		pts = append(pts, CDFPoint{Latency: l.samples[idx], Fraction: frac})
	}
	return pts
}

// CDFPoint is one point of a latency CDF.
type CDFPoint struct {
	Latency  time.Duration
	Fraction float64
}

// BillableMemory accumulates GB-seconds: the product of each instance's peak
// memory footprint and its runtime, as billed by serverless platforms (§6.1).
type BillableMemory struct {
	mu        sync.Mutex
	gbSeconds float64
}

// Charge adds one instance execution: peakBytes held for dur.
func (b *BillableMemory) Charge(peakBytes int64, dur time.Duration) {
	gb := float64(peakBytes) / 1e9
	b.mu.Lock()
	b.gbSeconds += gb * dur.Seconds()
	b.mu.Unlock()
}

// GBSeconds returns the accumulated billable memory.
func (b *BillableMemory) GBSeconds() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gbSeconds
}

// Reset zeroes the accumulator.
func (b *BillableMemory) Reset() {
	b.mu.Lock()
	b.gbSeconds = 0
	b.mu.Unlock()
}
