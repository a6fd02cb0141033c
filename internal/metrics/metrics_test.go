package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 1000 {
		t.Fatalf("counter = %d", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestLatencyQuantiles(t *testing.T) {
	var l Latencies
	for i := 1; i <= 100; i++ {
		l.Record(time.Duration(i) * time.Millisecond)
	}
	if l.Count() != 100 {
		t.Fatalf("count = %d", l.Count())
	}
	if m := l.Median(); m != 50*time.Millisecond {
		t.Fatalf("median = %v", m)
	}
	if q := l.Quantile(0.99); q != 99*time.Millisecond {
		t.Fatalf("p99 = %v", q)
	}
	if q := l.Quantile(0); q != time.Millisecond {
		t.Fatalf("p0 = %v", q)
	}
	if q := l.Max(); q != 100*time.Millisecond {
		t.Fatalf("max = %v", q)
	}
	if mean := l.Mean(); mean != 50500*time.Microsecond {
		t.Fatalf("mean = %v", mean)
	}
}

func TestLatencyReservoirBounded(t *testing.T) {
	var l Latencies
	n := ReservoirCap * 4
	for i := 1; i <= n; i++ {
		l.Record(time.Duration(i))
	}
	if l.Count() != n {
		t.Fatalf("count = %d, want exact %d", l.Count(), n)
	}
	l.mu.Lock()
	retained := len(l.samples)
	l.mu.Unlock()
	if retained != ReservoirCap {
		t.Fatalf("retained %d samples, cap is %d", retained, ReservoirCap)
	}
	if l.Max() != time.Duration(n) {
		t.Fatalf("max = %v, want exact %d", l.Max(), n)
	}
	if mean := l.Mean(); mean != time.Duration(n+1)/2 {
		t.Fatalf("mean = %v, want exact %d", mean, (n+1)/2)
	}
	// The reservoir is a uniform sample: the median must land near n/2
	// (within 5% of the range is far looser than the expected error).
	med := l.Median()
	if med < time.Duration(n)*45/100 || med > time.Duration(n)*55/100 {
		t.Fatalf("median = %v after reservoir, want ≈ %d", med, n/2)
	}
}

func TestLatencyEmpty(t *testing.T) {
	var l Latencies
	if l.Median() != 0 || l.Mean() != 0 || l.Max() != 0 {
		t.Fatal("empty latencies must be zero")
	}
	if pts := l.CDF(10); pts != nil {
		t.Fatal("empty CDF must be nil")
	}
	if f := l.FractionBelow(time.Second); f != 0 {
		t.Fatal("empty fraction must be 0")
	}
}

func TestFractionBelow(t *testing.T) {
	var l Latencies
	for i := 1; i <= 10; i++ {
		l.Record(time.Duration(i) * time.Millisecond)
	}
	if f := l.FractionBelow(5 * time.Millisecond); f != 0.4 {
		t.Fatalf("fraction below 5ms = %v", f)
	}
	if f := l.FractionBelow(time.Hour); f != 1 {
		t.Fatalf("fraction below 1h = %v", f)
	}
}

func TestCDFMonotonic(t *testing.T) {
	var l Latencies
	for _, d := range []time.Duration{5, 1, 9, 3, 7} {
		l.Record(d * time.Millisecond)
	}
	pts := l.CDF(5)
	if len(pts) != 5 {
		t.Fatalf("cdf points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Latency < pts[i-1].Latency || pts[i].Fraction <= pts[i-1].Fraction {
			t.Fatalf("CDF not monotonic at %d: %+v", i, pts)
		}
	}
	if pts[4].Latency != 9*time.Millisecond || pts[4].Fraction != 1 {
		t.Fatalf("last point: %+v", pts[4])
	}
}

func TestBillableMemory(t *testing.T) {
	var b BillableMemory
	b.Charge(2e9, 3*time.Second) // 2 GB for 3s = 6 GB-s
	b.Charge(5e8, 2*time.Second) // 0.5 GB for 2s = 1 GB-s
	if got := b.GBSeconds(); got < 6.99 || got > 7.01 {
		t.Fatalf("GB-seconds = %v", got)
	}
	b.Reset()
	if b.GBSeconds() != 0 {
		t.Fatal("reset failed")
	}
}
