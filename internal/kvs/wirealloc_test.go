package kvs_test

// Allocation pin for the global tier's data path: one 512 KiB pull (a single
// GetRanges window) and one 512 KiB push (SetRange) through a loopback
// Server, measured in bytes allocated — client and server together — per
// payload byte moved. The budget test holds both at or below the values
// measured before the command table landed; a data-path change that reads
// payloads straight into their destination should lower the budgets.

import (
	"runtime"
	"testing"

	"faasm.dev/faasm/internal/kvs"
)

const wireWindow = 512 << 10

// Budgets in allocated bytes per byte moved.
const (
	pullAllocBudget = 2.01
	pushAllocBudget = 1.01
)

func wireFixture(tb testing.TB) *kvs.Client {
	tb.Helper()
	srv, err := kvs.NewServer(kvs.NewEngine(), "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	c := kvs.NewClient(srv.Addr())
	tb.Cleanup(func() {
		c.Close()
		srv.Close()
	})
	if err := c.Set("blob", make([]byte, wireWindow)); err != nil {
		tb.Fatal(err)
	}
	return c
}

func wirePull(tb testing.TB, c *kvs.Client) {
	vals, err := c.GetRanges("blob", []kvs.Range{{Off: 0, N: wireWindow}})
	if err != nil || len(vals) != 1 || len(vals[0]) != wireWindow {
		tb.Fatalf("pull: %d values, %v", len(vals), err)
	}
}

func wirePush(val []byte) func(testing.TB, *kvs.Client) {
	return func(tb testing.TB, c *kvs.Client) {
		if err := c.SetRange("blob", 0, val); err != nil {
			tb.Fatal(err)
		}
	}
}

// allocPerByte runs op n times after one warm-up call and returns the bytes
// allocated per payload byte moved.
func allocPerByte(tb testing.TB, c *kvs.Client, n int, op func(testing.TB, *kvs.Client)) float64 {
	op(tb, c)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op(tb, c)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n*wireWindow)
}

func benchWire(b *testing.B, op func(testing.TB, *kvs.Client)) {
	c := wireFixture(b)
	b.SetBytes(wireWindow)
	b.ReportAllocs()
	b.ResetTimer()
	perByte := allocPerByte(b, c, b.N, op)
	b.ReportMetric(perByte, "allocB/B")
}

func BenchmarkWirePull512K(b *testing.B) { benchWire(b, wirePull) }

func BenchmarkWirePush512K(b *testing.B) { benchWire(b, wirePush(make([]byte, wireWindow))) }

func TestWireAllocBudget(t *testing.T) {
	c := wireFixture(t)
	for _, tc := range []struct {
		name   string
		op     func(testing.TB, *kvs.Client)
		budget float64
	}{
		{"pull", wirePull, pullAllocBudget},
		{"push", wirePush(make([]byte, wireWindow)), pushAllocBudget},
	} {
		if got := allocPerByte(t, c, 20, tc.op); got > tc.budget {
			t.Errorf("%s: %.3f bytes allocated per byte moved, budget %.2f", tc.name, got, tc.budget)
		}
	}
}
