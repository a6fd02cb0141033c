package simnet

import (
	"testing"
	"time"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/vtime"
)

func TestTransferAccounting(t *testing.T) {
	n := New(0, 0, nil) // free network: accounting only
	n.Transfer("h1", 100, 50)
	n.Transfer("h2", 10, 5)
	if n.Sent.Value() != 110 || n.Received.Value() != 55 {
		t.Fatalf("totals: %d %d", n.Sent.Value(), n.Received.Value())
	}
	h1 := n.Host("h1")
	if h1.Sent.Value() != 100 || h1.Received.Value() != 50 {
		t.Fatalf("h1: %d %d", h1.Sent.Value(), h1.Received.Value())
	}
	if n.TotalBytes() != 165 {
		t.Fatalf("total = %d", n.TotalBytes())
	}
}

func TestBandwidthCharging(t *testing.T) {
	clock := vtime.NewScaled(1000)
	// 1 MB/s: a 100 KB transfer must cost ~100ms on the experiment clock.
	n := New(1_000_000, 0, clock)
	start := clock.Now()
	n.Transfer("h", 100_000, 0)
	elapsed := clock.Now().Sub(start)
	if elapsed < 80*time.Millisecond {
		t.Fatalf("transfer cost only %v", elapsed)
	}
}

func TestLatencyCharging(t *testing.T) {
	clock := vtime.NewScaled(1000)
	n := New(0, 50*time.Millisecond, clock)
	start := clock.Now()
	n.Transfer("h", 1, 1)
	if elapsed := clock.Now().Sub(start); elapsed < 40*time.Millisecond {
		t.Fatalf("latency cost only %v", elapsed)
	}
}

func TestStoreChargesAllOps(t *testing.T) {
	engine := kvs.NewEngine()
	n := New(0, 0, nil)
	s := NewStore(engine, n, "h1")

	s.Set("k", make([]byte, 1000))
	afterSet := n.TotalBytes()
	if afterSet < 1000 {
		t.Fatalf("set charged %d", afterSet)
	}
	s.Get("k")
	if n.TotalBytes()-afterSet < 1000 {
		t.Fatal("get did not charge the payload")
	}
	s.GetRange("k", 0, 100)
	s.SetRange("k", 0, make([]byte, 10))
	s.Append("k2", []byte("xy"))
	s.Len("k")
	s.SAdd("set", "m")
	s.SMembers("set")
	s.SRem("set", "m")
	s.Incr("n", 1)
	tok, err := s.Lock("k", true, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s.Unlock("k", tok)
	s.Delete("k")
	// Every operation pays at least the request overhead.
	if n.TotalBytes() < afterSet+1200 {
		t.Fatalf("ops barely charged: %d", n.TotalBytes())
	}
	// And the store still behaves like the engine underneath.
	v, _ := s.Get("k")
	if v != nil {
		t.Fatal("delete lost")
	}
}
