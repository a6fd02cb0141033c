package sched

import (
	"testing"
	"time"

	"faasm.dev/faasm/internal/kvs"
)

func TestLeaseLivePrefix(t *testing.T) {
	cases := []struct {
		rec  string
		live bool
	}{
		{"up", true},
		{"up\nfn 1024", true},
		{"up\nfn 1024\nother 5", true},
		{"", false},
		{"u", false},
		{"upx", false},                 // residency must be newline-separated
		{"1700000000000000000", false}, // old writer-clock stamp
		{"down", false},
	}
	for _, c := range cases {
		if got := leaseLive([]byte(c.rec)); got != c.live {
			t.Errorf("leaseLive(%q) = %v, want %v", c.rec, got, c.live)
		}
	}
}

func TestLeasePayloadRoundTrip(t *testing.T) {
	s := New("host-a", nil, 10)
	s.SetResidencyProvider(func(fn string) int64 {
		switch fn {
		case "hot":
			return 4096
		case "cold":
			return 0
		}
		return 0
	})
	// Every advertised function rides the lease, and only those.
	s.fn("hot").advertised.Store(true)
	s.fn("cold").advertised.Store(true)
	s.fn("two words").advertised.Store(true)
	s.fn("unadvertised").advertised.Store(false)

	rec, n := s.leaseRecord()
	if !leaseLive(rec) {
		t.Fatalf("payload %q not live", rec)
	}
	got := adverts(rec)
	if n != 3 || len(got) != 3 {
		t.Fatalf("lease %q lists %d (%d decoded), want 3", rec, n, len(got))
	}
	if got["hot"] != 4096 {
		t.Fatalf("hot resident = %d, want 4096", got["hot"])
	}
	if b, ok := got["cold"]; !ok || b != 0 {
		t.Fatalf("cold = %d %v, want listed with 0 resident bytes", b, ok)
	}
	if _, ok := got["two words"]; !ok {
		t.Fatalf("a name with a space is not listed: %q", rec)
	}
	if _, ok := got["ho"]; ok {
		t.Fatal("a prefix of a listed name decoded as listed")
	}
	if len(adverts([]byte("up"))) != 0 {
		t.Fatal("a bare lease lists functions")
	}
}

// residencyOnLease drives the full advert → lease → decode path over a real
// store: the peer's heartbeat lists residency on its lease, and the
// scheduling host learns it from the same beat that builds its view.
func TestResidencyRidesLease(t *testing.T) {
	store := kvs.NewEngine()
	b := New("host-b", store, 10)
	b.SetResidencyProvider(func(fn string) int64 { return 1 << 20 })
	b.Schedule("fn") // cold-start: advertises warm
	b.NoteWarm("fn", 1)
	if err := b.Heartbeat(); err != nil {
		t.Fatal(err)
	}

	a := New("host-a", store, 10)
	a.Heartbeat()
	a.LocalityWeight = 8
	d, err := a.Schedule("fn")
	if err != nil {
		t.Fatal(err)
	}
	if d.Placement != PlaceForward || d.TargetHost != "host-b" {
		t.Fatalf("decision = %+v", d)
	}
	if d.SavedBytes != 1<<20 || d.LocalityFrac != 1 || d.BestResidentHost != "host-b" {
		t.Fatalf("locality decision = %+v", d)
	}
	if a.Stats.LocalityHits.Load() != 1 || a.Stats.LocalitySavedBytes.Load() != 1<<20 {
		t.Fatalf("hits=%d saved=%d", a.Stats.LocalityHits.Load(), a.Stats.LocalitySavedBytes.Load())
	}
}

// The blend must steer a stateful function to the peer holding its data even
// when a data-free peer is unprobed (exploration would otherwise rank the
// unprobed peer first) or slightly faster.
func TestPickPeerBlendsLocality(t *testing.T) {
	s := New("host-a", nil, 10)
	s.LocalityWeight = 16
	s.SetFootprintProvider(func(fn string) int64 { return 1000 })

	// data-free is probed and fast; data-home is probed but slower.
	s.ForwardEnd("data-free", 1*time.Millisecond, true)
	s.ForwardEnd("data-home", 2*time.Millisecond, true)
	peers := []peer{{host: "data-free"}, {host: "unprobed"}, {host: "data-home", resident: 1000}}

	target, lp := s.pickPeer("fn", peers)
	if target != "data-home" {
		t.Fatalf("picked %s, want data-home", target)
	}
	if !lp.scored || lp.saved != 1000 || lp.best != "data-home" {
		t.Fatalf("pick = %+v", lp)
	}

	// With the weight off the historical ranking runs: unprobed first.
	s.LocalityWeight = 0
	target, lp = s.pickPeer("fn", peers)
	if target != "unprobed" {
		t.Fatalf("weight-off picked %s, want unprobed (exploration)", target)
	}
	if lp.scored {
		t.Fatal("weight-off pick must not be locality-scored")
	}
}

// A stateless function (no footprint, no adverts) must take the legacy path
// verbatim even with the weight on.
func TestStatelessUnaffectedByLocality(t *testing.T) {
	s := New("host-a", nil, 10)
	s.LocalityWeight = 16
	s.SetFootprintProvider(func(fn string) int64 { return 0 })
	s.ForwardEnd("slow", 10*time.Millisecond, true)
	s.ForwardEnd("fast", 1*time.Millisecond, true)

	target, lp := s.pickPeer("noop", []peer{{host: "slow"}, {host: "fast"}})
	if target != "fast" {
		t.Fatalf("picked %s, want fast", target)
	}
	if lp.scored {
		t.Fatal("stateless pick must not be locality-scored")
	}
	if s.Stats.LocalityHits.Load()+s.Stats.LocalityMisses.Load() != 0 {
		t.Fatal("stateless picks must not move locality counters")
	}
}

// A large enough latency gap still overrules locality: the blend weighs, it
// does not pin.
func TestLatencyCanOverruleLocality(t *testing.T) {
	s := New("host-a", nil, 10)
	s.LocalityWeight = 2 // saved miss factor tops out at ×3
	s.SetFootprintProvider(func(fn string) int64 { return 1000 })
	s.ForwardEnd("data-home", 100*time.Millisecond, true)
	s.ForwardEnd("data-free", 1*time.Millisecond, true)

	target, lp := s.pickPeer("fn", []peer{{host: "data-home", resident: 1000}, {host: "data-free"}})
	if target != "data-free" {
		t.Fatalf("picked %s, want data-free (100× faster beats weight 2)", target)
	}
	if !lp.scored || lp.saved != 0 || lp.best != "data-home" {
		t.Fatalf("pick = %+v", lp)
	}
}
