package frt

import (
	"errors"
	"testing"
	"time"

	"faasm.dev/faasm/internal/core"
	"faasm.dev/faasm/internal/kvs"
)

// TestDrainRefusesForwardedWorkButFinishesInflight is the graceful-stop
// contract: a call already executing when Drain lands runs to completion,
// while forwarded-in work arriving afterwards is refused with ErrDraining so
// the caller's route() falls back locally.
func TestDrainRefusesForwardedWorkButFinishesInflight(t *testing.T) {
	inst := New(Config{Host: "h1"})
	defer inst.Shutdown()
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	inst.RegisterNative("slow", func(ctx *core.Ctx) (int32, error) {
		started <- struct{}{}
		<-gate
		ctx.WriteOutput([]byte("done"))
		return 0, nil
	})

	type result struct {
		out []byte
		ret int32
		err error
	}
	res := make(chan result, 1)
	go func() {
		out, ret, err := inst.ExecuteForwarded("slow", nil, 0)
		res <- result{out, ret, err}
	}()
	<-started
	if err := inst.Drain(); err != nil {
		t.Fatal(err)
	}
	if !inst.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	if got := inst.Inflight(); got != 1 {
		t.Fatalf("inflight during drain = %d, want 1", got)
	}
	// New forwarded work is refused while the old call is still running.
	if _, _, err := inst.ExecuteForwarded("slow", nil, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("forwarded work during drain: err = %v, want ErrDraining", err)
	}
	close(gate)
	r := <-res
	if r.err != nil || r.ret != 0 || string(r.out) != "done" {
		t.Fatalf("in-flight call did not finish cleanly: %q %d %v", r.out, r.ret, r.err)
	}
	if got := inst.Inflight(); got != 0 {
		t.Fatalf("inflight after completion = %d, want 0", got)
	}
}

// TestDrainForwardsNewLocalCallsToWarmPeer: calls entering a draining host
// locally are handed to a warm peer rather than executed (or failed) here.
func TestDrainForwardsNewLocalCallsToWarmPeer(t *testing.T) {
	store := kvs.NewEngine()
	tr := &mapTransport{peers: map[string]*Instance{}}
	h1 := New(Config{Host: "h1", Store: store, Transport: tr})
	h2 := New(Config{Host: "h2", Store: store, Transport: tr})
	defer h1.Shutdown()
	defer h2.Shutdown()
	tr.peers["h1"] = h1
	tr.peers["h2"] = h2
	fn := func(ctx *core.Ctx) (int32, error) { return 0, nil }
	h1.RegisterNative("work", fn)
	h2.RegisterNative("work", fn)
	// Both hosts warm (ExecuteLocal so h2's warm-up is not itself forwarded
	// to the already-warm h1).
	if _, _, err := h1.Call("work", nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h2.ExecuteLocal("work", nil); err != nil {
		t.Fatal(err)
	}
	// h2's beat lists work; h1's beat after it reads that into h1's view.
	h2.Scheduler().Heartbeat()
	h1.Scheduler().Heartbeat()

	if err := h1.Drain(); err != nil {
		t.Fatal(err)
	}
	before := h2.WarmStarts.Value() + h2.ColdStarts.Value()
	for k := 0; k < 5; k++ {
		if _, ret, err := h1.Call("work", nil); err != nil || ret != 0 {
			t.Fatalf("call %d on draining host: %d %v", k, ret, err)
		}
	}
	if got := h2.WarmStarts.Value() + h2.ColdStarts.Value() - before; got != 5 {
		t.Fatalf("peer executed %d of 5 calls entered on the draining host", got)
	}
	// The draining host is out of the warm set.
	hosts, _ := h2.Scheduler().WarmHosts("work")
	for _, h := range hosts {
		if h == "h1" {
			t.Fatalf("draining host still advertised: %v", hosts)
		}
	}
}

// TestDrainWithoutPeersNeverFailsACall: the last host standing executes new
// local calls itself — drain degrades placement, never availability.
func TestDrainWithoutPeersNeverFailsACall(t *testing.T) {
	inst := New(Config{Host: "h1"})
	defer inst.Shutdown()
	inst.RegisterNative("work", func(ctx *core.Ctx) (int32, error) {
		ctx.WriteOutput([]byte("ok"))
		return 0, nil
	})
	if _, _, err := inst.Call("work", nil); err != nil {
		t.Fatal(err)
	}
	if err := inst.Drain(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		out, ret, err := inst.Call("work", nil)
		if err != nil || ret != 0 || string(out) != "ok" {
			t.Fatalf("call %d on peerless draining host: %q %d %v", k, out, ret, err)
		}
	}
}

// TestDrainLeaseExpiresAndPeersRouteAround: after Drain the host's liveness
// lease expires tier-side within one TTL, and a peer's scheduler stops
// seeing it warm anywhere.
func TestDrainLeaseExpiresAndPeersRouteAround(t *testing.T) {
	store := kvs.NewEngine()
	const ttl = 40 * time.Millisecond
	h1 := New(Config{Host: "h1", Store: store, LeaseTTL: ttl})
	defer h1.Shutdown()
	h1.RegisterNative("work", func(ctx *core.Ctx) (int32, error) { return 0, nil })
	if _, _, err := h1.Call("work", nil); err != nil {
		t.Fatal(err)
	}
	h1.Scheduler().Heartbeat()
	if rec, _ := store.Get("sched/alive/h1"); len(rec) == 0 {
		t.Fatal("no lease before drain")
	}
	if err := h1.Drain(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(ttl + ttl/2)
	for {
		rec, _ := store.Get("sched/alive/h1")
		if len(rec) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drained host's lease still live past 1 TTL: %q", rec)
		}
		time.Sleep(2 * time.Millisecond)
	}
	h2 := New(Config{Host: "h2", Store: store, LeaseTTL: ttl})
	defer h2.Shutdown()
	if hosts, _ := h2.Scheduler().WarmHosts("work"); len(hosts) != 0 {
		t.Fatalf("drained host still warm-visible to peers: %v", hosts)
	}
}

// TestDrainStopsElasticGrowth: the elastic controller must not pre-provision
// Faaslets on a host that is winding down.
func TestDrainStopsElasticGrowth(t *testing.T) {
	inst := New(Config{
		Host:            "h1",
		PoolCap:         64,
		ElasticPool:     true,
		ElasticInterval: 2 * time.Millisecond,
		PoolIdleTimeout: time.Hour,
	})
	defer inst.Shutdown()
	inst.RegisterNative("fn", func(ctx *core.Ctx) (int32, error) { return 0, nil })
	if _, _, err := inst.Call("fn", nil); err != nil {
		t.Fatal(err)
	}
	if err := inst.Drain(); err != nil {
		t.Fatal(err)
	}
	before := inst.Prewarmed.Value()
	// Generate pool misses that would normally drive grow-ahead.
	d, _ := inst.deployed("fn")
	for k := 0; k < 4; k++ {
		d.pool.mu.Lock()
		d.pool.misses++
		d.pool.mu.Unlock()
	}
	time.Sleep(20 * time.Millisecond)
	if got := inst.Prewarmed.Value() - before; got != 0 {
		t.Fatalf("elastic controller prewarmed %d Faaslets on a draining host", got)
	}
	// Drain is idempotent at the instance level too.
	if err := inst.Drain(); err != nil {
		t.Fatal(err)
	}
}
