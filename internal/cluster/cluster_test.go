package cluster

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/hostapi"
	"faasm.dev/faasm/internal/obsv"
)

func TestFaasmClusterBasics(t *testing.T) {
	c := New(Config{Mode: ModeFaasm, Hosts: 2, TimeScale: 1000})
	defer c.Shutdown()
	if err := c.Register("echo", func(api hostapi.API) (int32, error) {
		api.WriteOutput(api.Input())
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	out, ret, err := c.Call("echo", []byte("ping"))
	if err != nil || ret != 0 || string(out) != "ping" {
		t.Fatalf("call: %q %d %v", out, ret, err)
	}
}

func TestBaselineClusterBasics(t *testing.T) {
	c := New(Config{Mode: ModeBaseline, Hosts: 2, TimeScale: 1000, ContainerColdStart: 10 * time.Millisecond})
	if err := c.Register("echo", func(api hostapi.API) (int32, error) {
		api.WriteOutput(api.Input())
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	out, ret, err := c.Call("echo", []byte("ping"))
	if err != nil || ret != 0 || string(out) != "ping" {
		t.Fatalf("call: %q %d %v", out, ret, err)
	}
	if c.Stats().ColdStarts != 1 {
		t.Fatalf("cold starts = %d", c.Stats().ColdStarts)
	}
}

func TestSameGuestSameResultBothPlatforms(t *testing.T) {
	// The paper's methodology: identical code on both platforms. Both must
	// compute the same answer; only costs differ.
	run := func(mode Mode) uint64 {
		cfg := Config{Mode: mode, Hosts: 2, TimeScale: 2000, ContainerColdStart: 5 * time.Millisecond}
		c := New(cfg)
		defer c.Shutdown()
		c.SetState("n", make([]byte, 8))
		// Drive sequentially so the baseline's copy-back semantics are
		// well-defined: each call pushes after increment.
		c.Register("incr-push", func(api hostapi.API) (int32, error) {
			if err := api.StatePull("n"); err != nil {
				return 1, err
			}
			buf, err := api.StateView("n", 8)
			if err != nil {
				return 2, err
			}
			binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)+1)
			return 0, api.StatePush("n")
		})
		for i := 0; i < 6; i++ {
			if _, ret, err := c.Call("incr-push", nil); err != nil || ret != 0 {
				t.Fatalf("%v incr %d: %d %v", mode, i, ret, err)
			}
		}
		g, _ := c.GetState("n")
		return binary.LittleEndian.Uint64(g)
	}
	fa := run(ModeFaasm)
	kn := run(ModeBaseline)
	if fa != 6 || kn != 6 {
		t.Fatalf("results differ: faasm=%d knative=%d", fa, kn)
	}
}

func TestFaasmTransfersLessThanBaseline(t *testing.T) {
	// Many calls reading a 256 KB value: FAASM replicates once per host,
	// the baseline ships data into every container — the Fig 6b mechanic.
	const valSize = 256 * 1024
	const calls = 12
	measure := func(mode Mode) int64 {
		c := New(Config{Mode: mode, Hosts: 2, TimeScale: 5000, ContainerColdStart: time.Millisecond})
		defer c.Shutdown()
		c.SetState("data", make([]byte, valSize))
		// Every call holds its sandbox at a barrier until all of them have
		// read the value, so the calls overlap and the baseline cannot reuse
		// a container: it ships the value into one container per call.
		var arrived atomic.Int32
		allIn := make(chan struct{})
		c.Register("read", func(api hostapi.API) (int32, error) {
			buf, err := api.StateView("data", -1)
			if err != nil {
				return 1, err
			}
			if len(buf) != valSize {
				return 2, nil
			}
			if arrived.Add(1) == calls {
				close(allIn)
			}
			select {
			case <-allIn:
				return 0, nil
			case <-time.After(10 * time.Second):
				return 3, fmt.Errorf("not all %d calls reached the barrier", calls)
			}
		})
		var wg sync.WaitGroup
		for i := 0; i < calls; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, ret, err := c.Call("read", nil); err != nil || ret != 0 {
					t.Errorf("%v read: %d %v", mode, ret, err)
				}
			}()
		}
		wg.Wait()
		return c.Stats().NetworkBytes
	}
	faasm := measure(ModeFaasm)
	knative := measure(ModeBaseline)
	if knative < calls*valSize {
		t.Fatalf("knative transferred %d, want a %d-byte copy per call (%d calls)", knative, valSize, calls)
	}
	if faasm >= knative {
		t.Fatalf("faasm transferred %d >= knative %d", faasm, knative)
	}
	// FAASM needs roughly one replica per host; allow generous slack for
	// scheduler metadata.
	if faasm > 3*valSize {
		t.Fatalf("faasm transferred %d for a %d-byte value on 2 hosts", faasm, valSize)
	}
}

func TestColdStartGapBetweenPlatforms(t *testing.T) {
	// Scaled-clock measurements carry sleep-granularity noise of a few
	// hundred ms (virtual) at this scale, so this test asserts the
	// orders-of-magnitude gap, not precise values — those come from the
	// real-time micro-benchmarks behind Table 3.
	measureFirstCall := func(mode Mode, useProto bool) time.Duration {
		c := New(Config{
			Mode: mode, Hosts: 1, TimeScale: 10, UseProto: useProto,
		})
		defer c.Shutdown()
		c.Register("noop", func(api hostapi.API) (int32, error) { return 0, nil })
		start := c.Clock.Now()
		if _, ret, err := c.Call("noop", nil); err != nil || ret != 0 {
			t.Fatalf("%v: %d %v", mode, ret, err)
		}
		return c.Clock.Now().Sub(start)
	}
	docker := measureFirstCall(ModeBaseline, false)
	faaslet := measureFirstCall(ModeFaasm, false)
	proto := measureFirstCall(ModeFaasm, true)
	if docker < 2*time.Second {
		t.Fatalf("docker cold start only %v, constant lost", docker)
	}
	if faaslet > 500*time.Millisecond {
		t.Fatalf("faaslet first call %v, want ≪ docker's %v", faaslet, docker)
	}
	if proto > 500*time.Millisecond {
		t.Fatalf("proto first call %v, want ≪ docker's %v", proto, docker)
	}
}

func TestProtoCrossHostDistribution(t *testing.T) {
	c := New(Config{Mode: ModeFaasm, Hosts: 3, TimeScale: 1000, UseProto: true})
	defer c.Shutdown()
	if err := c.Register("f", func(api hostapi.API) (int32, error) { return 0, nil }); err != nil {
		t.Fatal(err)
	}
	// The proto must exist in the global tier for peers to restore.
	blob, _ := c.GetState("proto/f")
	if blob == nil {
		t.Fatal("proto not published to global tier")
	}
}

func TestChainedFanOutAcrossCluster(t *testing.T) {
	c := New(Config{Mode: ModeFaasm, Hosts: 3, TimeScale: 1000})
	defer c.Shutdown()
	c.Register("leaf", func(api hostapi.API) (int32, error) {
		api.WriteOutput([]byte{api.Input()[0] + 1})
		return 0, nil
	})
	c.Register("root", func(api hostapi.API) (int32, error) {
		var ids []uint64
		for i := byte(0); i < 10; i++ {
			id, err := api.Chain("leaf", []byte{i})
			if err != nil {
				return 1, err
			}
			ids = append(ids, id)
		}
		var sum int
		for _, id := range ids {
			if _, err := api.Await(id); err != nil {
				return 2, err
			}
			out, err := api.OutputOf(id)
			if err != nil {
				return 3, err
			}
			sum += int(out[0])
		}
		api.WriteOutput([]byte{byte(sum)})
		return 0, nil
	})
	out, ret, err := c.Call("root", nil)
	if err != nil || ret != 0 {
		t.Fatalf("fan-out: %d %v", ret, err)
	}
	if out[0] != 55 { // 1+2+...+10
		t.Fatalf("sum = %d", out[0])
	}
}

func TestShardedStateTierSameResults(t *testing.T) {
	// The sharded global tier must be a drop-in: identical guest code and
	// identical answers, on both platforms, across shard counts and with
	// replication. Proto-Faaslet distribution also rides the sharded tier.
	for _, cfg := range []Config{
		{Mode: ModeFaasm, Hosts: 2, TimeScale: 2000, StateShards: 4},
		{Mode: ModeFaasm, Hosts: 3, TimeScale: 2000, StateShards: 4, StateReplicas: 2, UseProto: true},
		{Mode: ModeBaseline, Hosts: 2, TimeScale: 2000, StateShards: 2,
			ContainerColdStart: 5 * time.Millisecond},
	} {
		c := New(cfg)
		c.SetState("n", make([]byte, 8))
		c.Register("incr-push", func(api hostapi.API) (int32, error) {
			if err := api.StatePull("n"); err != nil {
				return 1, err
			}
			buf, err := api.StateView("n", 8)
			if err != nil {
				return 2, err
			}
			binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)+1)
			return 0, api.StatePush("n")
		})
		for i := 0; i < 6; i++ {
			if _, ret, err := c.Call("incr-push", nil); err != nil || ret != 0 {
				t.Fatalf("shards=%d incr %d: %d %v", cfg.StateShards, i, ret, err)
			}
		}
		g, _ := c.GetState("n")
		if got := binary.LittleEndian.Uint64(g); got != 6 {
			t.Fatalf("shards=%d replicas=%d: count = %d", cfg.StateShards, cfg.StateReplicas, got)
		}
		if cfg.UseProto {
			if blob, _ := c.GetState("proto/incr-push"); blob == nil {
				t.Fatal("proto not published through sharded tier")
			}
		}
		c.Shutdown()
	}
}

func TestStats(t *testing.T) {
	c := New(Config{Mode: ModeFaasm, Hosts: 1, TimeScale: 1000})
	defer c.Shutdown()
	c.Register("f", func(api hostapi.API) (int32, error) {
		api.StateAppend("log", []byte("x"))
		return 0, nil
	})
	c.Call("f", nil)
	s := c.Stats()
	if s.NetworkBytes == 0 || s.ColdStarts != 1 || s.GBSeconds <= 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// Billable memory accumulates as integer KiB·µs and converts to the float
// GB-seconds the figures print, within 0.1%.
func TestBillableMemory(t *testing.T) {
	var b obsv.Counter
	b.Add(obsv.KiBMicros(2e9, 3*time.Second)) // 2 GB for 3s = 6 GB-s
	b.Add(obsv.KiBMicros(5e8, 2*time.Second)) // 0.5 GB for 2s = 1 GB-s
	if got := gbSeconds(b.Value()); got < 6.993 || got > 7.007 {
		t.Fatalf("GB-seconds = %v, want 7", got)
	}
	// A 70 µs echo on a 66 KiB Faaslet is 4620 units, not truncated to 0.
	if u := obsv.KiBMicros(66<<10, 70*time.Microsecond); u != 4620 {
		t.Fatalf("echo charge = %d KiB·µs, want 4620", u)
	}
}

func TestKilledHostDrainsFromForwardingWithinLease(t *testing.T) {
	c := New(Config{
		Mode: ModeFaasm, Hosts: 3, TimeScale: 1,
		Runtime: frt.Config{LeaseTTL: 60 * time.Millisecond},
	})
	defer c.Shutdown()
	if err := c.Register("echo", func(api hostapi.API) (int32, error) {
		api.WriteOutput(api.Input())
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Warm host-1 only: it becomes the cluster's one forwarding target once
	// its next beat publishes the advert and host-0's next beat reads it.
	if _, ret, err := c.CallOn(1, "echo", []byte("warm")); err != nil || ret != 0 {
		t.Fatalf("warming call: %d %v", ret, err)
	}
	for _, h := range []int{1, 0} {
		if err := c.Instance(h).Scheduler().Heartbeat(); err != nil {
			t.Fatal(err)
		}
	}
	// The advertised host's lease is a tier-judged record: present, armed
	// with a tier-side TTL, and carrying no clock stamp an observer could
	// misjudge under skew.
	if rec, _ := c.GetState("sched/alive/host-1"); len(rec) == 0 {
		t.Fatal("advertised host has no liveness lease")
	}
	if d, err := c.State.TTL("sched/alive/host-1"); err != nil || d <= 0 {
		t.Fatalf("lease ttl = %v %v, want a tier-side expiry", d, err)
	}
	if _, ret, err := c.CallOn(0, "echo", []byte("x")); err != nil || ret != 0 {
		t.Fatalf("pre-kill call: %d %v", ret, err)
	}
	if fwd := c.Instance(0).Scheduler().Stats.Forwarded.Load(); fwd != 1 {
		t.Fatalf("host-0 forwards before kill = %d, want 1", fwd)
	}

	c.KillHost(1)
	// The very next call must still succeed: the transport failure falls
	// back to local execution while the lease clock runs out.
	if out, ret, err := c.CallOn(0, "echo", []byte("y")); err != nil || ret != 0 || string(out) != "y" {
		t.Fatalf("post-kill call: %q %d %v", out, ret, err)
	}

	// Within one lease TTL the dead host is gone from the live warm set,
	// and after host-2's next beat it receives no forwards from host-2,
	// which has never scheduled this function before.
	time.Sleep(80 * time.Millisecond)
	if err := c.Instance(2).Scheduler().Heartbeat(); err != nil {
		t.Fatal(err)
	}
	hosts, err := c.Instance(0).Scheduler().WarmHosts("echo")
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range hosts {
		if h == "host-1" {
			t.Fatalf("dead host still in live warm set: %v", hosts)
		}
	}
	warmBefore := c.Instance(1).WarmStarts.Value()
	for k := 0; k < 10; k++ {
		if _, ret, err := c.CallOn(2, "echo", []byte("z")); err != nil || ret != 0 {
			t.Fatalf("post-expiry call %d: %d %v", k, ret, err)
		}
	}
	if got := c.Instance(1).WarmStarts.Value() - warmBefore; got != 0 {
		t.Fatalf("dead host executed %d forwarded calls after lease expiry", got)
	}
	// A crashed host is out of the rotation and is reclaimed without a drain.
	if c.ActiveHosts() != 2 {
		t.Fatalf("active hosts after kill = %d, want 2", c.ActiveHosts())
	}
	if err := c.ReclaimHost(1); err != nil || !c.HostRemoved(1) || c.Hosts() != 2 {
		t.Fatalf("reclaim killed host: err=%v removed=%v hosts=%d", err, c.HostRemoved(1), c.Hosts())
	}
}

func TestElasticClusterPoolsShrinkAndRetreat(t *testing.T) {
	c := New(Config{
		Mode: ModeFaasm, Hosts: 2, TimeScale: 1,
		Runtime: frt.Config{
			ElasticPool:     true,
			ElasticInterval: 2 * time.Millisecond,
			PoolIdleTimeout: 10 * time.Millisecond,
		},
	})
	defer c.Shutdown()
	if err := c.Register("echo", func(api hostapi.API) (int32, error) {
		api.WriteOutput(api.Input())
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, ret, err := c.CallOn(0, "echo", []byte("x")); err != nil || ret != 0 {
		t.Fatalf("call: %d %v", ret, err)
	}
	// The idle pool must drain to zero and the host's next lease must drop
	// the function, so no peer ever forwards to a host with nothing warm.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := c.Instance(0).Scheduler().Heartbeat(); err != nil {
			t.Fatal(err)
		}
		hosts, err := c.Instance(1).Scheduler().WarmHosts("echo")
		if err != nil {
			t.Fatal(err)
		}
		if c.Instance(0).PoolSize("echo") == 0 && len(hosts) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle pool not reclaimed cluster-wide: size=%d warm=%v",
				c.Instance(0).PoolSize("echo"), hosts)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestForwardedTraceSpansBothHosts(t *testing.T) {
	// A forwarded invocation must yield ONE trace whose spans name both
	// hosts: the decision and forward hop on the entry host, the execution
	// and its state pull on the remote one — with the pull's byte count
	// attributed to the remote host.
	const valSize = 4096
	c := New(Config{
		Mode: ModeFaasm, Hosts: 2, TimeScale: 1,
		Runtime: frt.Config{
			LeaseTTL:    60 * time.Millisecond,
			TraceSample: 1, // trace every call
		},
	})
	defer c.Shutdown()
	// The guest pulls the state key named by its input. Keys are per-call so
	// the executing host's local tier has never replicated them — the pull
	// really moves valSize bytes.
	if err := c.Register("pull", func(api hostapi.API) (int32, error) {
		buf, err := api.StateView(string(api.Input()), -1)
		if err != nil {
			return 1, err
		}
		api.WriteOutput(buf[:1])
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	c.SetState("k-warm", make([]byte, valSize))
	c.SetState("k-fwd", make([]byte, valSize))
	// Warm host-1 only, publish it and let host-0 read it, making it the
	// sole forwarding target.
	if _, ret, err := c.CallOn(1, "pull", []byte("k-warm")); err != nil || ret != 0 {
		t.Fatalf("warming call: %d %v", ret, err)
	}
	for _, h := range []int{1, 0} {
		if err := c.Instance(h).Scheduler().Heartbeat(); err != nil {
			t.Fatal(err)
		}
	}
	out, ret, id, err := c.Instance(0).CallTraced("pull", []byte("k-fwd"))
	if err != nil || ret != 0 || len(out) != 1 {
		t.Fatalf("traced call: %q %d %v", out, ret, err)
	}
	if fwd := c.Instance(0).Scheduler().Stats.Forwarded.Load(); fwd != 1 {
		t.Fatalf("host-0 forwards = %d, want 1 (call did not take the forward path)", fwd)
	}
	snap, ok := c.Tracer.Get(id)
	if !ok {
		t.Fatalf("trace %d not retained", id)
	}
	byName := map[string][]int{}
	for i, sp := range snap.Spans {
		byName[sp.Name] = append(byName[sp.Name], i)
	}
	for _, want := range []struct{ name, host string }{
		{"sched.decide", "host-0"},
		{"forward", "host-0"},
		{"exec", "host-1"},
		{"state.pull", "host-1"},
	} {
		idxs := byName[want.name]
		if len(idxs) == 0 {
			t.Fatalf("trace has no %q span: %+v", want.name, snap.Spans)
		}
		if got := snap.Spans[idxs[0]].Host; got != want.host {
			t.Fatalf("%q span on %q, want %q", want.name, got, want.host)
		}
	}
	pull := snap.Spans[byName["state.pull"][0]]
	if pull.Key != "k-fwd" {
		t.Fatalf("state.pull key = %q, want k-fwd", pull.Key)
	}
	if pull.Bytes != valSize {
		t.Fatalf("state.pull bytes = %d, want %d", pull.Bytes, valSize)
	}
	fwdSpan := snap.Spans[byName["forward"][0]]
	if fwdSpan.Key != "host-1" {
		t.Fatalf("forward span targets %q, want host-1", fwdSpan.Key)
	}
}

func TestClusterSurvivesShardCrash(t *testing.T) {
	// One tier shard dies and revives under call traffic. With R=2, W=1 and
	// failover reads, no invocation and no tier operation may fail, and after
	// HealState the tier is back in sync with nothing suspect.
	c := New(Config{
		Mode: ModeFaasm, Hosts: 3, TimeScale: 1000,
		StateShards: 3, StateReplicas: 2, StateWriteQuorum: 1,
		FaultyShards: true,
	})
	defer c.Shutdown()
	if err := c.Register("read", func(api hostapi.API) (int32, error) {
		if err := api.StatePull("data"); err != nil {
			return 1, err
		}
		buf, err := api.StateView("data", -1)
		if err != nil {
			return 2, err
		}
		api.WriteOutput(buf)
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	c.SetState("data", []byte("payload"))
	for i := 0; i < 16; i++ {
		if err := c.SetState(fmt.Sprintf("k-%d", i), []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	call := func(phase string) {
		t.Helper()
		out, ret, err := c.Call("read", nil)
		if err != nil || ret != 0 || string(out) != "payload" {
			t.Fatalf("%s call: %q %d %v", phase, out, ret, err)
		}
	}
	call("pre-crash")

	c.KillShard(0)
	// 16 keys spread over 3 shards: several are owned by the dead shard, so
	// these writes exercise the W=1 quorum and the reads exercise failover.
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("k-%d", i)
		if err := c.SetState(key, []byte("v2")); err != nil {
			t.Fatalf("tier write with shard down (%s): %v", key, err)
		}
		if v, err := c.GetState(key); err != nil || string(v) != "v2" {
			t.Fatalf("tier read with shard down (%s): %q %v", key, v, err)
		}
		call("during-outage")
	}
	if st := c.StateRing().FailureStats(); st.Suspects == 0 {
		t.Fatalf("the dead shard must have been marked suspect: %+v", st)
	}

	c.RestoreShard(0)
	if _, err := c.HealState(); err != nil {
		t.Fatalf("heal: %v", err)
	}
	if st := c.StateRing().FailureStats(); st.Suspects != 0 || st.Repairs == 0 {
		t.Fatalf("after heal: want zero suspects and a repair, got %+v", st)
	}
	for i := 0; i < 16; i++ {
		if v, err := c.GetState(fmt.Sprintf("k-%d", i)); err != nil || string(v) != "v2" {
			t.Fatalf("post-heal read k-%d: %q %v", i, v, err)
		}
	}
	call("post-heal")
}

// --- Host lifecycle: drain, kill, reclaim ---

func TestDrainHostLeavesRotationThenReclaims(t *testing.T) {
	c := New(Config{Mode: ModeFaasm, Hosts: 3, TimeScale: 1000, Runtime: frt.Config{LeaseTTL: 50 * time.Millisecond}})
	defer c.Shutdown()
	if err := c.Register("echo", func(api hostapi.API) (int32, error) {
		api.WriteOutput(api.Input())
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, ret, err := c.Call("echo", []byte("x")); err != nil || ret != 0 {
			t.Fatalf("warmup call %d: %d %v", i, ret, err)
		}
	}
	// Reclaiming a live host must be refused.
	if err := c.ReclaimHost(1); err == nil {
		t.Fatal("reclaimed a live host")
	}
	if err := c.DrainHost(1); err != nil {
		t.Fatal(err)
	}
	if c.ActiveHosts() != 2 || c.Hosts() != 3 {
		t.Fatalf("after drain: active=%d hosts=%d", c.ActiveHosts(), c.Hosts())
	}
	// Front-door traffic keeps flowing, none of it to the draining host.
	before := c.Instance(1).WarmStarts.Value() + c.Instance(1).ColdStarts.Value()
	for i := 0; i < 12; i++ {
		if _, ret, err := c.Call("echo", []byte("y")); err != nil || ret != 0 {
			t.Fatalf("call %d during drain: %d %v", i, ret, err)
		}
	}
	if got := c.Instance(1).WarmStarts.Value() + c.Instance(1).ColdStarts.Value() - before; got != 0 {
		t.Fatalf("draining host executed %d front-door calls", got)
	}
	if err := c.ReclaimHost(1); err != nil {
		t.Fatal(err)
	}
	if !c.HostRemoved(1) || c.Hosts() != 2 {
		t.Fatalf("after reclaim: removed=%v hosts=%d", c.HostRemoved(1), c.Hosts())
	}
	// Idempotent.
	if err := c.ReclaimHost(1); err != nil {
		t.Fatal(err)
	}
	// The cluster still serves calls on the survivors.
	for i := 0; i < 6; i++ {
		if _, ret, err := c.Call("echo", []byte("z")); err != nil || ret != 0 {
			t.Fatalf("post-reclaim call %d: %d %v", i, ret, err)
		}
	}
}
