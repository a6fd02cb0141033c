package frt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasm.dev/faasm/internal/core"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/kvs/kvstest"
	"faasm.dev/faasm/internal/obsv"
	"faasm.dev/faasm/internal/wavm"
)

func TestInvokeNative(t *testing.T) {
	inst := New(Config{Host: "h1"})
	inst.RegisterNative("upper", func(ctx *core.Ctx) (int32, error) {
		ctx.WriteOutput(bytes.ToUpper(ctx.Input()))
		return 0, nil
	})
	out, ret, err := inst.Call("upper", []byte("hello"))
	if err != nil || ret != 0 || string(out) != "HELLO" {
		t.Fatalf("call: %q %d %v", out, ret, err)
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	inst := New(Config{})
	if _, err := inst.Invoke("ghost", nil); err == nil {
		t.Fatal("unknown function invoked")
	}
}

func TestWarmPoolReuse(t *testing.T) {
	inst := New(Config{Host: "h1"})
	inst.RegisterNative("noop", func(ctx *core.Ctx) (int32, error) { return 0, nil })
	for i := 0; i < 5; i++ {
		if _, _, err := inst.Call("noop", nil); err != nil {
			t.Fatal(err)
		}
	}
	if inst.ColdStarts.Value() != 1 {
		t.Fatalf("cold starts = %d, want 1", inst.ColdStarts.Value())
	}
	if inst.WarmStarts.Value() != 4 {
		t.Fatalf("warm starts = %d, want 4", inst.WarmStarts.Value())
	}
	if inst.PoolSize("noop") != 1 {
		t.Fatalf("pool size = %d", inst.PoolSize("noop"))
	}
}

func TestResetBetweenCallsNoLeak(t *testing.T) {
	// Tenant A writes a secret into Faaslet memory; tenant B's call on the
	// same (reused) Faaslet must not see it.
	inst := New(Config{Host: "h1"})
	inst.RegisterDef(core.FuncDef{
		Name: "tenant",
		Native: func(ctx *core.Ctx) (int32, error) {
			mem := ctx.Memory()
			if string(ctx.Input()) == "write" {
				mem.WriteBytes(64, []byte("SECRET"))
				return 0, nil
			}
			got, _ := mem.ReadBytes(64, 6)
			if string(got) == "SECRET" {
				return 99, nil // leak detected
			}
			return 0, nil
		},
	})
	if _, ret, err := inst.Call("tenant", []byte("write")); err != nil || ret != 0 {
		t.Fatalf("write: %d %v", ret, err)
	}
	_, ret, err := inst.Call("tenant", []byte("read"))
	if err != nil {
		t.Fatal(err)
	}
	if ret == 99 {
		t.Fatal("cross-tenant memory leak through the warm pool")
	}
}

func TestChainingThroughRuntime(t *testing.T) {
	inst := New(Config{Host: "h1"})
	inst.RegisterNative("square", func(ctx *core.Ctx) (int32, error) {
		n := binary.LittleEndian.Uint32(ctx.Input())
		var out [4]byte
		binary.LittleEndian.PutUint32(out[:], n*n)
		ctx.WriteOutput(out[:])
		return 0, nil
	})
	inst.RegisterNative("sum-squares", func(ctx *core.Ctx) (int32, error) {
		var ids []uint64
		for n := uint32(1); n <= 4; n++ {
			var in [4]byte
			binary.LittleEndian.PutUint32(in[:], n)
			id, err := ctx.Chain("square", in[:])
			if err != nil {
				return 1, err
			}
			ids = append(ids, id)
		}
		var total uint32
		for _, id := range ids {
			if _, err := ctx.Await(id); err != nil {
				return 2, err
			}
			out, err := ctx.OutputOf(id)
			if err != nil {
				return 3, err
			}
			total += binary.LittleEndian.Uint32(out)
		}
		var out [4]byte
		binary.LittleEndian.PutUint32(out[:], total)
		ctx.WriteOutput(out[:])
		return 0, nil
	})
	out, ret, err := inst.Call("sum-squares", nil)
	if err != nil || ret != 0 {
		t.Fatalf("chain: %d %v", ret, err)
	}
	if got := binary.LittleEndian.Uint32(out); got != 30 { // 1+4+9+16
		t.Fatalf("sum of squares = %d", got)
	}
}

func TestFailedChainedCallReportsError(t *testing.T) {
	inst := New(Config{Host: "h1"})
	inst.RegisterNative("bad", func(ctx *core.Ctx) (int32, error) {
		return 7, fmt.Errorf("deliberate failure")
	})
	id, err := inst.Invoke("bad", nil)
	if err != nil {
		t.Fatal(err)
	}
	ret, err := inst.Await(id)
	if err == nil {
		t.Fatal("failed call awaited cleanly")
	}
	if ret != 7 {
		t.Fatalf("return code = %d", ret)
	}
	if !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("cause lost: %v", err)
	}
}

func TestProtoGenerationAndRestore(t *testing.T) {
	store := kvs.NewEngine()
	inst := New(Config{Host: "h1", Store: store})
	mod, err := wavm.AssembleAndValidate(`(module
	  (memory 1)
	  (func $main (export "main") (result i32)
	    i32.const 0
	    i32.load))`)
	if err != nil {
		t.Fatal(err)
	}
	inst.RegisterModule("fn", mod)
	// Init writes 123 into memory; the proto captures it.
	err = inst.GenerateProto("fn", func(ctx *core.Ctx) error {
		return ctx.Memory().WriteU32(0, 123)
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ret, err := inst.Call("fn", nil)
	if err != nil || ret != 123 {
		t.Fatalf("proto-started call: %d %v", ret, err)
	}
	if inst.ColdStarts.Value() != 1 {
		t.Fatalf("cold starts = %d", inst.ColdStarts.Value())
	}

	// A second instance fetches the proto from the global tier (cross-host
	// restore) without re-running init.
	inst2 := New(Config{Host: "h2", Store: store})
	inst2.RegisterModule("fn", mod)
	if err := inst2.FetchProto("fn"); err != nil {
		t.Fatal(err)
	}
	_, ret, err = inst2.Call("fn", nil)
	if err != nil || ret != 123 {
		t.Fatalf("cross-host proto call: %d %v", ret, err)
	}
}

// mapTransport wires instances together in-process.
type mapTransport struct {
	mu    sync.Mutex
	peers map[string]*Instance
}

func (mt *mapTransport) ExecuteOn(host, fn string, input []byte, trace obsv.TraceID) ([]byte, int32, error) {
	mt.mu.Lock()
	peer, ok := mt.peers[host]
	mt.mu.Unlock()
	if !ok {
		return nil, -1, fmt.Errorf("no such host %q", host)
	}
	return peer.ExecuteForwarded(fn, input, trace)
}

func TestWorkSharingAcrossInstances(t *testing.T) {
	store := kvs.NewEngine()
	tr := &mapTransport{peers: map[string]*Instance{}}
	h1 := New(Config{Host: "h1", Store: store, Transport: tr})
	h2 := New(Config{Host: "h2", Store: store, Transport: tr})
	tr.peers["h1"] = h1
	tr.peers["h2"] = h2

	fn := func(ctx *core.Ctx) (int32, error) {
		ctx.WriteOutput([]byte("done"))
		return 0, nil
	}
	h1.RegisterNative("work", fn)
	h2.RegisterNative("work", fn)

	// Warm up host 2, let its next beat publish the advert and host 1's
	// next beat read it.
	if _, _, err := h2.Call("work", nil); err != nil {
		t.Fatal(err)
	}
	h2.Scheduler().Heartbeat()
	h1.Scheduler().Heartbeat()
	// A call arriving at host 1 must be shared with warm host 2, not
	// cold-started locally.
	out, ret, err := h1.Call("work", nil)
	if err != nil || ret != 0 || string(out) != "done" {
		t.Fatalf("shared call: %q %d %v", out, ret, err)
	}
	if h1.ColdStarts.Value() != 0 {
		t.Fatalf("host 1 cold-started %d times despite warm peer", h1.ColdStarts.Value())
	}
	if h2.ColdStarts.Value() != 1 || h2.WarmStarts.Value() != 1 {
		t.Fatalf("host 2 starts: cold=%d warm=%d", h2.ColdStarts.Value(), h2.WarmStarts.Value())
	}
}

func TestTransportFailureFallsBackLocally(t *testing.T) {
	store := kvs.NewEngine()
	tr := &mapTransport{peers: map[string]*Instance{}} // empty: all peers fail
	h1 := New(Config{Host: "h1", Store: store, Transport: tr})
	h1.RegisterNative("work", func(ctx *core.Ctx) (int32, error) { return 0, nil })
	// Fake a live lease for a dead host that lists the function, and let
	// h1's beat read it into the view.
	store.SAdd("sched/hosts", "ghost-host")
	store.SetEx("sched/alive/ghost-host", []byte("up\nwork 0"), time.Minute)
	h1.Scheduler().Heartbeat()
	_, ret, err := h1.Call("work", nil)
	if err != nil || ret != 0 {
		t.Fatalf("fallback call: %d %v", ret, err)
	}
	if fwd := h1.Scheduler().Stats.Forwarded.Load(); fwd != 1 {
		t.Fatalf("forwards = %d, want 1 (the call never tried the ghost)", fwd)
	}
}

func TestConcurrentCallsScaleThePool(t *testing.T) {
	inst := New(Config{Host: "h1", PoolCap: 32})
	const n = 8
	block := make(chan struct{})
	started := make(chan struct{}, n)
	inst.RegisterNative("slow", func(ctx *core.Ctx) (int32, error) {
		started <- struct{}{}
		<-block
		return 0, nil
	})
	var wg sync.WaitGroup
	ids := make([]uint64, n)
	for i := 0; i < n; i++ {
		id, err := inst.Invoke("slow", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	// All n must be executing concurrently before any may finish.
	for i := 0; i < n; i++ {
		<-started
	}
	close(block)
	for _, id := range ids {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			if _, err := inst.Await(id); err != nil {
				t.Error(err)
			}
		}(id)
	}
	wg.Wait()
	// All 8 ran concurrently: 8 Faaslets were created and pooled.
	if inst.ColdStarts.Value() != n {
		t.Fatalf("cold starts = %d, want %d", inst.ColdStarts.Value(), n)
	}
	if inst.PoolSize("slow") != n {
		t.Fatalf("pool = %d", inst.PoolSize("slow"))
	}
	if inst.FaasletCount() != n {
		t.Fatalf("faaslet count = %d", inst.FaasletCount())
	}
}

func TestPoolCapBoundsIdleFaaslets(t *testing.T) {
	inst := New(Config{Host: "h1", PoolCap: 2})
	block := make(chan struct{})
	inst.RegisterNative("slow", func(ctx *core.Ctx) (int32, error) {
		<-block
		return 0, nil
	})
	var ids []uint64
	for i := 0; i < 5; i++ {
		id, _ := inst.Invoke("slow", nil)
		ids = append(ids, id)
	}
	close(block)
	for _, id := range ids {
		inst.Await(id)
	}
	if inst.PoolSize("slow") > 2 {
		t.Fatalf("pool exceeded cap: %d", inst.PoolSize("slow"))
	}
	if inst.FaasletCount() > 2 {
		t.Fatalf("live faaslets exceed cap: %d", inst.FaasletCount())
	}
}

func TestUnvalidatedModuleRefused(t *testing.T) {
	inst := New(Config{})
	mod, err := wavm.Assemble(`(module (func $main (export "main")))`)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.RegisterModule("fn", mod); err == nil {
		t.Fatal("unvalidated module deployed")
	}
}

func TestSharedStateAcrossCallsOnHost(t *testing.T) {
	// Counter in the local tier, incremented across calls by pooled
	// Faaslets: state outlives individual calls (stateful serverless).
	inst := New(Config{Host: "h1"})
	inst.State().Global().Set("n", make([]byte, 8))
	inst.RegisterNative("incr", func(ctx *core.Ctx) (int32, error) {
		buf, err := ctx.StateView("n", -1)
		if err != nil {
			return 1, err
		}
		v, _ := inst.State().Lookup("n") // the host's replica, for its local lock
		v.LockWrite()
		x := binary.LittleEndian.Uint64(buf)
		binary.LittleEndian.PutUint64(buf, x+1)
		v.UnlockWrite()
		return 0, nil
	})
	for i := 0; i < 10; i++ {
		if _, ret, err := inst.Call("incr", nil); err != nil || ret != 0 {
			t.Fatalf("incr %d: %d %v", i, ret, err)
		}
	}
	v, _ := inst.State().Lookup("n")
	if n := binary.LittleEndian.Uint64(v.Bytes()); n != 10 {
		t.Fatalf("counter = %d", n)
	}
}

func BenchmarkWarmCall(b *testing.B) {
	inst := New(Config{Host: "h1"})
	inst.RegisterNative("noop", func(ctx *core.Ctx) (int32, error) { return 0, nil })
	inst.Call("noop", nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := inst.Call("noop", nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFailedColdStartRetreatsFromWarmSet(t *testing.T) {
	store := kvs.NewEngine()
	inst := New(Config{Host: "h1", Store: store})
	// A deployed function whose image no longer restores into its
	// definition passes the def-lookup check but fails at Faaslet creation —
	// the cold start itself dies.
	inst.RegisterNative("broken", func(ctx *core.Ctx) (int32, error) { return 0, nil })
	d, _ := inst.deployed("broken")
	inst.regMu.Lock()
	inst.deploy(d.def, &core.Proto{Function: "other"}, nil)
	inst.regMu.Unlock()
	if _, _, err := inst.Call("broken", nil); err == nil {
		t.Fatal("broken function executed")
	}
	// The scheduler advertised h1 before the cold start; the failure must
	// have removed it so peers stop forwarding here.
	inst.Scheduler().Heartbeat()
	hosts, _ := inst.Scheduler().WarmHosts("broken")
	if len(hosts) != 0 {
		t.Fatalf("failed cold start left warm set %v", hosts)
	}
	// And a peer scheduler must now decide to cold-start itself.
	h2 := New(Config{Host: "h2", Store: store})
	h2.RegisterNative("broken", func(ctx *core.Ctx) (int32, error) { return 0, nil })
	if _, ret, err := h2.Call("broken", nil); err != nil || ret != 0 {
		t.Fatalf("peer call after retreat: %d %v", ret, err)
	}
	if h2.ColdStarts.Value() != 1 {
		t.Fatalf("peer cold starts = %d, want 1", h2.ColdStarts.Value())
	}
}

func TestShutdownRetreatsFromWarmSet(t *testing.T) {
	store := kvs.NewEngine()
	inst := New(Config{Host: "h1", Store: store})
	inst.RegisterNative("fn", func(ctx *core.Ctx) (int32, error) { return 0, nil })
	if _, _, err := inst.Call("fn", nil); err != nil {
		t.Fatal(err)
	}
	inst.Scheduler().Heartbeat()
	if hosts, _ := inst.Scheduler().WarmHosts("fn"); len(hosts) != 1 {
		t.Fatalf("warm set before shutdown = %v", hosts)
	}
	// Shutdown evicts the function's last pooled Faaslets: the host must
	// leave the warm set.
	inst.Shutdown()
	if hosts, _ := inst.Scheduler().WarmHosts("fn"); len(hosts) != 0 {
		t.Fatalf("warm set after shutdown = %v", hosts)
	}
}

func TestWarmSteadyStatePerformsZeroGlobalOps(t *testing.T) {
	store := kvstest.NewCountingStore(kvs.NewEngine())
	inst := New(Config{Host: "h1", Store: store})
	inst.RegisterNative("noop", func(ctx *core.Ctx) (int32, error) { return 0, nil })
	// The cold start reads the view in memory; its advert waits for the beat.
	if _, _, err := inst.Call("noop", nil); err != nil {
		t.Fatal(err)
	}
	store.ResetOps()
	// Steady state: every warm call — schedule, acquire, execute, release,
	// background reset — must perform zero global-tier operations.
	for k := 0; k < 200; k++ {
		if _, ret, err := inst.Call("noop", nil); err != nil || ret != 0 {
			t.Fatalf("warm call %d: %d %v", k, ret, err)
		}
	}
	inst.Shutdown() // drain background resets before counting
	// Shutdown itself deletes the lease; everything before it must be zero.
	if ops, del := store.Ops(), store.OpCount("Delete"); ops != 1 || del != 1 {
		t.Fatalf("steady-state warm invocations performed %d global ops (%d Delete), want 1 (the shutdown's lease deletion)", ops, del)
	}
	if inst.WarmStarts.Value() != 200 {
		t.Fatalf("warm starts = %d, want 200", inst.WarmStarts.Value())
	}
}

func TestPoolInvariantsUnderConcurrentChurn(t *testing.T) {
	const (
		fns     = 8
		workers = 4 // per function
		calls   = 50
		poolCap = 2
	)
	inst := New(Config{Host: "h1", PoolCap: poolCap})
	defer inst.Shutdown()
	var dirty atomic.Int64
	for fn := 0; fn < fns; fn++ {
		name := fmt.Sprintf("fn-%d", fn)
		inst.RegisterDef(core.FuncDef{
			Name: name,
			Native: func(ctx *core.Ctx) (int32, error) {
				// Canary: a non-reset Faaslet still carries the previous
				// call's write at offset 128.
				got, _ := ctx.Memory().ReadBytes(128, 6)
				if string(got) == "CANARY" {
					dirty.Add(1)
					return 99, nil
				}
				ctx.Memory().WriteBytes(128, []byte("CANARY"))
				return 0, nil
			},
		})
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Invariant watcher: counts must stay sane *during* the churn.
	watcherDone := make(chan error, 1)
	go func() {
		defer close(watcherDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := inst.FaasletCount(); n < 0 {
				watcherDone <- fmt.Errorf("faaslet count went negative: %d", n)
				return
			}
			for fn := 0; fn < fns; fn++ {
				if ps := inst.PoolSize(fmt.Sprintf("fn-%d", fn)); ps > poolCap {
					watcherDone <- fmt.Errorf("pool exceeded cap: %d > %d", ps, poolCap)
					return
				}
			}
		}
	}()
	for fn := 0; fn < fns; fn++ {
		name := fmt.Sprintf("fn-%d", fn)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < calls; k++ {
					out, ret, err := inst.ExecuteLocal(name, nil)
					_ = out
					if err != nil {
						t.Errorf("%s call %d: %v", name, k, err)
						return
					}
					if ret == 99 {
						t.Errorf("%s call %d handed a non-reset Faaslet", name, k)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(stop)
	if err := <-watcherDone; err != nil {
		t.Fatal(err)
	}
	if n := dirty.Load(); n != 0 {
		t.Fatalf("%d calls observed canary residue", n)
	}
	if n := inst.FaasletCount(); n < 0 {
		t.Fatalf("final faaslet count negative: %d", n)
	}
	for fn := 0; fn < fns; fn++ {
		name := fmt.Sprintf("fn-%d", fn)
		if ps := inst.PoolSize(name); ps > poolCap {
			t.Fatalf("%s final pool %d exceeds cap %d", name, ps, poolCap)
		}
	}
}

func TestRegisterDuringInvocationIsSafe(t *testing.T) {
	// Copy-on-write registries: deploying new functions must not disturb
	// concurrent invocations of existing ones.
	inst := New(Config{Host: "h1"})
	inst.RegisterNative("stable", func(ctx *core.Ctx) (int32, error) { return 0, nil })
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for k := 0; k < 200; k++ {
			inst.RegisterNative(fmt.Sprintf("new-%d", k), func(ctx *core.Ctx) (int32, error) { return 0, nil })
		}
	}()
	go func() {
		defer wg.Done()
		for k := 0; k < 200; k++ {
			if _, ret, err := inst.Call("stable", nil); err != nil || ret != 0 {
				t.Errorf("call %d during registration: %d %v", k, ret, err)
				return
			}
		}
	}()
	wg.Wait()
	if got := len(inst.Functions()); got != 201 {
		t.Fatalf("functions registered = %d, want 201", got)
	}
}

// --- Elastic warm pools ---

// burst holds n calls to fn open simultaneously, forcing the pool to n
// concurrent Faaslets, then releases them. The guest must block on gate
// after signalling started when given non-empty input.
func burst(t *testing.T, inst *Instance, fn string, n int, gate chan struct{}, started chan struct{}) {
	t.Helper()
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ret, err := inst.Call(fn, []byte("b")); err != nil || ret != 0 {
				t.Errorf("burst call: %d %v", ret, err)
			}
		}()
	}
	for k := 0; k < n; k++ {
		<-started
	}
	for k := 0; k < n; k++ {
		gate <- struct{}{}
	}
	wg.Wait()
}

// The test drives the controller's passes itself (ElasticPool stays off, so
// no loop ticks behind its back): the first burst's misses are all counted
// before any pass can pre-provision.
func TestElasticPoolGrowsAheadOfDemand(t *testing.T) {
	inst := New(Config{
		Host:            "h1",
		PoolCap:         64,
		PoolIdleTimeout: time.Hour, // shrink must not interfere here
	})
	defer inst.Shutdown()
	gate := make(chan struct{})
	started := make(chan struct{}, 64)
	inst.RegisterNative("fn", func(ctx *core.Ctx) (int32, error) {
		if len(ctx.Input()) > 0 {
			started <- struct{}{}
			<-gate
		}
		return 0, nil
	})

	// First burst: every call misses the empty pool and pays a cold start.
	burst(t, inst, "fn", 4, gate, started)
	if got := inst.PoolMisses.Value(); got != 4 {
		t.Fatalf("first-burst pool misses = %d, want 4", got)
	}
	// One controller pass must grow the pool ahead: beyond the 4
	// organically pooled Faaslets, pre-provisioned ones appear without any
	// call paying for them.
	inst.elasticTick()
	if inst.PoolSize("fn") < 8 {
		t.Fatalf("pool did not grow ahead: size=%d prewarmed=%d",
			inst.PoolSize("fn"), inst.Prewarmed.Value())
	}
	if inst.Prewarmed.Value() == 0 {
		t.Fatal("no Faaslets were pre-provisioned")
	}
	// A second, larger burst now fits inside the grown pool: zero new
	// misses, zero new cold starts on any call's critical path.
	before := inst.PoolMisses.Value()
	burst(t, inst, "fn", 8, gate, started)
	if got := inst.PoolMisses.Value() - before; got != 0 {
		t.Fatalf("second burst paid %d pool misses, want 0", got)
	}
}

func TestElasticPoolShrinksOnIdleAndRetreats(t *testing.T) {
	store := kvs.NewEngine()
	inst := New(Config{
		Host:            "h1",
		Store:           store,
		PoolCap:         16,
		ElasticPool:     true,
		ElasticInterval: 2 * time.Millisecond,
		PoolIdleTimeout: 10 * time.Millisecond,
	})
	defer inst.Shutdown()
	inst.RegisterNative("fn", func(ctx *core.Ctx) (int32, error) { return 0, nil })
	for k := 0; k < 3; k++ {
		if _, _, err := inst.Call("fn", nil); err != nil {
			t.Fatal(err)
		}
	}
	inst.Scheduler().Heartbeat()
	if hosts, _ := inst.Scheduler().WarmHosts("fn"); len(hosts) != 1 {
		t.Fatalf("warm set before idle = %v", hosts)
	}
	// The pool sits idle: the controller must reclaim every Faaslet and,
	// with the last one, retreat the host, so the next lease drops fn.
	deadline := time.Now().Add(2 * time.Second)
	for {
		inst.Scheduler().Heartbeat()
		hosts, _ := inst.Scheduler().WarmHosts("fn")
		if inst.PoolSize("fn") == 0 && inst.FaasletCount() == 0 && len(hosts) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle pool not reclaimed: size=%d count=%d warm=%v",
				inst.PoolSize("fn"), inst.FaasletCount(), hosts)
		}
		time.Sleep(time.Millisecond)
	}
	if inst.IdleReclaims.Value() == 0 {
		t.Fatal("IdleReclaims counted nothing")
	}
	// Demand returns: the pool regrows from a cold start, not an error.
	if _, ret, err := inst.Call("fn", nil); err != nil || ret != 0 {
		t.Fatalf("call after shrink-to-zero: %d %v", ret, err)
	}
}

func TestKilledInstanceRefusesWorkWithoutRetreating(t *testing.T) {
	store := kvs.NewEngine()
	inst := New(Config{Host: "h1", Store: store})
	defer inst.Shutdown()
	inst.RegisterNative("fn", func(ctx *core.Ctx) (int32, error) { return 0, nil })
	if _, _, err := inst.Call("fn", nil); err != nil {
		t.Fatal(err)
	}
	inst.Scheduler().Heartbeat()
	inst.Kill()
	if _, _, err := inst.ExecuteLocal("fn", nil); err == nil {
		t.Fatal("killed instance executed forwarded work")
	}
	// Outbound too: a crashed host cannot originate calls either, even if
	// the scheduler would forward them to a live peer.
	if _, _, err := inst.Call("fn", nil); err == nil {
		t.Fatal("killed instance originated a call")
	}
	// A crash retreats nothing: the lease listing fn must linger for
	// expiry (not a clean shutdown) to clean up.
	if hosts, _ := inst.Scheduler().WarmHosts("fn"); len(hosts) != 1 {
		t.Fatalf("kill mutated the warm set: %v", hosts)
	}
}
