package hostapi_test

// The hostapi package is the seam the paper's methodology depends on: the
// same guest source must behave identically on FAASM and on the container
// baseline. These tests drive core.Ctx, FAASM's API, through a real runtime
// instance, covering every group of the interface — I/O, chaining, state
// views and whole-value ops. The two lock tiers are not in the portable
// interface: the lock tests take the global lock through core.Ctx, also
// against a sharded global tier, and the local lock on the host's replica.

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"faasm.dev/faasm/internal/core"
	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/hostapi"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/shardkvs"
)

// run executes one portable guest on a fresh FAASM instance backed by store.
func run(t *testing.T, store kvs.Store, g hostapi.Guest, input []byte) ([]byte, int32) {
	t.Helper()
	inst := frt.New(frt.Config{Host: "test-host", Store: store})
	t.Cleanup(inst.Shutdown)
	inst.RegisterNative("guest", hostapi.WrapGuest(g))
	out, ret, err := inst.Call("guest", input)
	if err != nil {
		t.Fatalf("call: ret=%d err=%v", ret, err)
	}
	return out, ret
}

func TestInputOutputAndIdentity(t *testing.T) {
	out, ret := run(t, kvs.NewEngine(), func(api hostapi.API) (int32, error) {
		ctx := api.(*core.Ctx)
		if ctx.Now() < 0 {
			return 1, nil
		}
		var r1, r2 [8]byte
		ctx.Random(r1[:])
		ctx.Random(r2[:])
		if bytes.Equal(r1[:], r2[:]) {
			return 2, nil // two draws must differ
		}
		api.WriteOutput(append([]byte("echo:"), api.Input()...))
		return 0, nil
	}, []byte("payload"))
	if ret != 0 || string(out) != "echo:payload" {
		t.Fatalf("ret=%d out=%q", ret, out)
	}
}

func TestStateViewPushPull(t *testing.T) {
	store := kvs.NewEngine()
	store.Set("cell", make([]byte, 8))
	_, ret := run(t, store, func(api hostapi.API) (int32, error) {
		buf, err := api.StateView("cell", 8)
		if err != nil {
			return 1, err
		}
		binary.LittleEndian.PutUint64(buf, 77)
		if err := api.StatePush("cell"); err != nil {
			return 2, err
		}
		return 0, nil
	}, nil)
	if ret != 0 {
		t.Fatalf("ret=%d", ret)
	}
	v, _ := store.Get("cell")
	if binary.LittleEndian.Uint64(v) != 77 {
		t.Fatalf("global value = %v", v)
	}
}

func TestStateChunkOps(t *testing.T) {
	store := kvs.NewEngine()
	store.Set("blob", bytes.Repeat([]byte{0xAA}, 64))
	_, ret := run(t, store, func(api hostapi.API) (int32, error) {
		chunk, err := api.StateViewChunk("blob", 16, 8)
		if err != nil {
			return 1, err
		}
		for i := range chunk {
			chunk[i] = 0xBB
		}
		if err := api.StatePushChunk("blob", 16, 8); err != nil {
			return 2, err
		}
		return 0, nil
	}, nil)
	if ret != 0 {
		t.Fatalf("ret=%d", ret)
	}
	v, _ := store.Get("blob")
	for i, b := range v {
		want := byte(0xAA)
		if i >= 16 && i < 24 {
			want = 0xBB
		}
		if b != want {
			t.Fatalf("byte %d = %#x, want %#x", i, b, want)
		}
	}
}

func TestStateWholeValueOps(t *testing.T) {
	store := kvs.NewEngine()
	store.Set("doc", []byte("v1"))
	_, ret := run(t, store, func(api hostapi.API) (int32, error) {
		got, err := api.StateReadAll("doc")
		if err != nil || string(got) != "v1" {
			return 2, err
		}
		if err := api.StateAppend("log", []byte("entry;")); err != nil {
			return 3, err
		}
		if err := api.StateAppend("log", []byte("entry2;")); err != nil {
			return 4, err
		}
		return 0, nil
	}, nil)
	if ret != 0 {
		t.Fatalf("ret=%d", ret)
	}
	logv, _ := store.Get("log")
	if string(logv) != "entry;entry2;" {
		t.Fatalf("log = %q", logv)
	}
}

func TestChainAwaitOutput(t *testing.T) {
	inst := frt.New(frt.Config{Host: "test-host", Store: kvs.NewEngine()})
	defer inst.Shutdown()
	inst.RegisterNative("double", hostapi.WrapGuest(func(api hostapi.API) (int32, error) {
		api.WriteOutput([]byte{api.Input()[0] * 2})
		return 0, nil
	}))
	inst.RegisterNative("root", hostapi.WrapGuest(func(api hostapi.API) (int32, error) {
		id, err := api.Chain("double", []byte{21})
		if err != nil {
			return 1, err
		}
		if ret, err := api.Await(id); err != nil || ret != 0 {
			return 2, err
		}
		out, err := api.OutputOf(id)
		if err != nil {
			return 3, err
		}
		api.WriteOutput(out)
		return 0, nil
	}))
	out, ret, err := inst.Call("root", nil)
	if err != nil || ret != 0 || len(out) != 1 || out[0] != 42 {
		t.Fatalf("chain: %v %d %v", out, ret, err)
	}
}

func TestLocalLocksSerialiseFaaslets(t *testing.T) {
	store := kvs.NewEngine()
	store.Set("n", make([]byte, 8))
	inst := frt.New(frt.Config{Host: "test-host", Store: store})
	defer inst.Shutdown()
	// Map the view BEFORE taking the local write lock (the first StateView
	// pulls the value, which takes the value's own write lock), mutate under
	// the lock, and push after unlock (Push takes the value's read lock).
	// The lock is the host's replica's own, which every Faaslet shares.
	inst.RegisterNative("incr", func(ctx *core.Ctx) (int32, error) {
		buf, err := ctx.StateView("n", 8)
		if err != nil {
			return 1, err
		}
		v, ok := inst.State().Lookup("n")
		if !ok {
			return 2, nil
		}
		v.LockWrite()
		binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)+1)
		v.UnlockWrite()
		return 0, nil
	})
	inst.RegisterNative("flush", hostapi.WrapGuest(func(api hostapi.API) (int32, error) {
		return 0, api.StatePush("n")
	}))
	const calls = 16
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ret, err := inst.Call("incr", nil); err != nil || ret != 0 {
				t.Errorf("incr: %d %v", ret, err)
			}
		}()
	}
	wg.Wait()
	if _, ret, err := inst.Call("flush", nil); err != nil || ret != 0 {
		t.Fatalf("flush: %d %v", ret, err)
	}
	buf, _ := store.Get("n")
	if got := binary.LittleEndian.Uint64(buf); got != calls {
		t.Fatalf("count = %d, want %d", got, calls)
	}
}

func TestGlobalLocksOverShardedTier(t *testing.T) {
	// Global locks must hold across instances sharing a sharded tier: the
	// lock routes to the key's owning shard.
	ring := shardkvs.NewLocal(4, shardkvs.Options{})
	ring.Set("n", make([]byte, 8))
	instA := frt.New(frt.Config{Host: "host-a", Store: ring})
	instB := frt.New(frt.Config{Host: "host-b", Store: ring})
	defer instA.Shutdown()
	defer instB.Shutdown()
	guest := func(ctx *core.Ctx) (int32, error) {
		if err := ctx.LockGlobal("n", true); err != nil {
			return 1, err
		}
		defer ctx.UnlockGlobal("n")
		// Refresh the replica under the lock: another host may have pushed.
		if err := ctx.StatePull("n"); err != nil {
			return 2, err
		}
		buf, err := ctx.StateView("n", 8)
		if err != nil {
			return 3, err
		}
		binary.LittleEndian.PutUint64(buf, binary.LittleEndian.Uint64(buf)+1)
		return 0, ctx.StatePush("n")
	}
	instA.RegisterNative("incr", guest)
	instB.RegisterNative("incr", guest)
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		inst := instA
		if i%2 == 1 {
			inst = instB
		}
		wg.Add(1)
		go func(inst *frt.Instance) {
			defer wg.Done()
			if _, ret, err := inst.Call("incr", nil); err != nil || ret != 0 {
				t.Errorf("incr: %d %v", ret, err)
			}
		}(inst)
	}
	wg.Wait()
	final, _ := ring.Get("n")
	if got := binary.LittleEndian.Uint64(final); got != 10 {
		t.Fatalf("count = %d, want 10", got)
	}
}
