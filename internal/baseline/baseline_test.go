package baseline

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"faasm.dev/faasm/internal/hostapi"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/vtime"
)

// fastCfg keeps tests quick: a tiny cold start on a fast-scaled clock.
func fastCfg(store kvs.Store) Config {
	return Config{
		Host:      "h1",
		Store:     store,
		Clock:     vtime.NewScaled(1000),
		ColdStart: 100 * time.Millisecond,
	}
}

func TestExecutePortableGuest(t *testing.T) {
	p := New(fastCfg(nil))
	p.Register("echo", func(api hostapi.API) (int32, error) {
		api.WriteOutput(append([]byte("c:"), api.Input()...))
		return 0, nil
	})
	out, ret, err := p.Call("echo", []byte("x"))
	if err != nil || ret != 0 || string(out) != "c:x" {
		t.Fatalf("call: %q %d %v", out, ret, err)
	}
	if p.ColdStarts.Value() != 1 {
		t.Fatal("no cold start counted")
	}
}

func TestColdStartCostAndWarmReuse(t *testing.T) {
	clock := vtime.NewScaled(1000)
	p := New(Config{Host: "h", Clock: clock, ColdStart: time.Second})
	p.Register("f", func(api hostapi.API) (int32, error) { return 0, nil })
	start := clock.Now()
	p.Call("f", nil)
	coldDur := clock.Now().Sub(start)
	if coldDur < time.Second {
		t.Fatalf("cold start took %v on the experiment clock", coldDur)
	}
	start = clock.Now()
	p.Call("f", nil)
	warmDur := clock.Now().Sub(start)
	if warmDur > coldDur/2 {
		t.Fatalf("warm call (%v) not much faster than cold (%v)", warmDur, coldDur)
	}
	if p.WarmStarts.Value() != 1 {
		t.Fatal("warm start not counted")
	}
}

func TestPrivateStateCopiesPerContainer(t *testing.T) {
	// Two containers of the same function each fetch their own copy: the
	// duplication of the data-shipping architecture.
	store := kvs.NewEngine()
	store.Set("data", make([]byte, 1000))
	p := New(fastCfg(store))
	block := make(chan struct{})
	started := make(chan struct{}, 2)
	p.Register("f", func(api hostapi.API) (int32, error) {
		if _, err := api.StateView("data", -1); err != nil {
			return 1, err
		}
		started <- struct{}{}
		<-block
		return 0, nil
	})
	var ids []uint64
	for i := 0; i < 2; i++ {
		id, err := p.Invoke("f", nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	<-started
	<-started
	close(block)
	for _, id := range ids {
		if _, err := p.Await(id); err != nil {
			t.Fatal(err)
		}
	}
	// Two containers, each with a 1000-byte private copy + 8 MB overhead.
	wantMem := 2 * (DefaultContainerOverhead + 1000)
	if got := p.MemUsed(); got != wantMem {
		t.Fatalf("mem used = %d, want %d (duplicated copies)", got, wantMem)
	}
}

func TestStateWritesInvisibleWithoutPush(t *testing.T) {
	store := kvs.NewEngine()
	store.Set("v", []byte{1})
	p := New(fastCfg(store))
	p.Register("w", func(api hostapi.API) (int32, error) {
		buf, err := api.StateView("v", -1)
		if err != nil {
			return 1, err
		}
		buf[0] = 42
		return 0, nil
	})
	p.Call("w", nil)
	g, _ := store.Get("v")
	if g[0] != 1 {
		t.Fatal("container write leaked without push")
	}
	p.Register("wp", func(api hostapi.API) (int32, error) {
		buf, _ := api.StateView("v", -1)
		buf[0] = 42
		return 0, api.StatePush("v")
	})
	p.Call("wp", nil)
	g, _ = store.Get("v")
	if g[0] != 42 {
		t.Fatal("push did not reach the global tier")
	}
}

func TestOOMWhenHostMemoryExhausted(t *testing.T) {
	// Host memory fits two containers; the third concurrent cold start
	// fails — the Fig 6a Knative failure mode.
	p := New(Config{
		Host:         "h",
		Clock:        vtime.NewScaled(1000),
		ColdStart:    10 * time.Millisecond,
		HostMemBytes: 2*DefaultContainerOverhead + 1000,
	})
	block := make(chan struct{})
	started := make(chan struct{}, 2)
	p.Register("f", func(api hostapi.API) (int32, error) {
		started <- struct{}{}
		<-block
		return 0, nil
	})
	id1, _ := p.Invoke("f", nil)
	id2, _ := p.Invoke("f", nil)
	<-started
	<-started
	_, _, err := p.Execute("f", nil)
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("expected OOM, got %v", err)
	}
	if p.OOMFailures.Value() != 1 {
		t.Fatal("OOM not counted")
	}
	close(block)
	p.Await(id1)
	p.Await(id2)
}

func TestChainingThroughPlatform(t *testing.T) {
	store := kvs.NewEngine()
	p := New(fastCfg(store))
	p.Register("add", func(api hostapi.API) (int32, error) {
		n := binary.LittleEndian.Uint32(api.Input())
		var out [4]byte
		binary.LittleEndian.PutUint32(out[:], n+1)
		api.WriteOutput(out[:])
		return 0, nil
	})
	p.Register("driver", func(api hostapi.API) (int32, error) {
		var in [4]byte
		binary.LittleEndian.PutUint32(in[:], 41)
		id, err := api.Chain("add", in[:])
		if err != nil {
			return 1, err
		}
		if _, err := api.Await(id); err != nil {
			return 2, err
		}
		out, err := api.OutputOf(id)
		if err != nil {
			return 3, err
		}
		api.WriteOutput(out)
		return 0, nil
	})
	out, ret, err := p.Call("driver", nil)
	if err != nil || ret != 0 {
		t.Fatalf("chain: %d %v", ret, err)
	}
	if binary.LittleEndian.Uint32(out) != 42 {
		t.Fatalf("chained result = %d", binary.LittleEndian.Uint32(out))
	}
}

func TestAppendGoesToGlobalTier(t *testing.T) {
	store := kvs.NewEngine()
	p := New(fastCfg(store))
	p.Register("f", func(api hostapi.API) (int32, error) {
		return 0, api.StateAppend("k", []byte("z"))
	})
	if _, ret, err := p.Call("f", nil); err != nil || ret != 0 {
		t.Fatalf("append: %d %v", ret, err)
	}
	g, _ := store.Get("k")
	if string(g) != "z" {
		t.Fatalf("append = %q", g)
	}
}

func TestGuestPanicContained(t *testing.T) {
	p := New(fastCfg(nil))
	p.Register("boom", func(api hostapi.API) (int32, error) { panic("bug") })
	_, ret, err := p.Call("boom", nil)
	if err == nil || ret != -1 {
		t.Fatalf("panic: %d %v", ret, err)
	}
	// Platform still serves.
	p.Register("ok", func(api hostapi.API) (int32, error) { return 0, nil })
	if _, ret, err := p.Call("ok", nil); err != nil || ret != 0 {
		t.Fatal("platform dead after guest panic")
	}
}

func TestBillableMemoryIncludesPrivateCopies(t *testing.T) {
	store := kvs.NewEngine()
	store.Set("big", make([]byte, 1<<20))
	clock := vtime.NewScaled(1000)
	cfg := fastCfg(store)
	cfg.Clock = clock
	p := New(cfg)
	p.Register("f", func(api hostapi.API) (int32, error) {
		api.StateView("big", -1)
		return 0, nil
	})
	p.Call("f", nil)
	if p.Billable.Value() <= 0 {
		t.Fatal("no billable memory recorded")
	}
}

func TestUnknownFunction(t *testing.T) {
	p := New(fastCfg(nil))
	if _, err := p.Invoke("ghost", nil); err == nil {
		t.Fatal("unknown function invoked")
	}
	if _, _, err := p.Execute("ghost", nil); err == nil {
		t.Fatal("unknown function executed")
	}
}
