package kvstest

import (
	"fmt"
	"io"
	"testing"
	"time"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/simnet"
)

// RunFaults is the error-path companion to Run: it wraps the factory's
// store in a simnet.FaultShard and pins how every backend behaves when the tier
// misbehaves — injected errors surface on every operation class, a crash is
// distinguishable (kvs.IsUnavailable) from a semantic rejection, data
// survives crash/restore, a batch that fails part-way reports the failure,
// and a closed store never panics. Backends get the same failure semantics
// or they do not ship.
func RunFaults(t *testing.T, mk Factory) {
	t.Run("InjectedErrorSurfacesEverywhere", func(t *testing.T) {
		f := simnet.NewFaultShard(mk(t), nil)
		if err := f.Set("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		f.FailNext(-1, nil)
		ops := map[string]func() error{
			"Get":      func() error { _, err := f.Get("k"); return err },
			"Set":      func() error { return f.Set("k", []byte("v2")) },
			"SetEx":    func() error { return f.SetEx("k", []byte("v2"), time.Second) },
			"TTL":      func() error { _, err := f.TTL("k"); return err },
			"Persist":  func() error { _, err := f.Persist("k"); return err },
			"GetRange": func() error { _, err := f.GetRange("k", 0, 1); return err },
			"SetRange": func() error { return f.SetRange("k", 0, []byte("x")) },
			"Append":   func() error { _, err := f.Append("k", []byte("x")); return err },
			"Len":      func() error { _, err := f.Len("k"); return err },
			"Delete":   func() error { return f.Delete("k2") },
			"SAdd":     func() error { _, err := f.SAdd("s", "m"); return err },
			"SRem":     func() error { _, err := f.SRem("s", "m"); return err },
			"SMembers": func() error { _, err := f.SMembers("s"); return err },
			"Incr":     func() error { _, err := f.Incr("n", 1); return err },
			"Lock":     func() error { _, err := f.Lock("l", true, time.Second); return err },
			"Unlock":   func() error { return f.Unlock("l", 1) },
		}
		for name, op := range ops {
			if err := op(); !kvs.IsUnavailable(err) {
				t.Fatalf("%s under injected fault: want unavailable error, got %v", name, err)
			}
		}
		f.FailNext(0, nil)
		if v, err := f.Get("k"); err != nil || string(v) != "v" {
			t.Fatalf("after clearing faults: %q, %v (faults must not corrupt data)", v, err)
		}
	})

	t.Run("SemanticErrorIsNotUnavailable", func(t *testing.T) {
		f := simnet.NewFaultShard(mk(t), nil)
		f.FailNext(1, fmt.Errorf("kvstest: injected semantic rejection"))
		err := f.Set("k", []byte("v"))
		if err == nil {
			t.Fatal("injected semantic error must surface")
		}
		if kvs.IsUnavailable(err) {
			t.Fatalf("semantic error classified unavailable: %v", err)
		}
		// And the store's own rejections stay semantic through the wrapper.
		if err := f.SetEx("k", []byte("v"), -time.Second); err == nil {
			t.Fatal("negative ttl must be rejected")
		} else if kvs.IsUnavailable(err) {
			t.Fatalf("ttl rejection classified unavailable: %v", err)
		}
	})

	t.Run("CrashRestorePreservesData", func(t *testing.T) {
		f := simnet.NewFaultShard(mk(t), nil)
		if err := f.Set("k", []byte("survives")); err != nil {
			t.Fatal(err)
		}
		f.Crash()
		if _, err := f.Get("k"); !kvs.IsUnavailable(err) {
			t.Fatalf("get on crashed store: want unavailable, got %v", err)
		}
		if err := f.Set("k", []byte("lost")); !kvs.IsUnavailable(err) {
			t.Fatalf("set on crashed store: want unavailable, got %v", err)
		}
		f.Restore()
		if v, err := f.Get("k"); err != nil || string(v) != "survives" {
			t.Fatalf("after restore: %q, %v", v, err)
		}
	})

	t.Run("PartialBatchFailureSurfaces", func(t *testing.T) {
		f := simnet.NewFaultShard(mk(t), nil)
		pairs := []kvs.Pair{
			{Key: "b0", Val: []byte("v0")}, {Key: "b1", Val: []byte("v1")},
			{Key: "b2", Val: []byte("v2")}, {Key: "b3", Val: []byte("v3")},
		}
		// The wrapper's batch decomposes into per-key ops applied in order;
		// failing from the third op onward leaves the batch half-applied —
		// which MUST surface as an error, never silently.
		f.FailAfter(2, -1, nil)
		err := f.MSet(pairs)
		if !kvs.IsUnavailable(err) {
			t.Fatalf("partial batch failure: want unavailable error, got %v", err)
		}
		f.FailNext(0, nil)
		if v, err := f.Get("b1"); err != nil || string(v) != "v1" {
			t.Fatalf("pair before the failure point must have applied: %q, %v", v, err)
		}
		if v, err := f.Get("b3"); err != nil || v != nil {
			t.Fatalf("pair after the failure point must not have applied: %q, %v", v, err)
		}
		// A retry of the identical batch converges every key: replaying a
		// value write is the documented recovery for indeterminate writes.
		if err := f.MSet(pairs); err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			if v, err := f.Get(p.Key); err != nil || string(v) != string(p.Val) {
				t.Fatalf("after batch retry %s: %q, %v", p.Key, v, err)
			}
		}
	})

	t.Run("LatencyDelaysOps", func(t *testing.T) {
		f := simnet.NewFaultShard(mk(t), nil)
		f.SetLatency(20 * time.Millisecond)
		start := time.Now()
		if err := f.Set("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < 20*time.Millisecond {
			t.Fatalf("op took %v, injected latency not applied", d)
		}
		f.SetLatency(0)
	})

	t.Run("OpsAfterCloseNeverPanic", func(t *testing.T) {
		s := mk(t)
		c, ok := s.(io.Closer)
		if !ok {
			t.Skip("store holds no closeable resources")
		}
		if err := s.Set("k", []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("second close must be safe: %v", err)
		}
		// After Close an op may fail cleanly or succeed by reconnecting
		// (the TCP client re-dials); either way it must not panic.
		if _, err := s.Get("k"); err != nil && !kvs.IsUnavailable(err) {
			t.Fatalf("op after close: want success or unavailable, got %v", err)
		}
	})
}
