package frt

import (
	"bytes"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasm.dev/faasm/internal/core"
	"faasm.dev/faasm/internal/mbus"
)

// TestCallTableBounded is the regression test for the call-table leak: a
// daemon's table must not grow with the calls it has served. One million
// completed calls — half chained by guests (awaited and not), half invoked
// from outside — leave no more than the retention window behind.
func TestCallTableBounded(t *testing.T) {
	const (
		fanout   = 50
		parents  = 10_000 // × fanout = 500k chained calls
		external = 500_000
	)
	inst := New(Config{Host: "h1", TraceSample: -1})
	defer inst.Shutdown()
	var ran atomic.Int64
	inst.RegisterNative("leaf", func(*core.Ctx) (int32, error) {
		ran.Add(1)
		return 0, nil
	})
	inst.RegisterNative("parent", func(ctx *core.Ctx) (int32, error) {
		var ids [fanout]uint64
		for i := range ids {
			id, err := ctx.Chain("leaf", nil)
			if err != nil {
				return 1, err
			}
			ids[i] = id
		}
		// Every other child is abandoned: its record is the parent's to
		// discard all the same.
		for i := 0; i < fanout; i += 2 {
			if ret, err := ctx.Await(ids[i]); err != nil || ret != 0 {
				return 1, err
			}
		}
		return 0, nil
	})

	for p := 0; p < parents; p++ {
		if _, ret, err := inst.Call("parent", nil); err != nil || ret != 0 {
			t.Fatalf("parent %d: ret %d, %v", p, ret, err)
		}
	}
	// Deleting a record cancels nothing: the abandoned children run all the
	// same, and each takes its record with it when it finishes.
	waitUntil(t, func() bool { return ran.Load() == parents*fanout })
	waitUntil(t, func() bool { return inst.calls.Len() == 0 })

	peak := 0
	for n := 0; n < external; n++ {
		id, err := inst.Invoke("leaf", nil)
		if err != nil {
			t.Fatal(err)
		}
		if ret, err := inst.Await(id); err != nil || ret != 0 {
			t.Fatalf("external call %d: ret %d, %v", n, ret, err)
		}
		if n%50_000 == 0 {
			peak = max(peak, inst.calls.Len())
		}
	}
	peak = max(peak, inst.calls.Len())
	if peak > mbus.CompletedRetention {
		t.Fatalf("%d records in the table after %d completed calls; the retention window is %d",
			peak, parents*fanout+external, mbus.CompletedRetention)
	}
	if n := ran.Load(); n != parents*fanout+external {
		t.Fatalf("%d leaf executions for %d calls", n, parents*fanout+external)
	}
}

// waitUntil polls cond until it holds, failing the test after ten seconds.
func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
	}
}

// TestUnawaitedChildrenStillRun: a parent that chains children and returns
// without awaiting them has asked for that work all the same. Its return
// discards the records, not the calls — every child executes exactly once,
// whether or not its dispatch goroutine had started it by then, and the table
// is empty once they have.
func TestUnawaitedChildrenStillRun(t *testing.T) {
	const parents, fanout = 2000, 3
	inst := New(Config{Host: "h1", TraceSample: 3})
	defer inst.Shutdown()
	var runs [parents * fanout]atomic.Int32
	var ran atomic.Int64
	inst.RegisterNative("leaf", func(ctx *core.Ctx) (int32, error) {
		runs[binary.LittleEndian.Uint32(ctx.Input())].Add(1)
		ran.Add(1)
		return 0, nil
	})
	inst.RegisterNative("parent", func(ctx *core.Ctx) (int32, error) {
		first := binary.LittleEndian.Uint32(ctx.Input())
		for c := uint32(0); c < fanout; c++ {
			if _, err := ctx.Chain("leaf", binary.LittleEndian.AppendUint32(nil, first+c)); err != nil {
				return 1, err
			}
		}
		return 0, nil
	})
	for p := 0; p < parents; p++ {
		if _, ret, err := inst.Call("parent", binary.LittleEndian.AppendUint32(nil, uint32(p*fanout))); err != nil || ret != 0 {
			t.Fatalf("parent %d: ret %d, %v", p, ret, err)
		}
	}
	waitUntil(t, func() bool { return ran.Load() >= parents*fanout })
	waitUntil(t, func() bool { return inst.calls.Len() == 0 })
	for n := range runs {
		if got := runs[n].Load(); got != 1 {
			t.Fatalf("un-awaited child %d executed %d times", n, got)
		}
	}
}

// TestExternalRecordsStayReadable: outside a guest the whole Invoke → Await →
// Await → Output → Output sequence keeps working, also with a retention
// window's worth of other calls completing in between — whatever the spacing
// of the external ids, which share a counter with the ids of the children each
// call chains.
func TestExternalRecordsStayReadable(t *testing.T) {
	// 63 children put the external ids 64 apart: all on one call-table shard.
	for children, calls := range map[int]int{0: mbus.CompletedRetention, 63: 512} {
		inst := New(Config{Host: "h1"})
		inst.RegisterNative("leaf", func(*core.Ctx) (int32, error) { return 0, nil })
		inst.RegisterNative("echo", func(ctx *core.Ctx) (int32, error) {
			for c := 0; c < children; c++ {
				id, err := ctx.Chain("leaf", nil)
				if err != nil {
					return 1, err
				}
				if _, err := ctx.Await(id); err != nil {
					return 1, err
				}
			}
			ctx.WriteOutput(ctx.Input())
			return 7, nil
		})
		ids := make([]uint64, calls)
		for n := range ids {
			id, err := inst.Invoke("echo", binary.LittleEndian.AppendUint32(nil, uint32(n)))
			if err != nil {
				t.Fatal(err)
			}
			ids[n] = id
		}
		for n, id := range ids {
			for round := 0; round < 2; round++ {
				if ret, err := inst.Await(id); err != nil || ret != 7 {
					t.Fatalf("%d children: call %d await %d: ret %d, %v", children, n, round, ret, err)
				}
			}
		}
		for n, id := range ids {
			for round := 0; round < 2; round++ {
				out, err := inst.Output(id)
				if err != nil || !bytes.Equal(out, binary.LittleEndian.AppendUint32(nil, uint32(n))) {
					t.Fatalf("%d children: call %d output %d: %v, %v", children, n, round, out, err)
				}
			}
		}
		inst.Shutdown()
	}
}

// TestChainedChildrenExecuteExactlyOnce is the Claim invariant under load:
// 10,000 children are chained at once, so each has a dispatch goroutine, and
// eight awaiters walk all of them at the same time, so each child has up to
// nine claimants. Every child runs exactly once and every awaiter sees its
// result.
func TestChainedChildrenExecuteExactlyOnce(t *testing.T) {
	const children, awaiters = 10_000, 8
	inst := New(Config{Host: "h1", TraceSample: 3}) // sampled and unsampled calls take the same path
	defer inst.Shutdown()
	var runs [children]atomic.Int32
	inst.RegisterNative("child", func(ctx *core.Ctx) (int32, error) {
		n := binary.LittleEndian.Uint32(ctx.Input())
		runs[n].Add(1)
		ctx.WriteOutput(ctx.Input())
		return int32(n % 100), nil
	})
	inst.RegisterNative("parent", func(ctx *core.Ctx) (int32, error) {
		ids := make([]uint64, children)
		for n := range ids {
			id, err := ctx.Chain("child", binary.LittleEndian.AppendUint32(nil, uint32(n)))
			if err != nil {
				return 1, err
			}
			ids[n] = id
		}
		var bad atomic.Int32
		var wg sync.WaitGroup
		for a := 0; a < awaiters; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				for k := range ids {
					n := (k + a*children/awaiters) % children // awaiters start apart and overlap
					ret, err := ctx.Await(ids[n])
					out, oerr := ctx.OutputOf(ids[n])
					if err != nil || oerr != nil || ret != int32(n%100) || binary.LittleEndian.Uint32(out) != uint32(n) {
						bad.Add(1)
					}
				}
			}(a)
		}
		wg.Wait()
		return bad.Load(), nil
	})
	_, ret, err := inst.Call("parent", nil)
	if err != nil || ret != 0 {
		t.Fatalf("parent: %d awaits saw a wrong result, %v", ret, err)
	}
	for n := range runs {
		if got := runs[n].Load(); got != 1 {
			t.Fatalf("child %d executed %d times", n, got)
		}
	}
	if n := inst.calls.Len(); n != 0 {
		t.Fatalf("%d records left after the parent returned", n)
	}
}
