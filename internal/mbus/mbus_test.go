package mbus

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCallLifecycle(t *testing.T) {
	ct := NewCallTable()
	id := ct.Create("wordcount", []byte("input"))
	if id == 0 {
		t.Fatal("zero call id")
	}
	rec, ok := ct.Get(id)
	if !ok || rec.Status != CallPending || string(rec.Input) != "input" {
		t.Fatalf("record = %+v", rec)
	}
	if err := ct.Start(id); err != nil {
		t.Fatal(err)
	}
	// Output before completion is an error.
	if _, err := ct.Output(id); err == nil {
		t.Fatal("output of running call")
	}
	if err := ct.Complete(id, []byte("result"), 0, nil); err != nil {
		t.Fatal(err)
	}
	ret, err := ct.Await(id)
	if err != nil || ret != 0 {
		t.Fatalf("await: %d %v", ret, err)
	}
	out, err := ct.Output(id)
	if err != nil || string(out) != "result" {
		t.Fatalf("output: %q %v", out, err)
	}
}

func TestAwaitBlocksUntilComplete(t *testing.T) {
	ct := NewCallTable()
	id := ct.Create("f", nil)
	got := make(chan int32)
	go func() {
		ret, _ := ct.Await(id)
		got <- ret
	}()
	select {
	case <-got:
		t.Fatal("await returned before completion")
	case <-time.After(20 * time.Millisecond):
	}
	ct.Complete(id, nil, 7, nil)
	select {
	case ret := <-got:
		if ret != 7 {
			t.Fatalf("ret = %d", ret)
		}
	case <-time.After(time.Second):
		t.Fatal("await never woke")
	}
}

func TestAwaitFailedCall(t *testing.T) {
	ct := NewCallTable()
	id := ct.Create("f", nil)
	ct.Complete(id, nil, 1, errors.New("guest trapped"))
	ret, err := ct.Await(id)
	if err == nil || ret != 1 {
		t.Fatalf("await failed call: %d %v", ret, err)
	}
	if !strings.Contains(err.Error(), "guest trapped") {
		t.Fatalf("cause lost: %v", err)
	}
}

func TestManyAwaiters(t *testing.T) {
	ct := NewCallTable()
	id := ct.Create("f", nil)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ret, err := ct.Await(id); err != nil || ret != 3 {
				t.Errorf("awaiter got %d %v", ret, err)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	ct.Complete(id, nil, 3, nil)
	wg.Wait()
}

func TestUnknownCallOps(t *testing.T) {
	ct := NewCallTable()
	if err := ct.Start(99); err == nil {
		t.Fatal("start unknown")
	}
	if err := ct.Complete(99, nil, 0, nil); err == nil {
		t.Fatal("complete unknown")
	}
	if _, err := ct.Await(99); err == nil {
		t.Fatal("await unknown")
	}
	if _, err := ct.Output(99); err == nil {
		t.Fatal("output unknown")
	}
}

func TestDeleteAndLen(t *testing.T) {
	ct := NewCallTable()
	a := ct.Create("f", nil)
	ct.Create("g", nil)
	if ct.Len() != 2 {
		t.Fatalf("len = %d", ct.Len())
	}
	ct.Delete(a)
	if ct.Len() != 1 {
		t.Fatalf("len after delete = %d", ct.Len())
	}
}

func TestCallIDsUnique(t *testing.T) {
	ct := NewCallTable()
	const n = 100
	ids := make(chan uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < n/10; j++ {
				ids <- ct.Create("f", nil)
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[uint64]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate call id %d", id)
		}
		seen[id] = true
	}
}

func TestConcurrentCallsAcrossShards(t *testing.T) {
	// Many producers completing distinct calls while consumers await them:
	// the sharded table must deliver every result exactly where it belongs.
	table := NewCallTable()
	const calls = 500
	ids := make([]uint64, calls)
	for i := range ids {
		ids[i] = table.Create("fn", []byte{byte(i)})
	}
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(2)
		go func(i int, id uint64) {
			defer wg.Done()
			table.Start(id)
			table.Complete(id, []byte{byte(i)}, int32(i%128), nil)
		}(i, id)
		go func(i int, id uint64) {
			defer wg.Done()
			ret, err := table.Await(id)
			if err != nil || ret != int32(i%128) {
				t.Errorf("call %d: ret=%d err=%v", i, ret, err)
				return
			}
			out, err := table.Output(id)
			if err != nil || len(out) != 1 || out[0] != byte(i) {
				t.Errorf("call %d output: %v %v", i, out, err)
			}
		}(i, id)
	}
	wg.Wait()
	if table.Len() != calls {
		t.Fatalf("len = %d", table.Len())
	}
}

func TestDeleteWakesPendingAwaiters(t *testing.T) {
	table := NewCallTable()
	id := table.Create("fn", nil)
	done := make(chan error, 1)
	go func() {
		_, err := table.Await(id)
		done <- err
	}()
	// Let the awaiter block, then delete the record out from under it.
	time.Sleep(10 * time.Millisecond)
	table.Delete(id)
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("await on deleted call returned success")
		}
	case <-time.After(time.Second):
		t.Fatal("awaiter not woken by delete")
	}
}

func TestDoubleCompleteFirstWriterWins(t *testing.T) {
	table := NewCallTable()
	id := table.Create("fn", nil)
	if err := table.Complete(id, []byte("a"), 0, nil); err != nil {
		t.Fatal(err)
	}
	// A second completion (a redelivered execution's late result) must be a
	// no-op: no panic on the per-call channel close, no overwrite of the
	// output, return code, or status waiters already observed.
	if err := table.Complete(id, []byte("b"), 1, errors.New("late failure")); !errors.Is(err, ErrAlreadyCompleted) {
		t.Fatalf("second complete: err = %v, want ErrAlreadyCompleted", err)
	}
	if ret, err := table.Await(id); err != nil || ret != 0 {
		t.Fatalf("await after double complete: %d %v, want first result 0", ret, err)
	}
	rec, ok := table.Get(id)
	if !ok || rec.Status != CallSucceeded || string(rec.Output) != "a" {
		t.Fatalf("record after double complete: %+v", rec)
	}
	if got := table.completed.Load(); got != 1 {
		t.Fatalf("completed counter = %d after double complete", got)
	}
}

func TestAwaitSurvivesDeleteAfterComplete(t *testing.T) {
	// A waiter woken by Complete must observe the result even when Delete
	// discards the record between the wake-up and the waiter's re-lock.
	// Looped to give the pre-fix race window many chances under -race.
	table := NewCallTable()
	for i := 0; i < 100; i++ {
		id := table.Create("fn", nil)
		got := make(chan error, 1)
		go func() {
			ret, err := table.Await(id)
			if err == nil && ret != 7 {
				err = errors.New("wrong return code")
			}
			got <- err
		}()
		// Once the awaiter holds the record, complete and immediately
		// delete: the Delete usually lands before the woken awaiter
		// re-acquires the shard lock, which is the race window.
		for table.Awaiters(id) == 0 {
			runtime.Gosched()
		}
		if err := table.Complete(id, []byte("out"), 7, nil); err != nil {
			t.Fatal(err)
		}
		table.Delete(id)
		if err := <-got; err != nil {
			t.Fatalf("iter %d: awaiter of a completed call observed %v", i, err)
		}
	}
}

// TestClaimHasOneWinner: of many concurrent claimants of a pending call
// exactly one is told to run it, and it gets the record; a call that is
// running, finished, deleted or unknown cannot be claimed.
func TestClaimHasOneWinner(t *testing.T) {
	ct := NewCallTable()
	for round := 0; round < 200; round++ {
		id := ct.CreateOwned("fn", []byte{byte(round)})
		var wins atomic.Int32
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if rec, ok := ct.Claim(id); ok {
					wins.Add(1)
					if rec.ID != id || rec.Function != "fn" || rec.Status != CallRunning || rec.Input[0] != byte(round) {
						t.Errorf("claimed record %+v", rec)
					}
				}
			}()
		}
		wg.Wait()
		if wins.Load() != 1 {
			t.Fatalf("round %d: %d claimants won", round, wins.Load())
		}
		if err := ct.Start(id); err != nil { // Start on a claimed call is a no-op, not an error
			t.Fatal(err)
		}
		ct.Complete(id, nil, 0, nil)
		if _, ok := ct.Claim(id); ok {
			t.Fatal("claimed a finished call")
		}
		if rec, _ := ct.Get(id); rec.Status != CallSucceeded {
			t.Fatalf("a late claim or start changed a finished call to %v", rec.Status)
		}
		ct.Delete(id)
		if _, ok := ct.Claim(id); ok {
			t.Fatal("claimed a deleted call")
		}
	}
	if ct.Len() != 0 {
		t.Fatalf("%d records left", ct.Len())
	}
}

// TestRetentionWindow: completed records of Create stay readable until
// CompletedRetention later completions, then go, oldest first; owned records
// and records still in flight are never evicted.
func TestRetentionWindow(t *testing.T) {
	ct := NewCallTable()
	owned := ct.CreateOwned("fn", nil)
	ct.Complete(owned, []byte("mine"), 0, nil)
	pending := ct.Create("fn", nil)
	running := ct.Create("fn", nil)
	ct.Start(running)

	var ids []uint64
	for n := 0; n < 3*CompletedRetention; n++ {
		id := ct.Create("fn", nil)
		ids = append(ids, id)
		if err := ct.Complete(id, []byte{byte(n)}, 0, nil); err != nil {
			t.Fatal(err)
		}
		if out, err := ct.Output(id); err != nil || out[0] != byte(n) {
			t.Fatalf("call %d unreadable right after completing: %v", n, err)
		}
		if live := ct.Len(); live > CompletedRetention+3 {
			t.Fatalf("%d records live after %d completions", live, n+1)
		}
	}
	// The most recent window is intact, everything older is gone.
	for n, id := range ids {
		_, err := ct.Output(id)
		if recent := n >= len(ids)-CompletedRetention; recent != (err == nil) {
			t.Fatalf("call %d of %d: output error %v", n, len(ids), err)
		}
	}
	if out, err := ct.Output(owned); err != nil || string(out) != "mine" {
		t.Fatalf("owned record evicted: %v", err)
	}
	for _, id := range []uint64{pending, running} {
		if rec, ok := ct.Get(id); !ok || rec.Status.Terminal() {
			t.Fatalf("in-flight record %d evicted or finished: %+v", id, rec)
		}
	}
	// An awaiter that got hold of the call before it was evicted still reads
	// its result.
	ct.Complete(running, nil, 9, nil)
	if ret, err := ct.Await(running); err != nil || ret != 9 {
		t.Fatalf("await: %d %v", ret, err)
	}
}

// TestRetentionWindowIgnoresIDStride: external ids interleaved with any
// number of owned ones (each external call chains k children, so external ids
// are k+1 apart — 64 apart puts them all on one shard) still get the whole
// window, oldest completed evicted first.
func TestRetentionWindowIgnoresIDStride(t *testing.T) {
	for _, children := range []int{1, 31, 63, 127} {
		ct := NewCallTable()
		var ids []uint64
		for n := 0; n < CompletedRetention+100; n++ {
			id := ct.Create("parent", nil)
			ids = append(ids, id)
			for c := 0; c < children; c++ {
				child := ct.CreateOwned("leaf", nil)
				ct.Claim(child)
				ct.Complete(child, nil, 0, nil)
				ct.Delete(child)
			}
			ct.Complete(id, []byte{byte(n)}, 0, nil)
		}
		for n, id := range ids {
			out, err := ct.Output(id)
			if recent := n >= 100; recent != (err == nil) || (recent && out[0] != byte(n)) {
				t.Fatalf("%d children per call: call %d of %d: output %v, error %v", children, n, len(ids), out, err)
			}
		}
		if ct.Len() != CompletedRetention {
			t.Fatalf("%d children per call: %d records live", children, ct.Len())
		}
	}
}

// TestDeleteDoesNotCancelOwnedCall: an owned call deleted before anything
// claimed it is still claimable — exactly once — and its record goes when it
// completes; one deleted while running completes into nothing.
func TestDeleteDoesNotCancelOwnedCall(t *testing.T) {
	ct := NewCallTable()
	pending := ct.CreateOwned("fn", []byte("in"))
	ct.Delete(pending)
	ct.Delete(pending) // idempotent
	if ct.Len() != 1 {
		t.Fatalf("%d records after deleting an unstarted owned call, want it kept until it has run", ct.Len())
	}
	rec, ok := ct.Claim(pending)
	if !ok || string(rec.Input) != "in" {
		t.Fatalf("claim after delete: %+v, %v", rec, ok)
	}
	if _, again := ct.Claim(pending); again {
		t.Fatal("claimed twice")
	}
	if err := ct.Complete(pending, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	if ct.Len() != 0 {
		t.Fatalf("%d records after the orphan completed", ct.Len())
	}

	running := ct.CreateOwned("fn", nil)
	ct.Claim(running)
	ct.Delete(running)
	if ct.Len() != 0 {
		t.Fatalf("%d records after deleting a running owned call", ct.Len())
	}
	if err := ct.Complete(running, nil, 0, nil); err == nil {
		t.Fatal("completing a deleted running call reported success")
	}
}
