package kvs

// Engine-internal expiry tests: deterministic clock control (the engine's
// clock is the only judge of expiry), physical reclamation by the background
// sweeper, and race coverage for the sweeper against concurrent operations.
// Cross-backend expiry semantics live in the kvstest conformance suite.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a controllable engine clock, safe for concurrent use (the
// background sweeper reads it from its timer goroutine).
type fakeClock struct {
	base   time.Time
	offset atomic.Int64
}

func newFakeClock() *fakeClock { return &fakeClock{base: time.Now()} }

func (c *fakeClock) Now() time.Time {
	return c.base.Add(time.Duration(c.offset.Load()))
}

func (c *fakeClock) Advance(d time.Duration) { c.offset.Add(int64(d)) }

func TestExpiryJudgedOnEngineClockOnly(t *testing.T) {
	clk := newFakeClock()
	e := NewEngine()
	e.SetNowFunc(clk.Now)
	// Park the background sweeper: this test drives sweeps explicitly and
	// must observe their counts deterministically.
	e.SetSweepInterval(time.Hour)
	if err := e.SetEx("k", []byte("v"), time.Minute); err != nil {
		t.Fatal(err)
	}
	// Wall time passing means nothing: only the engine clock judges.
	time.Sleep(10 * time.Millisecond)
	if v, _ := e.Get("k"); string(v) != "v" {
		t.Fatalf("key expired without the engine clock moving: %q", v)
	}
	if d, _ := e.TTL("k"); d != time.Minute {
		t.Fatalf("ttl = %v on a frozen clock, want full minute", d)
	}
	clk.Advance(time.Minute - time.Millisecond)
	if v, _ := e.Get("k"); v == nil {
		t.Fatal("key expired before its deadline")
	}
	clk.Advance(2 * time.Millisecond)
	if v, _ := e.Get("k"); v != nil {
		t.Fatalf("key visible past its deadline: %q", v)
	}
	if d, _ := e.TTL("k"); d != TTLMissing {
		t.Fatalf("ttl past deadline = %v, want TTLMissing", d)
	}
	// The expired entry is physically gone after one sweep.
	if n := e.SweepExpired(); n != 1 {
		t.Fatalf("sweep removed %d entries, want 1", n)
	}
	if n := e.SweepExpired(); n != 0 {
		t.Fatalf("second sweep removed %d entries, want 0", n)
	}
}

func TestExpiredKeysDoNotPinMemory(t *testing.T) {
	// The background sweeper alone — no reads ever touching the keys —
	// must physically delete expired entries.
	e := NewEngine()
	e.SetSweepInterval(2 * time.Millisecond)
	for i := 0; i < 100; i++ {
		if err := e.SetEx(fmt.Sprintf("mem-%d", i), make([]byte, 128), 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		held := 0
		for i := range e.stripes {
			st := &e.stripes[i]
			st.mu.RLock()
			held += len(st.vals) + len(st.exp)
			st.mu.RUnlock()
		}
		if held == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d expired entries still pinned after sweeps", held)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSweeperReschedulesAcrossGenerations(t *testing.T) {
	// A second generation of deadlines registered after the first was fully
	// swept (timer chain idle) must be swept too — the re-arm on SetEx.
	e := NewEngine()
	e.SetSweepInterval(2 * time.Millisecond)
	for gen := 0; gen < 2; gen++ {
		if err := e.SetEx("gen", []byte("v"), 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			st := e.stripeOf("gen")
			st.mu.RLock()
			_, pinned := st.vals["gen"]
			st.mu.RUnlock()
			if !pinned {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("generation %d never swept", gen)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestExpirySweeperRaceClean runs the sweeper (background and explicit)
// against concurrent SetEx/Get/MGet/TTL/Set/Delete/enumeration on
// overlapping keys. Run under -race in CI.
func TestExpirySweeperRaceClean(t *testing.T) {
	e := NewEngine()
	e.SetSweepInterval(time.Millisecond)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	key := func(i int) string { return fmt.Sprintf("r-%d", i%32) }

	worker := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				fn(i)
			}
		}()
	}
	worker(func(i int) { // expiring writer
		e.SetEx(key(i), []byte("v"), time.Duration(1+i%5)*time.Millisecond)
	})
	worker(func(i int) { // readers
		e.Get(key(i))
		e.MGet([]string{key(i), key(i + 1), key(i + 2)})
		e.TTL(key(i))
		e.GetRange(key(i), 0, 1)
	})
	worker(func(i int) { // expiry mutators
		if i%7 == 0 {
			e.Set(key(i), []byte("p"))
		}
		if i%11 == 0 {
			e.Delete(key(i))
		}
	})
	worker(func(i int) { // explicit sweeps race the background timer
		e.SweepExpired()
		time.Sleep(time.Millisecond)
	})
	worker(func(i int) { // enumeration walks every stripe
		e.AllKeys()
		e.TotalBytes()
		time.Sleep(time.Millisecond)
	})

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
}
