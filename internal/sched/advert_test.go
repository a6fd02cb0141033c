package sched

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/kvs/kvstest"
	"faasm.dev/faasm/internal/vtime"
)

// A cold call does one tier read (the warm-set lookup) and no tier write:
// the advert it makes is published by the next heartbeat.
func TestColdCallWritesNothing(t *testing.T) {
	store := kvstest.NewCountingStore(kvs.NewEngine())
	s := New("host-1", store, 10)
	if d, err := s.Schedule("fn"); err != nil || d.Placement != PlaceLocalCold {
		t.Fatalf("cold decision: %+v %v", d, err)
	}
	s.NoteWarm("fn", 1)
	if !s.Advertised("fn") {
		t.Fatal("cold start did not advertise")
	}
	if ops, reads := store.Ops(), store.OpCount("SMembers"); ops != 1 || reads != 1 {
		t.Fatalf("cold Schedule + NoteWarm: %d tier ops (%d SMembers), want exactly 1 SMembers", ops, reads)
	}
}

// One beat after N new functions writes the lease once and each function's
// warm-set entry once: the tier write a cold call used to pay, moved onto
// the beat.
func TestHeartbeatPublishesEachNewFunction(t *testing.T) {
	const n = 5
	store := kvstest.NewCountingStore(kvs.NewEngine())
	s := New("host-1", store, 10)
	for k := 0; k < n; k++ {
		fn := fmt.Sprintf("fn-%d", k)
		s.Schedule(fn)
		s.NoteWarm(fn, 1)
	}
	store.ResetOps()
	if err := s.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	if setex, sadd, ops := store.OpCount("SetEx"), store.OpCount("SAdd"), store.Ops(); setex != 1 || sadd != n || ops != n+1 {
		t.Fatalf("beat after %d transitions: %d SetEx, %d SAdd, %d ops; want 1, %d, %d", n, setex, sadd, ops, n, n+1)
	}
	for k := 0; k < n; k++ {
		fn := fmt.Sprintf("fn-%d", k)
		if hosts, _ := s.WarmHosts(fn); len(hosts) != 1 || hosts[0] != "host-1" {
			t.Fatalf("%s warm set after the beat = %v", fn, hosts)
		}
	}
}

// retreatRaceStore parks the heartbeat's SAdd until Retreat has been called
// and has either removed the entry (SRem seen) or had a grace period to. A
// retreat that is not ordered against the beat removes the entry first and
// the parked SAdd then re-adds it for a host with nothing warm.
type retreatRaceStore struct {
	kvs.Store
	inSAdd   chan struct{} // closed when the beat's SAdd is parked
	retreat  chan struct{} // closed just before the test calls Retreat
	sremSeen chan struct{} // closed when SRem reaches the store
}

func (r *retreatRaceStore) SAdd(key, member string) (bool, error) {
	close(r.inSAdd)
	<-r.retreat
	select {
	case <-r.sremSeen:
	case <-time.After(10 * time.Millisecond):
	}
	return r.Store.SAdd(key, member)
}

func (r *retreatRaceStore) SRem(key, member string) (bool, error) {
	close(r.sremSeen)
	return r.Store.SRem(key, member)
}

// A Retreat that lands while a beat is publishing the same function leaves
// no warm-set entry behind.
func TestRetreatDuringBeatLeavesNoEntry(t *testing.T) {
	store := &retreatRaceStore{
		Store:    kvs.NewEngine(),
		inSAdd:   make(chan struct{}),
		retreat:  make(chan struct{}),
		sremSeen: make(chan struct{}),
	}
	s := New("host-1", store, 10)
	s.Schedule("fn")
	s.NoteWarm("fn", 1)
	beat := make(chan error)
	go func() { beat <- s.Heartbeat() }()
	<-store.inSAdd
	close(store.retreat)
	if err := s.Retreat("fn"); err != nil {
		t.Fatal(err)
	}
	if err := <-beat; err != nil {
		t.Fatal(err)
	}
	if raw, _ := store.Store.SMembers("sched/warm/fn"); len(raw) != 0 {
		t.Fatalf("warm set after a retreat during the beat = %v, want empty", raw)
	}
	if s.Advertised("fn") {
		t.Fatal("still advertised after Retreat")
	}
}

// The staleness bound: a host's new warm function reaches a peer within one
// beat (LeaseTTL/3) of the transition. Before the beat a peer's cold miss
// cold-starts on its own host; once the clock passes the beat, it forwards.
func TestNewWarmHostVisibleWithinOneBeat(t *testing.T) {
	clock := vtime.NewVirtual()
	store := kvs.NewEngine()
	store.SetNowFunc(clock.Now)
	a := New("host-a", store, 10)
	b := New("host-b", store, 10)
	a.SetClock(clock)
	b.SetClock(clock)
	a.StartHeartbeat()
	defer a.StopHeartbeat()
	// Start the scenario once a's heartbeat loop sleeps on the clock.
	waitFor(t, func() bool { return clock.Pending() == 1 })
	beat := DefaultLeaseTTL / 3

	if d, err := a.Schedule("fn"); err != nil || d.Placement != PlaceLocalCold {
		t.Fatalf("a's first call: %+v %v", d, err)
	}
	a.NoteWarm("fn", 1)

	// Just short of a's beat, b has not heard of a: its miss cold-starts.
	clock.Advance(beat - time.Nanosecond)
	if d, err := b.Schedule("fn"); err != nil || d.Placement != PlaceLocalCold {
		t.Fatalf("b before a's beat: %+v %v, want local-cold", d, err)
	}

	// The beat fires: b's next miss forwards to a. (b cached no peers, so
	// no PeerCacheTTL applies.)
	clock.Advance(time.Nanosecond)
	waitFor(t, func() bool { return a.lastBeat.Load() != 0 })
	waitFor(t, func() bool {
		d, err := b.Schedule("fn")
		if err != nil {
			t.Fatal(err)
		}
		return d.Placement == PlaceForward && d.TargetHost == "host-a"
	})
	if now := clock.Now(); a.lastBeat.Load() != now.UnixNano() {
		t.Fatalf("a beat at %d, want one beat after start (%d)", a.lastBeat.Load(), now.UnixNano())
	}
}

// waitFor polls cond until it holds or a real-time deadline passes; it waits
// only for goroutines woken by a virtual clock to finish their step.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		runtime.Gosched()
		time.Sleep(100 * time.Microsecond)
	}
}
