package sched

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/kvs/kvstest"
	"faasm.dev/faasm/internal/vtime"
)

// A cold call reads nothing from the tier and writes nothing to it: the miss
// consults the view the last beat built, and the advert it makes is listed
// by the next beat.
func TestColdCallTouchesNoTier(t *testing.T) {
	store := kvstest.NewCountingStore(kvs.NewEngine())
	s := New("host-1", store, 10)
	s.Heartbeat()
	store.ResetOps()
	if d, err := s.Schedule("fn"); err != nil || d.Placement != PlaceLocalCold {
		t.Fatalf("cold decision: %+v %v", d, err)
	}
	s.NoteWarm("fn", 1)
	if !s.Advertised("fn") {
		t.Fatal("cold start did not advertise")
	}
	if ops := store.Ops(); ops != 0 {
		t.Fatalf("cold Schedule + NoteWarm: %d tier ops, want 0", ops)
	}
}

// One beat after N new functions writes the lease once, listing all of them,
// and joins the membership set once: no per-function write.
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
	if setex, sadd, ops := store.OpCount("SetEx"), store.OpCount("SAdd"), store.Ops(); setex != 1 || sadd != 1 || ops != 3 {
		t.Fatalf("beat after %d transitions: %d SetEx, %d SAdd, %d ops; want 1 SetEx, 1 SAdd (joining), 3 ops", n, setex, sadd, ops)
	}
	for k := 0; k < n; k++ {
		fn := fmt.Sprintf("fn-%d", k)
		if hosts, _ := s.WarmHosts(fn); len(hosts) != 1 || hosts[0] != "host-1" {
			t.Fatalf("%s warm hosts after the beat = %v", fn, hosts)
		}
	}
}

// A beat costs the same however many functions are warm: on an unchanged
// host with 2,000 advertised functions and one peer, the second beat is one
// SetEx, one SMembers and one MGet.
func TestBeatCostIndependentOfWarmFunctions(t *testing.T) {
	const n = 2000
	store := kvstest.NewCountingStore(kvs.NewEngine())
	peer := New("host-2", store, 10)
	peer.NoteWarm("other", 1)
	peer.Heartbeat()
	s := New("host-1", store, 10)
	for k := 0; k < n; k++ {
		s.NoteWarm(fmt.Sprintf("fn-%d", k), 1)
	}
	if err := s.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	store.ResetOps()
	if err := s.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	setex, members, mget, ops := store.OpCount("SetEx"), store.OpCount("SMembers"), store.OpCount("MGet"), store.Ops()
	if setex != 1 || members != 1 || mget > 1 || ops != setex+members+mget {
		t.Fatalf("second beat with %d warm functions: %d ops (%d SetEx, %d SMembers, %d MGet); want SetEx + SMembers + at most one MGet", n, ops, setex, members, mget)
	}
	if hosts, _ := s.WarmHosts(fmt.Sprintf("fn-%d", n-1)); len(hosts) != 1 || hosts[0] != "host-1" {
		t.Fatalf("lease does not list every advertised function: warm hosts %v", hosts)
	}
}

// Retreat is local: NoteWarm then Retreat with no beat between them costs no
// tier operation, and the next lease does not list the function.
func TestRetreatWritesNothing(t *testing.T) {
	store := kvstest.NewCountingStore(kvs.NewEngine())
	s := New("host-1", store, 10)
	s.NoteWarm("keep", 1)
	store.ResetOps()
	s.NoteWarm("fn", 1)
	s.Retreat("fn")
	if ops := store.Ops(); ops != 0 {
		t.Fatalf("NoteWarm + Retreat: %d tier ops, want 0", ops)
	}
	if err := s.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	rec, _ := store.Store.Get(aliveKey("host-1"))
	got := adverts(rec)
	if _, ok := got["fn"]; ok {
		t.Fatalf("lease after the retreat lists fn: %q", rec)
	}
	if _, ok := got["keep"]; !ok {
		t.Fatalf("lease does not list the still-advertised function: %q", rec)
	}
}

// A Retreat that returns before a beat starts is never listed by that beat,
// however the two interleave: one goroutine advertises and retreats a fresh
// function at a time while the test beats, and every lease written must
// omit each function whose Retreat had returned when its beat began.
func TestRetreatBeforeBeatNeverListed(t *testing.T) {
	const n = 500
	store := kvs.NewEngine()
	s := New("host-1", store, 10)
	s.NoteWarm("keep", 1) // every beat writes a lease
	var retired atomic.Int64
	retired.Store(-1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < n; k++ {
			fn := fmt.Sprintf("fn-%d", k)
			s.NoteWarm(fn, 1)
			s.Retreat(fn)
			retired.Store(int64(k))
		}
	}()
	for beat := 0; ; beat++ {
		r := retired.Load()
		if err := s.Heartbeat(); err != nil {
			t.Fatal(err)
		}
		rec, _ := store.Get(aliveKey("host-1"))
		for fn := range adverts(rec) {
			var k int64
			if _, err := fmt.Sscanf(fn, "fn-%d", &k); err == nil && k <= r {
				t.Fatalf("beat %d listed %s, whose Retreat returned before the beat began (retired up to fn-%d)", beat, fn, r)
			}
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// The staleness bound: a host's new warm function reaches a peer within two
// beats. Here the peer b advertises nothing, and beats just before a does;
// a's transition lands just after its own beat. b keeps cold-starting until
// a's next beat has listed the function AND b's own beat after that has read
// it, then forwards.
func TestNewWarmHostVisibleWithinTwoBeats(t *testing.T) {
	clock := vtime.NewVirtual()
	store := kvs.NewEngine()
	store.SetNowFunc(clock.Now)
	a := New("host-a", store, 10)
	b := New("host-b", store, 10)
	a.SetClock(clock)
	b.SetClock(clock)
	beat := DefaultLeaseTTL / 3
	const skew = time.Millisecond

	b.StartHeartbeat() // beats at 0, beat, 2·beat, ...
	defer b.StopHeartbeat()
	waitFor(t, func() bool { return clock.Pending() == 1 })
	clock.Advance(skew)
	a.StartHeartbeat() // beats at skew, beat+skew, ...
	defer a.StopHeartbeat()
	waitFor(t, func() bool { return clock.Pending() == 2 })

	if d, err := a.Schedule("fn"); err != nil || d.Placement != PlaceLocalCold {
		t.Fatalf("a's first call: %+v %v", d, err)
	}
	a.NoteWarm("fn", 1)

	// place asks b where fn runs, then withdraws the advert a cold decision
	// makes, so b keeps advertising nothing.
	place := func(when string) Decision {
		t.Helper()
		d, err := b.Schedule("fn")
		if err != nil {
			t.Fatal(err)
		}
		b.Retreat("fn")
		if b.Advertised("fn") {
			t.Fatalf("%s: b advertises fn", when)
		}
		return d
	}
	step := func(d time.Duration) {
		clock.Advance(d)
		waitFor(t, func() bool { return clock.Pending() == 2 })
	}

	step(beat - skew) // b's beat: a has not listed fn yet
	if d := place("after b's first beat"); d.Placement != PlaceLocalCold {
		t.Fatalf("b before a's beat: %+v, want local-cold", d)
	}
	step(skew) // a's beat lists fn
	if got := a.lastBeat.Load(); got != clock.Now().UnixNano() {
		t.Fatalf("a's lease written at %d, want %d", got, clock.Now().UnixNano())
	}
	if d := place("after a's beat"); d.Placement != PlaceLocalCold {
		t.Fatalf("b after a's beat but before its own: %+v, want local-cold", d)
	}
	step(beat - skew - time.Nanosecond)
	if d := place("just before b's second beat"); d.Placement != PlaceLocalCold {
		t.Fatalf("b just before its own beat: %+v, want local-cold", d)
	}
	step(time.Nanosecond) // b's beat reads a's lease: two beats after the transition
	if d := place("after b's second beat"); d.Placement != PlaceForward || d.TargetHost != "host-a" {
		t.Fatalf("b after a's beat and its own: %+v, want forward to host-a", d)
	}
}

// After Drain returns, no view refreshed later names the drained host, even
// when beats race the drain.
func TestDrainedHostLeavesLaterViews(t *testing.T) {
	store := kvs.NewEngine()
	a := New("host-a", store, 10)
	b := New("host-b", store, 10)
	b.NoteWarm("fn", 1)
	b.Heartbeat()
	a.Heartbeat()
	if d, _ := a.Schedule("fn"); d.Placement != PlaceForward || d.TargetHost != "host-b" {
		t.Fatalf("before the drain: %+v, want forward to host-b", d)
	}

	stop := make(chan struct{})
	beating := make(chan struct{})
	go func() {
		defer close(beating)
		for {
			select {
			case <-stop:
				return
			default:
				b.Heartbeat()
			}
		}
	}()
	runtime.Gosched()
	if err := b.Drain(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 20; k++ {
		if err := a.Heartbeat(); err != nil {
			t.Fatal(err)
		}
		if d, _ := a.Schedule("fn"); d.TargetHost == "host-b" {
			t.Fatalf("view refreshed %d beats after the drain forwards to host-b: %+v", k+1, d)
		}
		hosts, _ := a.WarmHosts("fn")
		for _, h := range hosts {
			if h == "host-b" {
				t.Fatalf("drained host still warm: %v", hosts)
			}
		}
	}
	close(stop)
	<-beating
}

// adverts decodes a lease record into function → listed resident bytes.
func adverts(rec []byte) map[string]int64 {
	m := map[string]int64{}
	eachAdvert(rec, func(fn string, b int64) { m[fn] = b })
	return m
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
