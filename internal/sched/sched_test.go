package sched

import (
	"strconv"
	"testing"
	"time"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/kvs/kvstest"
)

func TestColdStartAdvertisesWarm(t *testing.T) {
	store := kvs.NewEngine()
	s := New("host-1", store, 10)
	d, err := s.Schedule("fn")
	if err != nil {
		t.Fatal(err)
	}
	if d.Placement != PlaceLocalCold {
		t.Fatalf("first call placement = %v", d.Placement)
	}
	hosts, _ := s.WarmHosts("fn")
	if len(hosts) != 1 || hosts[0] != "host-1" {
		t.Fatalf("warm set = %v", hosts)
	}
	if s.Stats.ColdStart.Load() != 1 {
		t.Fatal("cold start not counted")
	}
}

func TestWarmLocalPreferred(t *testing.T) {
	store := kvs.NewEngine()
	s := New("host-1", store, 10)
	s.Schedule("fn") // cold
	s.NoteWarm("fn", 1)
	d, _ := s.Schedule("fn")
	if d.Placement != PlaceLocalWarm {
		t.Fatalf("warm placement = %v", d.Placement)
	}
}

func TestForwardToWarmPeer(t *testing.T) {
	store := kvs.NewEngine()
	a := New("host-a", store, 10)
	b := New("host-b", store, 10)
	// Host B is warm for fn.
	b.Schedule("fn")
	b.NoteWarm("fn", 1)
	// Host A has nothing: it must share with B rather than cold-start.
	d, err := a.Schedule("fn")
	if err != nil {
		t.Fatal(err)
	}
	if d.Placement != PlaceForward || d.TargetHost != "host-b" {
		t.Fatalf("decision = %+v", d)
	}
	if a.Stats.Forwarded.Load() != 1 {
		t.Fatal("forward not counted")
	}
}

func TestForwardRoundRobinAcrossPeers(t *testing.T) {
	store := kvs.NewEngine()
	for _, h := range []string{"host-b", "host-c"} {
		p := New(h, store, 10)
		p.Schedule("fn")
		p.NoteWarm("fn", 1)
	}
	a := New("host-a", store, 10)
	seen := map[string]int{}
	for i := 0; i < 10; i++ {
		d, _ := a.Schedule("fn")
		if d.Placement != PlaceForward {
			t.Fatalf("placement = %v", d.Placement)
		}
		seen[d.TargetHost]++
	}
	if seen["host-b"] != 5 || seen["host-c"] != 5 {
		t.Fatalf("round robin skew: %v", seen)
	}
}

func TestAtCapacitySharesInsteadOfQueueing(t *testing.T) {
	store := kvs.NewEngine()
	a := New("host-a", store, 1)
	b := New("host-b", store, 10)
	a.Schedule("fn")
	a.NoteWarm("fn", 1)
	b.Schedule("fn")
	b.NoteWarm("fn", 1)
	// Saturate host A.
	a.Begin()
	d, _ := a.Schedule("fn")
	if d.Placement != PlaceForward || d.TargetHost != "host-b" {
		t.Fatalf("saturated placement = %+v", d)
	}
	a.End()
	// With capacity back, it prefers local again.
	d, _ = a.Schedule("fn")
	if d.Placement != PlaceLocalWarm {
		t.Fatalf("freed placement = %v", d.Placement)
	}
}

func TestSaturatedWithNoPeersRunsLocally(t *testing.T) {
	store := kvs.NewEngine()
	a := New("host-a", store, 1)
	a.Schedule("fn")
	a.NoteWarm("fn", 1)
	a.Begin()
	d, _ := a.Schedule("fn")
	if d.Placement != PlaceLocalWarm {
		t.Fatalf("lone saturated host placement = %v", d.Placement)
	}
}

func TestRetreatClearsWarmSet(t *testing.T) {
	store := kvs.NewEngine()
	a := New("host-a", store, 10)
	a.Schedule("fn")
	a.NoteWarm("fn", 2)
	// Acquiring warm Faaslets for execution is not a retreat: the host
	// still owns them, so it must stay advertised.
	a.NoteEvicted("fn", 2)
	hosts, _ := a.WarmHosts("fn")
	if len(hosts) != 1 {
		t.Fatalf("busy Faaslets removed warm entry: %v", hosts)
	}
	// Retreat — the function's last Faaslet is gone — clears the entry.
	a.Retreat("fn")
	hosts, _ = a.WarmHosts("fn")
	if len(hosts) != 0 {
		t.Fatalf("retreat left warm entry: %v", hosts)
	}
	if a.WarmCount("fn") != 0 {
		t.Fatalf("warm count after retreat = %d", a.WarmCount("fn"))
	}
	// A peer now cold-starts rather than forwarding to a dead host.
	b := New("host-b", store, 10)
	d, _ := b.Schedule("fn")
	if d.Placement != PlaceLocalCold {
		t.Fatalf("post-retreat placement = %v", d.Placement)
	}
}

func TestInflightAccounting(t *testing.T) {
	s := New("h", kvs.NewEngine(), 4)
	s.Begin()
	s.Begin()
	if s.Inflight() != 2 {
		t.Fatalf("inflight = %d", s.Inflight())
	}
	s.End()
	s.End()
	s.End() // extra End clamps at zero
	if s.Inflight() != 0 {
		t.Fatalf("inflight after ends = %d", s.Inflight())
	}
}

func TestWarmSteadyStateDoesZeroGlobalOps(t *testing.T) {
	store := kvstest.NewCountingStore(kvs.NewEngine())
	s := New("host-1", store, 10)
	// Cold start + first warm transition pay their write-throughs.
	s.Schedule("fn")
	s.NoteWarm("fn", 1)
	before := store.Ops()
	// Steady state: acquire (NoteEvicted) / release (NoteWarm) around every
	// warm local decision must touch the global tier zero times.
	for k := 0; k < 1000; k++ {
		d, err := s.Schedule("fn")
		if err != nil || d.Placement != PlaceLocalWarm {
			t.Fatalf("steady-state decision %d: %+v %v", k, d, err)
		}
		s.NoteEvicted("fn", 1)
		s.NoteWarm("fn", 1)
	}
	if ops := store.Ops() - before; ops != 0 {
		t.Fatalf("steady-state warm scheduling performed %d global ops, want 0", ops)
	}
}

func TestPeerCacheServesMissesWithinTTL(t *testing.T) {
	store := kvstest.NewCountingStore(kvs.NewEngine())
	b := New("host-b", store, 10)
	b.Schedule("fn")
	b.NoteWarm("fn", 1)

	a := New("host-a", store, 10)
	a.PeerCacheTTL = time.Hour
	before := store.Ops()
	for k := 0; k < 100; k++ {
		d, err := a.Schedule("fn")
		if err != nil || d.Placement != PlaceForward || d.TargetHost != "host-b" {
			t.Fatalf("forward %d: %+v %v", k, d, err)
		}
	}
	// One SMembers plus one batched lease read to populate the cache; the
	// other 99 misses are served from it.
	if ops := store.Ops() - before; ops != 2 {
		t.Fatalf("100 forwards performed %d global ops, want 2 (SMembers + lease MGet)", ops)
	}
}

func TestPeerCacheExpiresAndRefreshes(t *testing.T) {
	store := kvs.NewEngine()
	b := New("host-b", store, 10)
	b.Schedule("fn")
	b.NoteWarm("fn", 1)

	a := New("host-a", store, 10)
	a.PeerCacheTTL = time.Nanosecond // effectively always stale
	if d, _ := a.Schedule("fn"); d.Placement != PlaceForward {
		t.Fatalf("initial forward: %+v", d)
	}
	// Host B retreats; with an expired cache, A must observe it and
	// cold-start instead of forwarding to a host with nothing warm.
	b.Retreat("fn")
	time.Sleep(time.Millisecond)
	d, _ := a.Schedule("fn")
	if d.Placement != PlaceLocalCold {
		t.Fatalf("post-retreat placement = %v (stale cache?)", d.Placement)
	}
}

func TestInvalidatePeersForcesRefresh(t *testing.T) {
	store := kvs.NewEngine()
	b := New("host-b", store, 10)
	b.Schedule("fn")
	b.NoteWarm("fn", 1)

	a := New("host-a", store, 10)
	a.PeerCacheTTL = time.Hour
	if d, _ := a.Schedule("fn"); d.Placement != PlaceForward {
		t.Fatal("expected forward")
	}
	b.Retreat("fn")
	// The hour-long cache still names host-b ...
	if d, _ := a.Schedule("fn"); d.Placement != PlaceForward {
		t.Fatal("expected stale forward")
	}
	// ... until the transport failure path invalidates it.
	a.InvalidatePeers("fn")
	d, _ := a.Schedule("fn")
	if d.Placement != PlaceLocalCold {
		t.Fatalf("post-invalidate placement = %v", d.Placement)
	}
}

func TestAdvertiseWriteThroughHappensOnce(t *testing.T) {
	store := kvstest.NewCountingStore(kvs.NewEngine())
	s := New("host-1", store, 10)
	s.NoteWarm("fn", 1)
	if !s.Advertised("fn") {
		t.Fatal("first NoteWarm did not advertise")
	}
	before := store.Ops()
	for k := 0; k < 50; k++ {
		s.NoteWarm("fn", 1)
	}
	if ops := store.Ops() - before; ops != 0 {
		t.Fatalf("repeat NoteWarm performed %d global ops, want 0", ops)
	}
}

// --- Peer liveness (leased warm-set entries) ---

func TestDeadPeerDisappearsWithinLeaseTTL(t *testing.T) {
	store := kvs.NewEngine()
	b := New("host-b", store, 10)
	b.LeaseTTL = 40 * time.Millisecond
	b.Schedule("fn") // advertises with a 40ms lease; no heartbeat loop runs
	b.NoteWarm("fn", 1)

	a := New("host-a", store, 10)
	a.PeerCacheTTL = 5 * time.Millisecond
	if d, _ := a.Schedule("fn"); d.Placement != PlaceForward || d.TargetHost != "host-b" {
		t.Fatalf("live peer not used: %+v", d)
	}
	// host-b "crashes": it never heartbeats again. After one lease TTL it
	// must vanish from forwarding, from WarmHosts, and from the global set.
	time.Sleep(60 * time.Millisecond)
	d, err := a.Schedule("fn")
	if err != nil {
		t.Fatal(err)
	}
	if d.Placement != PlaceLocalCold {
		t.Fatalf("dead peer still receives forwards: %+v", d)
	}
	if hosts, _ := a.WarmHosts("fn"); len(hosts) != 1 || hosts[0] != "host-a" {
		t.Fatalf("WarmHosts after peer death = %v, want only the cold-started host-a", hosts)
	}
	// The observer evicted the stale entry from the global set itself.
	raw, _ := store.SMembers("sched/warm/fn")
	for _, h := range raw {
		if h == "host-b" {
			t.Fatalf("dead host still in global warm set: %v", raw)
		}
	}
}

func TestHeartbeatKeepsPeerAlive(t *testing.T) {
	store := kvs.NewEngine()
	b := New("host-b", store, 10)
	b.LeaseTTL = 30 * time.Millisecond
	b.Schedule("fn")
	b.NoteWarm("fn", 1)
	b.StartHeartbeat()
	defer b.StopHeartbeat()

	a := New("host-a", store, 10)
	a.PeerCacheTTL = 5 * time.Millisecond
	// Several lease TTLs pass; the beating host must keep receiving
	// forwards the whole time.
	deadline := time.Now().Add(150 * time.Millisecond)
	for time.Now().Before(deadline) {
		d, err := a.Schedule("fn")
		if err != nil {
			t.Fatal(err)
		}
		if d.Placement != PlaceForward || d.TargetHost != "host-b" {
			t.Fatalf("beating peer dropped: %+v", d)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestHeartbeatReassertsEvictedWarmEntry(t *testing.T) {
	store := kvs.NewEngine()
	b := New("host-b", store, 10)
	b.LeaseTTL = 30 * time.Millisecond
	b.Schedule("fn")
	b.NoteWarm("fn", 1)
	b.StartHeartbeat()
	defer b.StopHeartbeat()
	// Simulate a peer wrongly evicting host-b (e.g. a pause expired the
	// lease): the next beat must put the entry back.
	store.SRem("sched/warm/fn", "host-b")
	deadline := time.Now().Add(500 * time.Millisecond)
	for {
		hosts, _ := store.SMembers("sched/warm/fn")
		if len(hosts) == 1 && hosts[0] == "host-b" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("warm entry not re-asserted by heartbeat: %v", hosts)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStopHeartbeatLetsLeaseExpire(t *testing.T) {
	store := kvs.NewEngine()
	b := New("host-b", store, 10)
	b.LeaseTTL = 30 * time.Millisecond
	b.Schedule("fn")
	b.NoteWarm("fn", 1)
	b.StartHeartbeat()
	b.StopHeartbeat()

	a := New("host-a", store, 10)
	a.PeerCacheTTL = 5 * time.Millisecond
	time.Sleep(50 * time.Millisecond)
	if d, _ := a.Schedule("fn"); d.Placement != PlaceLocalCold {
		t.Fatalf("stopped host still receives forwards: %+v", d)
	}
}

// offsetClock skews a host's view of wall time by a fixed delta; Sleep is
// real. It models a cluster machine whose clock drifted.
type offsetClock struct{ d time.Duration }

func (c offsetClock) Now() time.Time        { return time.Now().Add(c.d) }
func (c offsetClock) Sleep(d time.Duration) { time.Sleep(d) }

// TestClockSkewDoesNotAffectLiveness is the tier-clock regression test:
// hosts whose clocks disagree by 10× the lease TTL must neither falsely
// evict a live peer nor retain a killed one past ~1 TTL. The lease is a
// SetEx'd presence key judged only on the tier's clock, so host clocks
// cannot enter the decision. Against the previous writer-clock design —
// the writer stamped its own expiry instant and observers compared it to
// their clock — this test fails on both counts: the fast observer below
// would judge every stamp long expired (false eviction), and a slow
// observer would keep a dead host's stamp "live" for ~11 TTLs.
func TestClockSkewDoesNotAffectLiveness(t *testing.T) {
	store := kvs.NewEngine()
	const ttl = 50 * time.Millisecond
	const skew = 10 * ttl

	b := New("host-b", store, 10)
	b.LeaseTTL = ttl
	b.SetClock(offsetClock{-skew}) // writer runs 10 TTLs behind
	b.Schedule("fn")
	b.NoteWarm("fn", 1)
	b.StartHeartbeat()
	defer b.StopHeartbeat()

	a := New("host-a", store, 10)
	a.LeaseTTL = ttl
	a.PeerCacheTTL = 5 * time.Millisecond
	a.SetClock(offsetClock{+skew}) // observer runs 10 TTLs ahead

	// No false eviction: across several lease TTLs the far-ahead observer
	// keeps forwarding to the far-behind (but beating) writer.
	deadline := time.Now().Add(4 * ttl)
	for time.Now().Before(deadline) {
		d, err := a.Schedule("fn")
		if err != nil {
			t.Fatal(err)
		}
		if d.Placement != PlaceForward || d.TargetHost != "host-b" {
			t.Fatalf("clock skew evicted a live peer: %+v", d)
		}
		time.Sleep(ttl / 10)
	}

	// No retention: the killed host's lease expires on the tier's clock,
	// so it drains in ~1 TTL regardless of anyone's skew.
	b.StopHeartbeat()
	time.Sleep(2 * ttl)
	d, err := a.Schedule("fn")
	if err != nil {
		t.Fatal(err)
	}
	if d.Placement != PlaceLocalCold {
		t.Fatalf("killed host retained past its lease under clock skew: %+v", d)
	}
}

// TestLeaseRecordIsTierJudged pins the lease format: a SetEx'd presence
// marker with a tier-side TTL and nothing a clock comparison could latch
// onto.
func TestLeaseRecordIsTierJudged(t *testing.T) {
	store := kvs.NewEngine()
	b := New("host-b", store, 10)
	b.LeaseTTL = time.Second
	b.Schedule("fn")
	rec, err := store.Get("sched/alive/host-b")
	if err != nil || len(rec) == 0 {
		t.Fatalf("no lease written: %q %v", rec, err)
	}
	if _, err := strconv.ParseInt(string(rec), 10, 64); err == nil {
		t.Fatalf("lease record %q parses as a clock stamp; liveness must be tier-judged", rec)
	}
	ttl, err := store.TTL("sched/alive/host-b")
	if err != nil || ttl <= 0 || ttl > time.Second {
		t.Fatalf("lease ttl = %v %v, want a tier-side expiry in (0, 1s]", ttl, err)
	}
}

// TestLegacyStampRecordReadsDead pins the removal of the one-release
// mixed-version fallback: an old-format writer-clock stamp (a plain-Set
// decimal unix-nanos record that never expires tier-side) no longer counts
// as presence — only the current leaseMark payload does.
func TestLegacyStampRecordReadsDead(t *testing.T) {
	store := kvs.NewEngine()
	// A legacy host advertised and stamped its lease the old way.
	store.SAdd("sched/warm/fn", "host-legacy")
	store.Set("sched/alive/host-legacy", []byte("1700000000000000000"))

	a := New("host-a", store, 10)
	hosts, err := a.WarmHosts("fn")
	if err != nil || len(hosts) != 0 {
		t.Fatalf("legacy-stamped host counted live: %v %v", hosts, err)
	}
}

func TestWeightedForwardPrefersFastPeer(t *testing.T) {
	store := kvs.NewEngine()
	for _, h := range []string{"host-b", "host-c"} {
		p := New(h, store, 10)
		p.Schedule("fn")
		p.NoteWarm("fn", 1)
	}
	a := New("host-a", store, 10)
	// Probe both peers: b is 10x faster than c.
	a.ForwardBegin("host-b")
	a.ForwardEnd("host-b", time.Millisecond, true)
	a.ForwardBegin("host-c")
	a.ForwardEnd("host-c", 10*time.Millisecond, true)
	for i := 0; i < 20; i++ {
		d, err := a.Schedule("fn")
		if err != nil {
			t.Fatal(err)
		}
		if d.Placement != PlaceForward || d.TargetHost != "host-b" {
			t.Fatalf("forward %d went to %q, want fast host-b", i, d.TargetHost)
		}
	}
}

func TestWeightedForwardAvoidsLoadedPeer(t *testing.T) {
	store := kvs.NewEngine()
	for _, h := range []string{"host-b", "host-c"} {
		p := New(h, store, 10)
		p.Schedule("fn")
		p.NoteWarm("fn", 1)
	}
	a := New("host-a", store, 10)
	a.ForwardBegin("host-b")
	a.ForwardEnd("host-b", time.Millisecond, true)
	a.ForwardBegin("host-c")
	a.ForwardEnd("host-c", 2*time.Millisecond, true)
	// Pile in-flight forwards onto the faster peer: score must flip to c.
	for i := 0; i < 4; i++ {
		a.ForwardBegin("host-b")
	}
	d, _ := a.Schedule("fn")
	if d.TargetHost != "host-c" {
		t.Fatalf("loaded fast peer still picked over idle slower one: %+v", d)
	}
	// Load drains: the fast peer wins again.
	for i := 0; i < 4; i++ {
		a.ForwardEnd("host-b", time.Millisecond, true)
	}
	d, _ = a.Schedule("fn")
	if d.TargetHost != "host-b" {
		t.Fatalf("drained fast peer not reselected: %+v", d)
	}
}

func TestUnprobedPeerExploredBeforeProbed(t *testing.T) {
	store := kvs.NewEngine()
	for _, h := range []string{"host-b", "host-c"} {
		p := New(h, store, 10)
		p.Schedule("fn")
		p.NoteWarm("fn", 1)
	}
	a := New("host-a", store, 10)
	// Only host-b probed (and fast): the never-probed host-c must still be
	// explored rather than starved.
	a.ForwardBegin("host-b")
	a.ForwardEnd("host-b", time.Microsecond, true)
	d, _ := a.Schedule("fn")
	if d.TargetHost != "host-c" {
		t.Fatalf("unprobed peer not explored: %+v", d)
	}
}

func TestForwardFailurePenalisesPeer(t *testing.T) {
	store := kvs.NewEngine()
	for _, h := range []string{"host-b", "host-c"} {
		p := New(h, store, 10)
		p.Schedule("fn")
		p.NoteWarm("fn", 1)
	}
	a := New("host-a", store, 10)
	a.ForwardBegin("host-b")
	a.ForwardEnd("host-b", time.Millisecond, true)
	a.ForwardBegin("host-c")
	a.ForwardEnd("host-c", 2*time.Millisecond, true)
	// host-b starts failing: its score inflates past host-c's.
	a.ForwardBegin("host-b")
	a.ForwardEnd("host-b", time.Millisecond, false)
	d, _ := a.Schedule("fn")
	if d.TargetHost != "host-c" {
		t.Fatalf("failing peer still preferred: %+v", d)
	}
}

func TestFastFailureDoesNotScoreDeadPeerBest(t *testing.T) {
	store := kvs.NewEngine()
	for _, h := range []string{"host-b", "host-c"} {
		p := New(h, store, 10)
		p.Schedule("fn")
		p.NoteWarm("fn", 1)
	}
	a := New("host-a", store, 10)
	a.ForwardBegin("host-b")
	a.ForwardEnd("host-b", time.Millisecond, true)
	// host-c dies and refuses connections instantly: the near-zero failed
	// round-trip must not become the best latency estimate in the cluster.
	a.ForwardBegin("host-c")
	a.ForwardEnd("host-c", time.Nanosecond, false)
	if got := a.PeerLatency("host-c"); got < 8*time.Millisecond {
		t.Fatalf("fast failure scored dead peer at %v, want >= 8ms floor", got)
	}
	for i := 0; i < 20; i++ {
		d, err := a.Schedule("fn")
		if err != nil {
			t.Fatal(err)
		}
		if d.TargetHost != "host-b" {
			t.Fatalf("forward %d picked fast-failing dead peer: %+v", i, d)
		}
	}
}

// --- Drain mode (graceful host removal) ---

func TestDrainRetreatsFromWarmSetsAndStopsAdvertising(t *testing.T) {
	store := kvs.NewEngine()
	b := New("host-b", store, 10)
	b.Schedule("fn")
	b.NoteWarm("fn", 1)
	b.Schedule("gn")
	b.NoteWarm("gn", 1)
	if err := b.Drain(); err != nil {
		t.Fatal(err)
	}
	if !b.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	for _, fn := range []string{"fn", "gn"} {
		raw, _ := store.SMembers("sched/warm/" + fn)
		for _, h := range raw {
			if h == "host-b" {
				t.Fatalf("draining host still in %s warm set: %v", fn, raw)
			}
		}
	}
	// Post-drain warm churn must not re-advertise: a draining host never
	// re-attracts traffic.
	b.NoteWarm("fn", 1)
	if b.Advertised("fn") {
		t.Fatal("NoteWarm re-advertised a draining host")
	}
	raw, _ := store.SMembers("sched/warm/fn")
	if len(raw) != 0 {
		t.Fatalf("draining host re-entered warm set: %v", raw)
	}
	// Drain is idempotent.
	if err := b.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainingHostForwardsNewCallsAway(t *testing.T) {
	store := kvs.NewEngine()
	b := New("host-b", store, 10)
	b.Schedule("fn")
	b.NoteWarm("fn", 1)

	a := New("host-a", store, 10)
	a.Schedule("fn")
	a.NoteWarm("fn", 1)
	a.Drain()
	// Even with warm Faaslets of its own, the draining host hands new calls
	// to the live peer.
	d, err := a.Schedule("fn")
	if err != nil {
		t.Fatal(err)
	}
	if d.Placement != PlaceForward || d.TargetHost != "host-b" {
		t.Fatalf("draining host kept the call: %+v", d)
	}
}

func TestDrainingHostWithNoPeersStillExecutes(t *testing.T) {
	store := kvs.NewEngine()
	a := New("host-a", store, 10)
	a.Schedule("fn")
	a.NoteWarm("fn", 1)
	a.Drain()
	// Last host standing: executing beats failing the call — but it must
	// not advertise while doing so.
	d, err := a.Schedule("fn")
	if err != nil {
		t.Fatal(err)
	}
	if d.Placement == PlaceForward {
		t.Fatalf("peerless draining host forwarded: %+v", d)
	}
	if raw, _ := store.SMembers("sched/warm/fn"); len(raw) != 0 {
		t.Fatalf("peerless draining execution advertised: %v", raw)
	}
}

func TestDrainedLeaseExpiresWithinOneTTL(t *testing.T) {
	store := kvs.NewEngine()
	const ttl = 40 * time.Millisecond
	b := New("host-b", store, 10)
	b.LeaseTTL = ttl
	b.Schedule("fn")
	b.NoteWarm("fn", 1)
	b.StartHeartbeat()
	if rec, _ := store.Get("sched/alive/host-b"); len(rec) == 0 {
		t.Fatal("no lease before drain")
	}
	b.Drain()
	// Heartbeat is a hard no-op now — even called by hand it must not
	// re-arm the lease.
	if err := b.Heartbeat(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(ttl + ttl/2)
	if rec, _ := store.Get("sched/alive/host-b"); len(rec) != 0 {
		t.Fatalf("drained host's lease still live past 1 TTL: %q", rec)
	}
	// And a peer no longer sees it as warm anywhere.
	a := New("host-a", store, 10)
	if hosts, _ := a.WarmHosts("fn"); len(hosts) != 0 {
		t.Fatalf("drained host still warm-visible: %v", hosts)
	}
}

func TestRepeatedFailuresSaturateInsteadOfOverflowing(t *testing.T) {
	store := kvs.NewEngine()
	a := New("host-a", store, 10)
	for i := 0; i < 100; i++ {
		a.ForwardBegin("host-b")
		a.ForwardEnd("host-b", time.Millisecond, false)
	}
	got := a.PeerLatency("host-b")
	if got <= 0 || got > time.Hour {
		t.Fatalf("failure penalty overflowed: estimate = %v", got)
	}
}
