package shardkvs_test

// Failure-path tests for the ring: failover reads, quorum writes, suspect
// marking, read-repair, and the chaos gate (kill and revive a shard under
// mixed traffic with zero failed client operations).

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/kvs/kvstest"
	"faasm.dev/faasm/internal/shardkvs"
	"faasm.dev/faasm/internal/simnet"
)

// faultRing is a ring whose every shard is an engine behind fault injection.
type faultRing struct {
	ring    *shardkvs.Ring
	faults  map[string]*kvstest.FaultStore
	engines map[string]*kvs.Engine
}

func newFaultRing(t *testing.T, shards int, opts shardkvs.Options) *faultRing {
	t.Helper()
	fr := &faultRing{
		ring:    shardkvs.New(opts),
		faults:  map[string]*kvstest.FaultStore{},
		engines: map[string]*kvs.Engine{},
	}
	for i := 0; i < shards; i++ {
		id := fmt.Sprintf("shard-%d", i)
		eng := kvs.NewEngine()
		f := kvstest.NewFaultStore(eng)
		if err := fr.ring.Attach(id, f); err != nil {
			t.Fatal(err)
		}
		fr.faults[id] = f
		fr.engines[id] = eng
	}
	return fr
}

// ownerParity asserts every owner's engine holds exactly want for key (nil
// want means the key must be absent everywhere it is owned).
func (fr *faultRing) ownerParity(t *testing.T, key string, want []byte) {
	t.Helper()
	for _, id := range fr.ring.Owners(key) {
		got, err := fr.engines[id].Get(key)
		if err != nil {
			t.Fatalf("parity %s on %s: %v", key, id, err)
		}
		if string(got) != string(want) {
			t.Fatalf("parity %s on %s: got %q, want %q", key, id, got, want)
		}
	}
}

// The ring itself must satisfy the fault-conformance contract every plain
// backend satisfies: injected errors surface, crashes are distinguishable
// from semantic rejections, partial batches report failure.
func TestRingFaultConformance(t *testing.T) {
	kvstest.RunFaults(t, func(t *testing.T) kvs.Store {
		return shardkvs.NewLocal(3, shardkvs.Options{Replication: 2})
	})
}

func TestReadFailoverServesFromReplica(t *testing.T) {
	fr := newFaultRing(t, 3, shardkvs.Options{Replication: 2, ReadFailover: true})
	if err := fr.ring.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	primary := fr.ring.Owners("k")[0]
	fr.faults[primary].Crash()
	// First read trips over the dead primary, fails over, and marks it
	// suspect; later reads skip it outright.
	for i := 0; i < 3; i++ {
		v, err := fr.ring.Get("k")
		if err != nil || string(v) != "v" {
			t.Fatalf("read %d with dead primary: %q, %v", i, v, err)
		}
	}
	if st := fr.ring.FailureStats(); st.Failovers == 0 || st.Suspects != 1 {
		t.Fatalf("want failovers > 0 and one suspect, got %+v", st)
	}
	for _, h := range fr.ring.Health() {
		if h.ID == primary && (!h.Suspect || h.Failures == 0) {
			t.Fatalf("dead primary not reported suspect: %+v", h)
		}
	}
}

func TestReadFailoverOffSurfacesError(t *testing.T) {
	fr := newFaultRing(t, 3, shardkvs.Options{Replication: 2})
	if err := fr.ring.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	fr.faults[fr.ring.Owners("k")[0]].Crash()
	if _, err := fr.ring.Get("k"); !kvs.IsUnavailable(err) {
		t.Fatalf("with failover off a dead primary must surface: %v", err)
	}
}

func TestQuorumWriteSurvivesDeadReplica(t *testing.T) {
	fr := newFaultRing(t, 3, shardkvs.Options{Replication: 2, WriteQuorum: 1, ReadFailover: true})
	if err := fr.ring.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	owners := fr.ring.Owners("k")
	fr.faults[owners[1]].Crash()
	if err := fr.ring.Set("k", []byte("v2")); err != nil {
		t.Fatalf("W=1 write with one dead copy: %v", err)
	}
	if v, err := fr.ring.Get("k"); err != nil || string(v) != "v2" {
		t.Fatalf("read after quorum write: %q, %v", v, err)
	}
	st := fr.ring.FailureStats()
	if st.Divergence == 0 {
		t.Fatalf("partial acknowledgement must count as divergence: %+v", st)
	}
	if st.Suspects != 1 {
		t.Fatalf("dead replica must be suspect: %+v", st)
	}
}

func TestStrictQuorumFailsWithDeadReplica(t *testing.T) {
	fr := newFaultRing(t, 3, shardkvs.Options{Replication: 2}) // WriteQuorum 0 = all
	if err := fr.ring.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	owners := fr.ring.Owners("k")
	fr.faults[owners[1]].Crash()
	err := fr.ring.Set("k", []byte("v2"))
	if !kvs.IsUnavailable(err) {
		t.Fatalf("strict quorum with a dead copy must fail unavailable: %v", err)
	}
	if !strings.Contains(err.Error(), owners[1]) {
		t.Fatalf("error must name the failed copy %s: %v", owners[1], err)
	}
}

func TestWriteErrorAggregatesAllCopies(t *testing.T) {
	fr := newFaultRing(t, 3, shardkvs.Options{Replication: 2})
	if err := fr.ring.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	owners := fr.ring.Owners("k")
	for _, id := range owners {
		fr.faults[id].Crash()
	}
	err := fr.ring.Set("k", []byte("v2"))
	if err == nil {
		t.Fatal("write with every copy dead must fail")
	}
	for _, id := range owners {
		if !strings.Contains(err.Error(), id) {
			t.Fatalf("aggregated error must name copy %s: %v", id, err)
		}
	}
}

func TestHealRepairsRevivedShard(t *testing.T) {
	fr := newFaultRing(t, 3, shardkvs.Options{Replication: 2, WriteQuorum: 1, ReadFailover: true})
	r := fr.ring

	// Seed values, a set, and a counter across the ring, plus one key that
	// will be deleted while a holder is down.
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = fmt.Sprintf("k-%d", i)
		if err := r.Set(keys[i], []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.SAdd("members", "alpha"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SAdd("members", "stale"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Incr("ctr", 5); err != nil {
		t.Fatal(err)
	}

	const target = "shard-0"
	fr.faults[target].Crash()

	// Mutate everything while the shard is down: W=1 keeps the writes
	// succeeding on the surviving copies.
	for _, k := range keys[1:] {
		if err := r.Set(k, []byte("v2")); err != nil {
			t.Fatalf("write during outage: %v", err)
		}
	}
	if err := r.Delete(keys[0]); err != nil {
		t.Fatalf("delete during outage: %v", err)
	}
	if _, err := r.SRem("members", "stale"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.SAdd("members", "beta"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Incr("ctr", 7); err != nil {
		t.Fatal(err)
	}

	// While the shard is down Heal must leave it suspect, not wedge.
	if _, err := r.Heal(); err != nil {
		t.Fatalf("heal with shard still down: %v", err)
	}
	if st := r.FailureStats(); st.Suspects != 1 {
		t.Fatalf("unreachable shard must stay suspect: %+v", st)
	}

	fr.faults[target].Restore()
	stats, err := r.Heal()
	if err != nil {
		t.Fatalf("heal after restore: %v", err)
	}
	if stats.CopiesWritten == 0 {
		t.Fatalf("repair must have re-synced entries: %+v", stats)
	}
	st := r.FailureStats()
	if st.Repairs == 0 || st.Suspects != 0 {
		t.Fatalf("after heal: want repairs > 0 and no suspects, got %+v", st)
	}

	// Every copy of every entry agrees again, including on the revived shard.
	for _, k := range keys[1:] {
		fr.ownerParity(t, k, []byte("v2"))
	}
	fr.ownerParity(t, keys[0], nil) // the delete reached the revived holder
	for _, id := range r.Owners("members") {
		m, err := fr.engines[id].SMembers("members")
		if err != nil {
			t.Fatal(err)
		}
		if len(m) != 2 || m[0] != "alpha" || m[1] != "beta" {
			t.Fatalf("set on %s after heal: %v", id, m)
		}
	}
	for _, id := range r.Owners("ctr") {
		n, err := fr.engines[id].Incr("ctr", 0)
		if err != nil {
			t.Fatal(err)
		}
		if n != 12 {
			t.Fatalf("counter on %s after heal: %d, want 12", id, n)
		}
	}
}

// With HealInterval set, the background loop alone re-syncs a revived shard:
// no explicit Heal call brings the ring back to no suspects and every copy
// to parity.
func TestHealLoopRepairsRevivedShard(t *testing.T) {
	r := shardkvs.New(shardkvs.Options{Replication: 2, WriteQuorum: 1, ReadFailover: true, HealInterval: 5 * time.Millisecond})
	defer r.Close()
	engines := map[string]*kvs.Engine{}
	var target *simnet.FaultShard
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("shard-%d", i)
		engines[id] = kvs.NewEngine()
		f := simnet.NewFaultShard(engines[id], nil)
		if err := r.Attach(id, f); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			target = f
		}
	}
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = fmt.Sprintf("k-%d", i)
		if err := r.Set(keys[i], []byte("v1")); err != nil {
			t.Fatal(err)
		}
	}

	target.Crash()
	for _, k := range keys {
		if err := r.Set(k, []byte("v2")); err != nil {
			t.Fatalf("W=1 write during outage: %v", err)
		}
	}
	if st := r.FailureStats(); st.Suspects != 1 {
		t.Fatalf("the writes never reached the crashed shard: %+v", st)
	}

	target.Restore()
	for deadline := time.Now().Add(10 * time.Second); r.FailureStats().Suspects != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("heal loop left the revived shard suspect: %+v", r.FailureStats())
		}
		time.Sleep(time.Millisecond)
	}
	if st := r.FailureStats(); st.Repairs == 0 {
		t.Fatalf("suspect cleared with no repair: %+v", st)
	}
	for _, k := range keys {
		for _, id := range r.Owners(k) {
			if got, err := engines[id].Get(k); err != nil || string(got) != "v2" {
				t.Fatalf("%s on %s after the heal loop: %q, %v", k, id, got, err)
			}
		}
	}
}

// TestChaosShardCrashUnderTraffic is the PR's chaos gate: with R=2, W=1,
// failover reads, one shard killed and revived under mixed concurrent
// traffic, no client operation may fail, failovers must be observed, and
// after Heal the revived shard is back at parity with its peers.
func TestChaosShardCrashUnderTraffic(t *testing.T) {
	fr := newFaultRing(t, 3, shardkvs.Options{
		Replication:  2,
		WriteQuorum:  1,
		ReadPref:     shardkvs.ReadAny,
		ReadFailover: true,
	})
	r := fr.ring

	const workers = 4
	const iters = 300
	const slots = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 1; i <= iters; i++ {
				key := fmt.Sprintf("chaos-%d-%d", w, i%slots)
				if err := r.Set(key, []byte(fmt.Sprintf("v-%d", i))); err != nil {
					t.Errorf("set %s: %v", key, err)
					return
				}
				if _, err := r.Get(key); err != nil {
					t.Errorf("get %s: %v", key, err)
					return
				}
				if _, err := r.Incr(fmt.Sprintf("ctr-%d", w), 1); err != nil {
					t.Errorf("incr: %v", err)
					return
				}
			}
		}(w)
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	fr.faults["shard-1"].Crash()
	time.Sleep(10 * time.Millisecond)
	fr.faults["shard-1"].Restore()
	wg.Wait()
	if t.Failed() {
		t.Fatal("client operations failed during the shard outage")
	}

	if st := r.FailureStats(); st.Failovers == 0 {
		t.Fatalf("chaos run must observe failovers: %+v", st)
	}
	if _, err := r.Heal(); err != nil {
		t.Fatalf("heal: %v", err)
	}
	if st := r.FailureStats(); st.Suspects != 0 {
		t.Fatalf("after heal no shard may stay suspect: %+v", st)
	}

	// Bounded staleness: after read-repair every copy of every key agrees
	// with the last write.
	for w := 0; w < workers; w++ {
		for s := 0; s < slots; s++ {
			last := 0
			for i := 1; i <= iters; i++ {
				if i%slots == s {
					last = i
				}
			}
			fr.ownerParity(t, fmt.Sprintf("chaos-%d-%d", w, s), []byte(fmt.Sprintf("v-%d", last)))
		}
		for _, id := range r.Owners(fmt.Sprintf("ctr-%d", w)) {
			n, err := fr.engines[id].Incr(fmt.Sprintf("ctr-%d", w), 0)
			if err != nil {
				t.Fatal(err)
			}
			if n != iters {
				t.Fatalf("ctr-%d on %s after heal: %d, want %d", w, id, n, iters)
			}
		}
	}
}

// TestJoinUnderConcurrentWritesStrandsNothing pins the double-write window:
// a Join racing live writers must not strand any update on an old owner —
// after the migration every key reads its last-written value.
func TestJoinUnderConcurrentWritesStrandsNothing(t *testing.T) {
	for _, repl := range []int{1, 2} {
		t.Run(fmt.Sprintf("r%d", repl), func(t *testing.T) {
			r := shardkvs.NewLocal(3, shardkvs.Options{Replication: repl})
			const workers = 4
			const iters = 400
			const slots = 8
			var wg sync.WaitGroup
			start := make(chan struct{})
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					<-start
					for i := 1; i <= iters; i++ {
						key := fmt.Sprintf("mig-%d-%d", w, i%slots)
						if err := r.Set(key, []byte(fmt.Sprintf("v-%d", i))); err != nil {
							t.Errorf("set %s: %v", key, err)
							return
						}
					}
				}(w)
			}
			close(start)
			time.Sleep(time.Millisecond)
			if _, err := r.Join("shard-3", kvs.NewEngine()); err != nil {
				t.Fatalf("join under traffic: %v", err)
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			for w := 0; w < workers; w++ {
				for s := 0; s < slots; s++ {
					last := 0
					for i := 1; i <= iters; i++ {
						if i%slots == s {
							last = i
						}
					}
					key := fmt.Sprintf("mig-%d-%d", w, s)
					v, err := r.Get(key)
					if err != nil || string(v) != fmt.Sprintf("v-%d", last) {
						t.Fatalf("%s after migration: %q, %v (want v-%d)", key, v, err, last)
					}
				}
			}
		})
	}
}

// ttlRecorder records the TTL each SetEx or MSetEx call arms per key (and
// can delay the write), to observe fan-out TTL skew.
type ttlRecorder struct {
	kvs.Store
	delay time.Duration

	mu   sync.Mutex
	ttls map[string]time.Duration
}

func (s *ttlRecorder) record(key string, ttl time.Duration) {
	s.mu.Lock()
	if s.ttls == nil {
		s.ttls = map[string]time.Duration{}
	}
	s.ttls[key] = ttl
	s.mu.Unlock()
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
}

func (s *ttlRecorder) SetEx(key string, val []byte, ttl time.Duration) error {
	s.record(key, ttl)
	return s.Store.SetEx(key, val, ttl)
}

func (s *ttlRecorder) MSetEx(pairs []kvs.Pair, ttl time.Duration) error {
	for _, p := range pairs {
		s.record(p.Key, ttl)
	}
	return s.Store.MSetEx(pairs, ttl)
}

func (s *ttlRecorder) recorded(key string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ttls[key]
}

// TestMSetExFansOutRemainingTTL pins the deadline-skew fix: a slow primary
// must not extend the replicas' leases — each copy arms the TTL remaining at
// the moment its write issues, computed from one shared absolute deadline.
func TestMSetExFansOutRemainingTTL(t *testing.T) {
	r := shardkvs.New(shardkvs.Options{Replication: 2})
	recs := map[string]*ttlRecorder{
		"shard-0": {Store: kvs.NewEngine()},
		"shard-1": {Store: kvs.NewEngine()},
	}
	for id, rec := range recs {
		if err := r.Attach(id, rec); err != nil {
			t.Fatal(err)
		}
	}
	const ttl = 500 * time.Millisecond
	const delay = 40 * time.Millisecond
	owners := r.Owners("lease")
	recs[owners[0]].delay = delay // slow primary
	if err := r.MSetEx([]kvs.Pair{{Key: "lease", Val: []byte("v")}}, ttl); err != nil {
		t.Fatal(err)
	}
	pri := recs[owners[0]].recorded("lease")
	rep := recs[owners[1]].recorded("lease")
	if pri == 0 || rep == 0 {
		t.Fatalf("both copies must have recorded a SetEx: primary %v, replica %v", pri, rep)
	}
	if pri > ttl || rep > ttl {
		t.Fatalf("no copy may arm more than the requested ttl: primary %v, replica %v", pri, rep)
	}
	// The replica wave starts only after the delayed primary committed, so
	// its remaining TTL must be visibly shorter.
	if skew := pri - rep; skew < delay/2 {
		t.Fatalf("replica lease must shrink by the fan-out latency: primary %v, replica %v", pri, rep)
	}
}
