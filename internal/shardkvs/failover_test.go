package shardkvs_test

// Failure-path tests for the ring: failover reads, quorum writes, suspect
// marking, the reachability probe, read-repair, and the chaos gate (kill and
// revive a shard under mixed traffic with zero failed client operations).

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
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
	faults  map[string]*simnet.FaultShard
	engines map[string]*kvs.Engine
}

func newFaultRing(t *testing.T, n int, opts shardkvs.Options) *faultRing {
	t.Helper()
	fr := &faultRing{
		faults:  map[string]*simnet.FaultShard{},
		engines: map[string]*kvs.Engine{},
	}
	shards := make([]shardkvs.Shard, n)
	for i := range shards {
		id := fmt.Sprintf("shard-%d", i)
		fr.engines[id] = kvs.NewEngine()
		fr.faults[id] = simnet.NewFaultShard(fr.engines[id])
		shards[i] = shardkvs.Shard{ID: id, Store: fr.faults[id]}
	}
	fr.ring = newRing(t, opts, shards...)
	t.Cleanup(func() { fr.ring.Close() })
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
	fr := newFaultRing(t, 3, shardkvs.Options{Replication: 2})
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

// faasm-cli builds its ring with nothing but the replication factor. Read
// failover needs no option: every read path — Get, MGet, TTL — answers from
// the replica when the primary's shard crashes.
func TestCLIRingOptionsFailOver(t *testing.T) {
	fr := newFaultRing(t, 3, shardkvs.Options{Replication: 2})
	if err := fr.ring.SetEx("k", []byte("v"), time.Minute); err != nil {
		t.Fatal(err)
	}
	fr.faults[fr.ring.Owners("k")[0]].Crash()
	if v, err := fr.ring.Get("k"); err != nil || string(v) != "v" {
		t.Fatalf("get with dead primary: %q, %v", v, err)
	}
	if vs, err := fr.ring.MGet([]string{"k"}); err != nil || string(vs[0]) != "v" {
		t.Fatalf("mget with dead primary: %q, %v", vs, err)
	}
	if d, err := fr.ring.TTL("k"); err != nil || d <= 0 {
		t.Fatalf("ttl with dead primary: %v, %v", d, err)
	}
	if st := fr.ring.FailureStats(); st.Failovers < 1 {
		t.Fatalf("reads served by the replica must count as failovers: %+v", st)
	}
}

// With R = 1 there is no other copy to fail over to: a dead shard's
// unavailability error surfaces from the read.
func TestReadFailoverOffSurfacesError(t *testing.T) {
	fr := newFaultRing(t, 3, shardkvs.Options{})
	if err := fr.ring.Set("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	fr.faults[fr.ring.Owners("k")[0]].Crash()
	if _, err := fr.ring.Get("k"); !kvs.IsUnavailable(err) {
		t.Fatalf("an unreplicated key's dead shard must surface: %v", err)
	}
	if st := fr.ring.FailureStats(); st.Failovers != 0 {
		t.Fatalf("no copy to fail over to, yet failovers counted: %+v", st)
	}
}

// probeCounter counts every call that reaches a shard, and AllKeys calls
// separately.
type probeCounter struct {
	*kvstest.CountingStore
	allKeys atomic.Int64
}

func (p *probeCounter) AllKeys() ([]kvs.KeyInfo, error) {
	p.allKeys.Add(1)
	return p.CountingStore.AllKeys()
}

// Probe is one read per shard, whatever the shards hold: it never lists
// keys, and it names the shard that does not answer.
func TestProbeReadsOncePerShard(t *testing.T) {
	counters := map[string]*probeCounter{}
	faults := map[string]*simnet.FaultShard{}
	var shards []shardkvs.Shard
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("shard-%d", i)
		faults[id] = simnet.NewFaultShard(kvs.NewEngine())
		counters[id] = &probeCounter{CountingStore: kvstest.NewCountingStore(faults[id])}
		shards = append(shards, shardkvs.Shard{ID: id, Store: counters[id]})
	}
	r := newRing(t, shardkvs.Options{Replication: 2}, shards...)
	for i := 0; i < 50; i++ {
		if err := r.Set(fmt.Sprintf("k-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range counters {
		c.ResetOps()
	}
	if err := r.Probe(); err != nil {
		t.Fatalf("probe of a healthy tier: %v", err)
	}
	faults["shard-1"].Crash()
	err := r.Probe()
	if !kvs.IsUnavailable(err) || !strings.Contains(err.Error(), "shard-1") {
		t.Fatalf("probe with shard-1 down: %v, want it named", err)
	}
	for id, c := range counters {
		if c.Ops() != 2 || c.allKeys.Load() != 0 {
			t.Fatalf("%s: %d calls and %d AllKeys over two probes, want 2 and 0", id, c.Ops(), c.allKeys.Load())
		}
	}
}

func TestQuorumWriteSurvivesDeadReplica(t *testing.T) {
	fr := newFaultRing(t, 3, shardkvs.Options{Replication: 2, WriteQuorum: 1})
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
	fr := newFaultRing(t, 3, shardkvs.Options{Replication: 2, WriteQuorum: 1})
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
	fr := newFaultRing(t, 3, shardkvs.Options{Replication: 2, WriteQuorum: 1, HealInterval: 5 * time.Millisecond})
	r, engines, target := fr.ring, fr.engines, fr.faults["shard-0"]
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
		Replication: 2,
		WriteQuorum: 1,
		ReadPref:    shardkvs.ReadAny,
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

// Heal migrates entries onto a revived shard with their remaining
// lifetime: the shard gets no key its in-sync copies already expired, a
// lease with no more than its in-sync copy's TTL, and a persistent key
// without expiry.
func TestMigrationCarriesTTLs(t *testing.T) {
	fr := newFaultRing(t, 2, shardkvs.Options{Replication: 2, WriteQuorum: 1})
	r := fr.ring
	fr.faults["shard-0"].Crash()
	// Written while shard-0 is down: only shard-1 holds them.
	if err := r.SetEx("expired", []byte("stale"), 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := r.SetEx("leased", []byte("live"), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := r.Set("forever", []byte("keep")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // "expired" is past its deadline, possibly unswept

	fr.faults["shard-0"].Restore()
	stats, err := r.Heal()
	if err != nil {
		t.Fatal(err)
	}
	if st := r.FailureStats(); st.Suspects != 0 || stats.CopiesWritten < 2 {
		t.Fatalf("heal must re-sync the revived shard: %+v, %+v", st, stats)
	}
	revived, synced := fr.engines["shard-0"], fr.engines["shard-1"]

	// The expired key is on no shard.
	for id, eng := range fr.engines {
		if v, _ := eng.Get("expired"); v != nil {
			t.Fatalf("expired key readable on %s: %q", id, v)
		}
		infos, err := eng.AllKeys()
		if err != nil {
			t.Fatal(err)
		}
		for _, ki := range infos {
			if ki.Key == "expired" {
				t.Fatalf("expired key enumerated on %s after heal", id)
			}
		}
	}
	// The persistent key stayed persistent.
	if v, _ := revived.Get("forever"); string(v) != "keep" {
		t.Fatalf("persistent key on the revived shard: %q", v)
	}
	if d, _ := revived.TTL("forever"); d != kvs.TTLPersistent {
		t.Fatalf("persistent key ttl after heal = %v", d)
	}
	// The lease travelled with its remaining TTL: the revived copy expires
	// no later than the in-sync one.
	if v, _ := revived.Get("leased"); string(v) != "live" {
		t.Fatalf("leased key on the revived shard: %q", v)
	}
	want, _ := synced.TTL("leased")
	if got, _ := revived.TTL("leased"); got <= 0 || got > want+5*time.Millisecond {
		t.Fatalf("revived lease ttl = %v, want in (0, %v]", got, want)
	}
}

// A lease Heal copies onto a revived shard still expires at its original
// deadline: the copy carries the remaining TTL, not a fresh one of the
// original length.
func TestMigrationDoesNotExtendLeases(t *testing.T) {
	const lease = 400 * time.Millisecond
	fr := newFaultRing(t, 2, shardkvs.Options{Replication: 2, WriteQuorum: 1})
	r := fr.ring
	fr.faults["shard-0"].Crash()
	leaseDeadline := time.Now().Add(lease)
	if err := r.SetEx("leased", []byte("live"), lease); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)

	fr.faults["shard-0"].Restore()
	if _, err := r.Heal(); err != nil {
		t.Fatal(err)
	}
	revived := fr.engines["shard-0"]
	if v, _ := revived.Get("leased"); string(v) != "live" {
		t.Fatalf("heal did not copy the lease onto the revived shard: %q", v)
	}
	time.Sleep(time.Until(leaseDeadline) + 50*time.Millisecond)
	if v, _ := revived.Get("leased"); v != nil {
		t.Fatalf("lease outlived its original deadline on the revived shard: %q", v)
	}
	if v, _ := r.Get("leased"); v != nil {
		t.Fatalf("lease outlived its original deadline on the ring: %q", v)
	}
}

// TestExpiryRacesHeal runs SetEx/Set/Get/TTL traffic against a shard that
// crashes, revives and is healed over and over, with expiry sweepers
// running. Run under -race in CI: the sweeper timers, Heal's
// enumerate-then-copy and the failover reads must all stay race-clean.
func TestExpiryRacesHeal(t *testing.T) {
	fr := newFaultRing(t, 3, shardkvs.Options{Replication: 2, WriteQuorum: 1})
	r := fr.ring
	for _, eng := range fr.engines {
		eng.SetSweepInterval(time.Millisecond)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	key := func(i int) string { return fmt.Sprintf("exp-%d", i%24) }
	loop := func(fn func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := fn(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	loop(func(i int) error { // expiring writes, some overwritten persistent
		r.SetEx(key(i), []byte("v"), time.Duration(2+i%6)*time.Millisecond)
		if i%9 == 0 {
			r.Set(key(i), []byte("p"))
		}
		return nil
	})
	loop(func(i int) error { // readers
		r.Get(key(i))
		r.TTL(key(i))
		return nil
	})
	loop(func(i int) error { // shard-2 dies, revives and is healed
		fr.faults["shard-2"].Crash()
		time.Sleep(time.Millisecond)
		fr.faults["shard-2"].Restore()
		_, err := r.Heal()
		return err
	})

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// Heal works when shards are only reachable through the wire protocol: KEYS
// enumeration and copies over TCP bring a revived shard back to parity.
func TestHealOverTCPNodes(t *testing.T) {
	var shards []shardkvs.Shard
	faults := map[string]*simnet.FaultShard{}
	for _, s := range tcpShards(t, 3) {
		faults[s.ID] = simnet.NewFaultShard(s.Store)
		shards = append(shards, shardkvs.Shard{ID: s.ID, Store: faults[s.ID]})
	}
	r := newRing(t, shardkvs.Options{Replication: 2, WriteQuorum: 1}, shards...)
	want := seedRing(t, r, 100)
	faults["tcp-0"].Crash()
	for k := range want {
		want[k] = []byte("after-" + k)
		if err := r.Set(k, want[k]); err != nil {
			t.Fatal(err)
		}
	}
	faults["tcp-0"].Restore()
	if _, err := r.Heal(); err != nil {
		t.Fatal(err)
	}
	if st := r.FailureStats(); st.Suspects != 0 || st.Repairs != 1 {
		t.Fatalf("after heal: %+v", st)
	}
	verifyRing(t, r, want)
	for k, v := range want {
		for _, id := range r.Owners(k) {
			if got, err := faults[id].Get(k); err != nil || !bytes.Equal(got, v) {
				t.Fatalf("%s on %s after heal: %q, %v", k, id, got, err)
			}
		}
	}
}
