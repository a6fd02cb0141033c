package shardkvs_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/kvs/kvstest"
	"faasm.dev/faasm/internal/shardkvs"
)

// The ring must pass the exact store-conformance suite the engine and TCP
// client pass, across shard counts and replication settings.
func TestRingConformance(t *testing.T) {
	configs := []struct {
		name   string
		shards int
		opts   shardkvs.Options
	}{
		{"1shard", 1, shardkvs.Options{}},
		{"3shards", 3, shardkvs.Options{}},
		{"4shards-r2", 4, shardkvs.Options{Replication: 2}},
		{"4shards-r3-readany", 4, shardkvs.Options{Replication: 3, ReadPref: shardkvs.ReadAny}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			kvstest.Run(t, func(t *testing.T) kvs.Store {
				return shardkvs.NewLocal(cfg.shards, cfg.opts)
			})
		})
	}
}

func TestRingConformanceOverTCP(t *testing.T) {
	kvstest.Run(t, func(t *testing.T) kvs.Store {
		r := shardkvs.New(shardkvs.Options{})
		for i := 0; i < 3; i++ {
			srv, err := kvs.NewServer(kvs.NewEngine(), "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			c := kvs.NewClient(srv.Addr())
			t.Cleanup(func() {
				c.Close()
				srv.Close()
			})
			if _, err := r.Join(fmt.Sprintf("tcp-%d", i), c); err != nil {
				t.Fatal(err)
			}
		}
		return r
	})
}

func seedRing(t *testing.T, r *shardkvs.Ring, nKeys int) map[string][]byte {
	t.Helper()
	want := map[string][]byte{}
	for i := 0; i < nKeys; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v := bytes.Repeat([]byte{byte(i)}, 32+i%97)
		if err := r.Set(k, v); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	// A few non-value structures so migration covers every kind.
	for i := 0; i < 8; i++ {
		if _, err := r.SAdd("warm-hosts", fmt.Sprintf("host-%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Incr(fmt.Sprintf("ctr-%d", i), int64(i)*10+1); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

func verifyRing(t *testing.T, r *shardkvs.Ring, want map[string][]byte) {
	t.Helper()
	for k, v := range want {
		got, err := r.Get(k)
		if err != nil {
			t.Fatalf("get %s: %v", k, err)
		}
		if !bytes.Equal(got, v) {
			t.Fatalf("key %s: got %d bytes, want %d", k, len(got), len(v))
		}
	}
	members, err := r.SMembers("warm-hosts")
	if err != nil || len(members) != 8 {
		t.Fatalf("warm-hosts after rebalance: %v %v", members, err)
	}
	for i := 0; i < 8; i++ {
		v, err := r.Incr(fmt.Sprintf("ctr-%d", i), 0)
		if err != nil || v != int64(i)*10+1 {
			t.Fatalf("ctr-%d after rebalance: %d %v", i, v, err)
		}
	}
}

func TestJoinLeaveZeroLostKeys(t *testing.T) {
	const nKeys = 300
	r := shardkvs.NewLocal(3, shardkvs.Options{})
	want := seedRing(t, r, nKeys)

	stats, err := r.Join("shard-3", kvs.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	if stats.KeysMoved == 0 {
		t.Fatal("join moved nothing — new node owns no ranges?")
	}
	// Rebalance must stream only moved ranges, not the whole keyspace: with
	// 3→4 evenly-loaded shards roughly a quarter of keys move.
	if stats.KeysMoved >= stats.KeysExamined*3/4 {
		t.Fatalf("join moved %d of %d keys — not range-scoped", stats.KeysMoved, stats.KeysExamined)
	}
	verifyRing(t, r, want)

	// The joiner must actually own data now.
	counts, err := r.ShardKeyCounts()
	if err != nil {
		t.Fatal(err)
	}
	if counts["shard-3"] == 0 {
		t.Fatalf("joined shard holds no keys: %v", counts)
	}

	// Graceful leave of an original member: its keys stream out first.
	stats, err = r.Leave("shard-1")
	if err != nil {
		t.Fatal(err)
	}
	if stats.KeysMoved == 0 {
		t.Fatal("leave moved nothing — departing node held no ranges?")
	}
	verifyRing(t, r, want)
	if got := r.NodeIDs(); len(got) != 3 {
		t.Fatalf("nodes after leave: %v", got)
	}
}

func TestJoinLeaveZeroLostKeysReplicated(t *testing.T) {
	r := shardkvs.NewLocal(3, shardkvs.Options{Replication: 2, ReadPref: shardkvs.ReadAny})
	want := seedRing(t, r, 200)
	if _, err := r.Join("shard-3", kvs.NewEngine()); err != nil {
		t.Fatal(err)
	}
	verifyRing(t, r, want)
	if _, err := r.Leave("shard-0"); err != nil {
		t.Fatal(err)
	}
	verifyRing(t, r, want)
}

func TestReplicationPlacesRCopies(t *testing.T) {
	r := shardkvs.New(shardkvs.Options{Replication: 2})
	engines := map[string]*kvs.Engine{}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("shard-%d", i)
		e := kvs.NewEngine()
		engines[id] = e
		if _, err := r.Join(id, e); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("rep-%d", i)
		if err := r.Set(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
		owners := r.Owners(k)
		if len(owners) != 2 {
			t.Fatalf("owners(%s) = %v", k, owners)
		}
		for _, id := range owners {
			v, _ := engines[id].Get(k)
			if string(v) != k {
				t.Fatalf("owner %s missing copy of %s", id, k)
			}
		}
		// Non-owners must not hold the key.
		for id, e := range engines {
			if id == owners[0] || id == owners[1] {
				continue
			}
			if v, _ := e.Get(k); v != nil {
				t.Fatalf("non-owner %s holds %s", id, k)
			}
		}
	}
}

func TestKeyDistributionIsBalanced(t *testing.T) {
	r := shardkvs.NewLocal(4, shardkvs.Options{})
	for i := 0; i < 2000; i++ {
		if err := r.Set(fmt.Sprintf("k-%d", i), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	counts, err := r.ShardKeyCounts()
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range counts {
		// Perfect balance is 500/shard; virtual nodes should keep every
		// shard within a loose band.
		if n < 200 || n > 900 {
			t.Fatalf("shard %s holds %d of 2000 keys: %v", id, n, counts)
		}
	}
}

func TestLockRoutesToPrimary(t *testing.T) {
	r := shardkvs.New(shardkvs.Options{})
	engines := map[string]*kvs.Engine{}
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("shard-%d", i)
		e := kvs.NewEngine()
		engines[id] = e
		if _, err := r.Join(id, e); err != nil {
			t.Fatal(err)
		}
	}
	tok, err := r.Lock("locked-key", true, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The primary engine must refuse a second writer while the ring-held
	// lock is live; a non-owning engine knows nothing of the key.
	primary := engines[r.Owners("locked-key")[0]]
	blocked := make(chan struct{})
	go func() {
		t2, _ := primary.Lock("locked-key", true, time.Second)
		primary.Unlock("locked-key", t2)
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("primary admitted a second writer under the ring's lock")
	case <-time.After(50 * time.Millisecond):
	}
	if err := r.Unlock("locked-key", tok); err != nil {
		t.Fatal(err)
	}
	select {
	case <-blocked:
	case <-time.After(2 * time.Second):
		t.Fatal("ring unlock did not release the primary's lock")
	}
}

func TestEmptyRingErrors(t *testing.T) {
	r := shardkvs.New(shardkvs.Options{})
	if err := r.Set("k", nil); err == nil {
		t.Fatal("write on empty ring succeeded")
	}
	if _, err := r.Get("k"); err == nil {
		t.Fatal("read on empty ring succeeded")
	}
	if _, err := r.Leave("ghost"); err == nil {
		t.Fatal("leave of unknown node succeeded")
	}
}

func TestLastNodeCannotLeave(t *testing.T) {
	r := shardkvs.NewLocal(1, shardkvs.Options{})
	if _, err := r.Leave("shard-0"); err == nil {
		t.Fatal("last node left the ring")
	}
}

func TestRejoinPopulatedTierPreservesData(t *testing.T) {
	// Regression: rebuilding a ring over already-populated shards (what a
	// restarting daemon does) must never destroy data. The old rebalancer
	// reconciled counters against a source that did not hold them, zeroing
	// live counters during the intermediate single-node ring states.
	engines := []*kvs.Engine{kvs.NewEngine(), kvs.NewEngine(), kvs.NewEngine()}
	first := shardkvs.New(shardkvs.Options{})
	for i, e := range engines {
		if err := first.Attach(fmt.Sprintf("shard-%d", i), e); err != nil {
			t.Fatal(err)
		}
	}
	want := seedRing(t, first, 100)

	// Attach path (the client-bootstrap path): zero mutation.
	second := shardkvs.New(shardkvs.Options{})
	for i, e := range engines {
		if err := second.Attach(fmt.Sprintf("shard-%d", i), e); err != nil {
			t.Fatal(err)
		}
	}
	verifyRing(t, second, want)

	// Join path over the same populated stores: sequential joins walk
	// through intermediate ring layouts; data must survive and converge.
	third := shardkvs.New(shardkvs.Options{})
	for i, e := range engines {
		if _, err := third.Join(fmt.Sprintf("shard-%d", i), e); err != nil {
			t.Fatal(err)
		}
	}
	verifyRing(t, third, want)

	// And the original ring still reads everything too.
	verifyRing(t, first, want)
}

func TestRebalanceIsIdempotent(t *testing.T) {
	r := shardkvs.NewLocal(3, shardkvs.Options{Replication: 2})
	want := seedRing(t, r, 120)
	if _, err := r.Join("shard-3", kvs.NewEngine()); err != nil {
		t.Fatal(err)
	}
	stats, err := r.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if stats.KeysMoved != 0 || stats.CopiesDropped != 0 {
		t.Fatalf("rebalance on converged tier moved data: %+v", stats)
	}
	verifyRing(t, r, want)
}

func TestConcurrentReplicatedWritesDoNotDiverge(t *testing.T) {
	// Regression: without per-key write ordering, two concurrent Sets can
	// commit in opposite orders on primary and replica and diverge the
	// copies permanently.
	r := shardkvs.New(shardkvs.Options{Replication: 2})
	engines := map[string]*kvs.Engine{}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("shard-%d", i)
		e := kvs.NewEngine()
		engines[id] = e
		if err := r.Attach(id, e); err != nil {
			t.Fatal(err)
		}
	}
	const key = "contended"
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := r.Set(key, []byte(fmt.Sprintf("writer-%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	owners := r.Owners(key)
	v0, _ := engines[owners[0]].Get(key)
	v1, _ := engines[owners[1]].Get(key)
	if !bytes.Equal(v0, v1) {
		t.Fatalf("replicas diverged: primary=%q replica=%q", v0, v1)
	}
}

func TestAttachRemoteRoutingIsEndpointOrderInvariant(t *testing.T) {
	// Two clients given the same endpoints in different order must route
	// every key to the same shard: nodes are named by address, not index.
	var addrs []string
	for i := 0; i < 3; i++ {
		srv, err := kvs.NewServer(kvs.NewEngine(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr())
	}
	forward, err := shardkvs.AttachRemote(addrs, shardkvs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer forward.Close()
	reversed, err := shardkvs.AttachRemote([]string{addrs[2], addrs[0], addrs[1]}, shardkvs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reversed.Close()
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("order-%d", i)
		if err := forward.Set(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
		if got := reversed.Owners(k); got[0] != forward.Owners(k)[0] {
			t.Fatalf("key %s routes to %s vs %s", k, got[0], forward.Owners(k)[0])
		}
		v, err := reversed.Get(k)
		if err != nil || string(v) != k {
			t.Fatalf("reversed-order client read %q, %v", v, err)
		}
	}
}

func TestMigrationOverTCPNodes(t *testing.T) {
	// Rebalance must work when shards are only reachable through the wire
	// protocol (KEYS enumeration + streamed copies).
	r := shardkvs.New(shardkvs.Options{})
	addNode := func(id string) {
		srv, err := kvs.NewServer(kvs.NewEngine(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c := kvs.NewClient(srv.Addr())
		t.Cleanup(func() {
			c.Close()
			srv.Close()
		})
		if _, err := r.Join(id, c); err != nil {
			t.Fatal(err)
		}
	}
	addNode("tcp-0")
	addNode("tcp-1")
	want := seedRing(t, r, 100)
	addNode("tcp-2")
	verifyRing(t, r, want)
	if _, err := r.Leave("tcp-0"); err != nil {
		t.Fatal(err)
	}
	verifyRing(t, r, want)
}

func TestBatchedMSetReplicatesAndRoutes(t *testing.T) {
	r := shardkvs.New(shardkvs.Options{Replication: 2})
	engines := map[string]*kvs.Engine{}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("shard-%d", i)
		e := kvs.NewEngine()
		engines[id] = e
		if err := r.Attach(id, e); err != nil {
			t.Fatal(err)
		}
	}
	pairs := make([]kvs.Pair, 60)
	keys := make([]string, 60)
	for i := range pairs {
		keys[i] = fmt.Sprintf("mb-%d", i)
		pairs[i] = kvs.Pair{Key: keys[i], Val: []byte(keys[i])}
	}
	if err := r.MSet(pairs); err != nil {
		t.Fatal(err)
	}
	// Every key sits on exactly its R owners, nowhere else, identical copies.
	for _, k := range keys {
		owners := r.Owners(k)
		if len(owners) != 2 {
			t.Fatalf("owners(%s) = %v", k, owners)
		}
		isOwner := map[string]bool{owners[0]: true, owners[1]: true}
		for id, e := range engines {
			v, _ := e.Get(k)
			if isOwner[id] && string(v) != k {
				t.Fatalf("owner %s of %s holds %q", id, k, v)
			}
			if !isOwner[id] && v != nil {
				t.Fatalf("non-owner %s holds %s", id, k)
			}
		}
	}
	// A batched read reassembles the cross-shard results in input order.
	vals, err := r.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if string(v) != keys[i] {
			t.Fatalf("mget[%d] = %q", i, v)
		}
	}
}

func TestConcurrentBatchedAndSingleWritesDoNotDiverge(t *testing.T) {
	// The multi-key batch fence and the single-key write fence must order
	// against each other: a batch racing single Sets on the same keys may
	// interleave per key, but each key's R copies must end identical.
	r := shardkvs.New(shardkvs.Options{Replication: 2})
	engines := map[string]*kvs.Engine{}
	for i := 0; i < 4; i++ {
		id := fmt.Sprintf("shard-%d", i)
		e := kvs.NewEngine()
		engines[id] = e
		if err := r.Attach(id, e); err != nil {
			t.Fatal(err)
		}
	}
	keys := []string{"bf-0", "bf-1", "bf-2", "bf-3", "bf-4", "bf-5"}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 150; i++ {
			pairs := make([]kvs.Pair, len(keys))
			for j, k := range keys {
				pairs[j] = kvs.Pair{Key: k, Val: []byte(fmt.Sprintf("batch-%d-%d", i, j))}
			}
			if err := r.MSet(pairs); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 150; i++ {
			k := keys[i%len(keys)]
			if err := r.Set(k, []byte(fmt.Sprintf("single-%d", i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	for _, k := range keys {
		owners := r.Owners(k)
		v0, _ := engines[owners[0]].Get(k)
		v1, _ := engines[owners[1]].Get(k)
		if !bytes.Equal(v0, v1) {
			t.Fatalf("%s diverged: primary=%q replica=%q", k, v0, v1)
		}
	}
}

// --- Tier-side expiry across the ring ---

func TestMigrationCarriesTTLs(t *testing.T) {
	r := shardkvs.NewLocal(2, shardkvs.Options{})
	if err := r.SetEx("expired", []byte("stale"), 30*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := r.SetEx("leased", []byte("live"), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := r.Set("forever", []byte("keep")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(60 * time.Millisecond) // "expired" is now past its deadline, possibly unswept

	if _, err := r.Join("shard-new", kvs.NewEngine()); err != nil {
		t.Fatal(err)
	}
	// A rebalance must not resurrect the expired key anywhere.
	if v, _ := r.Get("expired"); v != nil {
		t.Fatalf("rebalance resurrected an expired key: %q", v)
	}
	infos, err := r.AllKeys()
	if err != nil {
		t.Fatal(err)
	}
	for _, ki := range infos {
		if ki.Kind == kvs.KindValue && ki.Key == "expired" {
			t.Fatal("expired key enumerated after rebalance")
		}
	}
	// The live lease travelled with its remaining TTL, wherever it landed.
	if v, _ := r.Get("leased"); string(v) != "live" {
		t.Fatalf("leased key lost in migration: %q", v)
	}
	if d, _ := r.TTL("leased"); d <= 0 || d > 10*time.Second {
		t.Fatalf("migrated ttl = %v, want in (0, 10s]", d)
	}
	// The persistent key stayed persistent.
	if d, _ := r.TTL("forever"); d != kvs.TTLPersistent {
		t.Fatalf("persistent key ttl after migration = %v", d)
	}
}

func TestMigrationDoesNotExtendLeases(t *testing.T) {
	// A key carried through several rebalances must still expire on time —
	// copying must carry the remaining TTL, not re-arm a fresh one of the
	// original length.
	r := shardkvs.NewLocal(2, shardkvs.Options{})
	if err := r.SetEx("lease", []byte("v"), 300*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := r.Join(fmt.Sprintf("extra-%d", i), kvs.NewEngine()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := r.Get("lease")
		if err != nil {
			t.Fatal(err)
		}
		if v == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("migrated lease never expired — migration re-armed it")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExpiryRacesMigration runs SetEx/Get/TTL/Persist traffic against
// concurrent Join/Leave rebalances and explicit sweeps. Run under -race in
// CI: the sweeper timer, the migration's enumerate-then-copy and the
// routing snapshots must all stay race-clean.
func TestExpiryRacesMigration(t *testing.T) {
	r := shardkvs.NewLocal(2, shardkvs.Options{Replication: 2})
	extra := kvs.NewEngine()
	extra.SetSweepInterval(time.Millisecond)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	key := func(i int) string { return fmt.Sprintf("mig-%d", i%24) }

	wg.Add(1)
	go func() { // expiring writes, some overwritten persistent
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.SetEx(key(i), []byte("v"), time.Duration(2+i%6)*time.Millisecond)
			if i%9 == 0 {
				r.Set(key(i), []byte("p"))
			}
		}
	}()
	wg.Add(1)
	go func() { // readers
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Get(key(i))
			r.TTL(key(i))
			if i%5 == 0 {
				r.Persist(key(i))
			}
		}
	}()
	wg.Add(1)
	go func() { // the tier resizes underneath the traffic
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.Join("churn", extra); err != nil {
				t.Error(err)
				return
			}
			if _, err := r.Leave("churn"); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
}
