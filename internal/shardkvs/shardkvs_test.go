package shardkvs_test

import (
	"bytes"
	"fmt"
	"strings"
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
		return newRing(t, shardkvs.Options{}, tcpShards(t, 3)...)
	})
}

// newRing builds a ring over shards, failing the test on a construction
// error.
func newRing(t *testing.T, opts shardkvs.Options, shards ...shardkvs.Shard) *shardkvs.Ring {
	t.Helper()
	r, err := shardkvs.New(opts, shards...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// engineRing builds a ring of n in-process engines named shard-0..shard-n-1
// and returns the engines by id, so tests can inspect each copy.
func engineRing(t *testing.T, n int, opts shardkvs.Options) (*shardkvs.Ring, map[string]*kvs.Engine) {
	t.Helper()
	engines := map[string]*kvs.Engine{}
	shards := make([]shardkvs.Shard, n)
	for i := range shards {
		id := fmt.Sprintf("shard-%d", i)
		engines[id] = kvs.NewEngine()
		shards[i] = shardkvs.Shard{ID: id, Store: engines[id]}
	}
	return newRing(t, opts, shards...), engines
}

// tcpShards starts n engine servers and returns a TCP client shard for
// each, named tcp-0..tcp-n-1.
func tcpShards(t *testing.T, n int) []shardkvs.Shard {
	t.Helper()
	shards := make([]shardkvs.Shard, n)
	for i := range shards {
		srv, err := kvs.NewServer(kvs.NewEngine(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c := kvs.NewClient(srv.Addr())
		t.Cleanup(func() {
			c.Close()
			srv.Close()
		})
		shards[i] = shardkvs.Shard{ID: fmt.Sprintf("tcp-%d", i), Store: c}
	}
	return shards
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
	// A few non-value structures so repair covers every kind.
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
		t.Fatalf("warm-hosts: %v %v", members, err)
	}
	for i := 0; i < 8; i++ {
		v, err := r.Incr(fmt.Sprintf("ctr-%d", i), 0)
		if err != nil || v != int64(i)*10+1 {
			t.Fatalf("ctr-%d: %d %v", i, v, err)
		}
	}
}

func TestReplicationPlacesRCopies(t *testing.T) {
	r, engines := engineRing(t, 4, shardkvs.Options{Replication: 2})
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
	r, engines := engineRing(t, 3, shardkvs.Options{})
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

// A ring has at least one shard: building an empty one fails, so routing
// never meets an empty circle.
func TestEmptyRingErrors(t *testing.T) {
	if _, err := shardkvs.New(shardkvs.Options{}); err == nil {
		t.Fatal("empty ring built")
	}
	if _, err := shardkvs.AttachRemote(nil, shardkvs.Options{}); err == nil {
		t.Fatal("ring over no endpoints built")
	}
}

// Two shards with one id would make routing ambiguous; New refuses them.
func TestNewRejectsDuplicateShards(t *testing.T) {
	_, err := shardkvs.New(shardkvs.Options{},
		shardkvs.Shard{ID: "a", Store: kvs.NewEngine()},
		shardkvs.Shard{ID: "b", Store: kvs.NewEngine()},
		shardkvs.Shard{ID: "a", Store: kvs.NewEngine()})
	if err == nil || !strings.Contains(err.Error(), `"a"`) {
		t.Fatalf("duplicate shard id: err = %v, want it named", err)
	}
}

func TestRejoinPopulatedTierPreservesData(t *testing.T) {
	// Rebuilding a ring over already-populated shards (what a restarting
	// daemon does) must never destroy data: building a ring moves nothing.
	engines := []*kvs.Engine{kvs.NewEngine(), kvs.NewEngine(), kvs.NewEngine()}
	shards := make([]shardkvs.Shard, len(engines))
	for i, e := range engines {
		shards[i] = shardkvs.Shard{ID: fmt.Sprintf("shard-%d", i), Store: e}
	}
	first := newRing(t, shardkvs.Options{}, shards...)
	want := seedRing(t, first, 100)

	// A second ring over the same stores, listed in another order, reads
	// everything the first wrote.
	second := newRing(t, shardkvs.Options{}, shards[2], shards[0], shards[1])
	verifyRing(t, second, want)

	// And the original ring still reads everything too.
	verifyRing(t, first, want)
}

func TestConcurrentReplicatedWritesDoNotDiverge(t *testing.T) {
	// Regression: without per-key write ordering, two concurrent Sets can
	// commit in opposite orders on primary and replica and diverge the
	// copies permanently.
	r, engines := engineRing(t, 4, shardkvs.Options{Replication: 2})
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

func TestBatchedMSetReplicatesAndRoutes(t *testing.T) {
	r, engines := engineRing(t, 4, shardkvs.Options{Replication: 2})
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
	r, engines := engineRing(t, 4, shardkvs.Options{Replication: 2})
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
