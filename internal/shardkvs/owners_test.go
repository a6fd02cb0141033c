package shardkvs

// Owners/HealthyOwners contract tests: the residency adverts behind
// locality-aware scheduling are derived from these, so owners reported
// mid-rebalance must match the committed ring and suspect shards must never
// be reported healthy.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"faasm.dev/faasm/internal/kvs"
)

func sampleKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("owners/key-%d", i)
	}
	return keys
}

func TestOwnersAcrossJoinLeave(t *testing.T) {
	r := NewLocal(3, Options{Replication: 2})
	keys := sampleKeys(64)
	for _, k := range keys {
		if err := r.Set(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range keys {
		owners := r.Owners(k)
		if len(owners) != 2 || owners[0] == owners[1] {
			t.Fatalf("owners(%s) = %v, want 2 distinct", k, owners)
		}
	}

	if _, err := r.Join("shard-3", kvs.NewEngine()); err != nil {
		t.Fatal(err)
	}
	joined := false
	for _, k := range keys {
		for _, o := range r.Owners(k) {
			if o == "shard-3" {
				joined = true
			}
		}
	}
	if !joined {
		t.Fatal("no key routed to the joined shard")
	}

	if _, err := r.Leave("shard-3"); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		for _, o := range r.Owners(k) {
			if o == "shard-3" {
				t.Fatalf("owners(%s) = %v still names the departed shard", k, r.Owners(k))
			}
		}
		// The departed shard's keys must still be fully readable.
		if v, err := r.Get(k); err != nil || string(v) != k {
			t.Fatalf("get(%s) after leave: %q %v", k, v, err)
		}
	}
}

// gatedStore blocks its first Set until released, holding a Join's copy
// phase open so the test can observe the ring mid-migration.
type gatedStore struct {
	*kvs.Engine
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (g *gatedStore) Set(key string, val []byte) error {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.Engine.Set(key, val)
}

// Mid-rebalance, Owners must report the committed ring: the incoming
// placement owns nothing until every copy has landed.
func TestOwnersCommittedMidRebalance(t *testing.T) {
	r := NewLocal(3, Options{Replication: 2})
	keys := sampleKeys(128)
	for _, k := range keys {
		if err := r.Set(k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	before := make(map[string][]string, len(keys))
	for _, k := range keys {
		before[k] = r.Owners(k)
	}

	gate := &gatedStore{
		Engine:  kvs.NewEngine(),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	joinErr := make(chan error, 1)
	go func() {
		_, err := r.Join("shard-3", gate)
		joinErr <- err
	}()
	<-gate.entered // copy phase is streaming; commit has not happened

	for _, k := range keys {
		if got := r.Owners(k); !reflect.DeepEqual(got, before[k]) {
			t.Fatalf("mid-rebalance owners(%s) = %v, want committed %v", k, got, before[k])
		}
	}

	close(gate.release)
	if err := <-joinErr; err != nil {
		t.Fatal(err)
	}
	moved := false
	for _, k := range keys {
		for _, o := range r.Owners(k) {
			if o == "shard-3" {
				moved = true
			}
		}
	}
	if !moved {
		t.Fatal("after commit no key routed to the joined shard")
	}
}

func TestHealthyOwnersExcludesSuspects(t *testing.T) {
	r := NewLocal(3, Options{Replication: 2})
	key := "owners/suspect-key"
	if err := r.Set(key, []byte("v")); err != nil {
		t.Fatal(err)
	}
	owners := r.Owners(key)
	if len(owners) != 2 {
		t.Fatalf("owners = %v", owners)
	}

	// Doubt the primary: it must vanish from HealthyOwners (order kept, so
	// the replica is promoted to index 0) while Owners still reports it.
	r.nodes[owners[0]].suspect.Store(true)
	healthy := r.HealthyOwners(key)
	if !reflect.DeepEqual(healthy, owners[1:]) {
		t.Fatalf("healthy = %v, want %v", healthy, owners[1:])
	}
	if got := r.Owners(key); !reflect.DeepEqual(got, owners) {
		t.Fatalf("Owners changed to %v under suspicion", got)
	}

	// All owners suspect: nothing may be advertised as residency.
	r.nodes[owners[1]].suspect.Store(true)
	if healthy := r.HealthyOwners(key); len(healthy) != 0 {
		t.Fatalf("all-suspect healthy = %v, want empty", healthy)
	}

	// Cleared suspicion restores the full healthy set.
	r.nodes[owners[0]].suspect.Store(false)
	r.nodes[owners[1]].suspect.Store(false)
	if healthy := r.HealthyOwners(key); !reflect.DeepEqual(healthy, owners) {
		t.Fatalf("recovered healthy = %v, want %v", healthy, owners)
	}
}
