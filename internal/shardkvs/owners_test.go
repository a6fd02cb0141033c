package shardkvs

// HealthyOwners contract test: the residency adverts behind locality-aware
// scheduling are derived from it, so suspect shards must never be reported
// healthy.

import (
	"reflect"
	"testing"
)

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
