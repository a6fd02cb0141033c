package sched

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/shardkvs"
)

// A shard daemon's own runtime beats on the raw engine it serves, so it sees
// only the leases that engine holds. A host that lists no functions must
// not prune membership: after one beat of each shard's scheduler, the ring
// still names every live host, and both replicas of the set agree.
func TestUnlistedHostPrunesNoMembers(t *testing.T) {
	engines := make([]*kvs.Engine, 3)
	shards := make([]shardkvs.Shard, len(engines))
	for i := range engines {
		engines[i] = kvs.NewEngine()
		shards[i] = shardkvs.Shard{ID: fmt.Sprintf("shard-%d", i), Store: engines[i]}
	}
	ring, err := shardkvs.New(shardkvs.Options{Replication: 2}, shards...)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < 8; i++ {
		host := fmt.Sprintf("host-%d", i)
		s := New(host, ring, 10)
		s.Schedule("fn")
		s.NoteWarm("fn", 1)
		if err := s.Heartbeat(); err != nil {
			t.Fatal(err)
		}
		want = append(want, host)
	}
	for i, e := range engines {
		if err := New(fmt.Sprintf("shard-daemon-%d", i), e, 10).Heartbeat(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ring.SMembers(hostsKey)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ring members after the shard daemons beat = %v, want %v", got, want)
	}
	var replicas [][]string
	for _, e := range engines {
		if m, _ := e.SMembers(hostsKey); len(m) > 0 {
			replicas = append(replicas, m)
		}
	}
	if len(replicas) != 2 || !reflect.DeepEqual(replicas[0], replicas[1]) {
		t.Fatalf("replicas of %s = %v, want two equal copies", hostsKey, replicas)
	}
}
