package frt

import (
	"fmt"
	"testing"

	"faasm.dev/faasm/internal/core"
	"faasm.dev/faasm/internal/kvs"
)

func TestAccessProfileRecordsGuestReads(t *testing.T) {
	store := kvs.NewEngine()
	store.Set("k", make([]byte, 8192))
	inst := New(Config{Host: "h1", Store: store})
	inst.RegisterNative("reader", func(ctx *core.Ctx) (int32, error) {
		_, err := ctx.StateView("k", -1)
		return 0, err
	})
	if _, _, err := inst.Call("reader", nil); err != nil {
		t.Fatal(err)
	}
	if got := inst.profile.footprint("reader"); got != 8192 {
		t.Fatalf("footprint = %d, want 8192", got)
	}
	if got := inst.AccessedStateBytes(); got != 8192 {
		t.Fatalf("accessed = %d, want 8192", got)
	}
	if got := inst.profile.footprint("ghost"); got != 0 {
		t.Fatalf("unknown fn footprint = %d", got)
	}
	// The whole value was pulled, so residency covers the footprint.
	if got := inst.residentBytes("reader"); got != 8192 {
		t.Fatalf("resident = %d, want 8192", got)
	}
	if res := inst.Residency(); res["reader"] != 8192 {
		t.Fatalf("Residency() = %v", res)
	}
}

func TestAccessProfileDecayAndCap(t *testing.T) {
	p := newAccessProfile()
	// More distinct keys than the cap, recorded enough times to force a
	// decay pass: only the hottest profileMaxKeys survive.
	for round := 0; round < 8; round++ {
		for k := 0; k < profileMaxKeys*2; k++ {
			p.record("fn", fmt.Sprintf("key-%d", k), int64(1+k))
		}
	}
	keys := p.keysOf("fn")
	if len(keys) > profileMaxKeys {
		t.Fatalf("profile holds %d keys, cap is %d", len(keys), profileMaxKeys)
	}
	// The hottest key must have survived the trims.
	hot := fmt.Sprintf("key-%d", profileMaxKeys*2-1)
	if keys[hot] == 0 {
		t.Fatalf("hottest key evicted; kept %v", keys)
	}
	// Decay halves: the footprint is far below the raw sum of all records.
	raw := int64(0)
	for k := 0; k < profileMaxKeys*2; k++ {
		raw += 8 * int64(1+k)
	}
	if fp := p.footprint("fn"); fp >= raw {
		t.Fatalf("footprint %d not decayed (raw %d)", fp, raw)
	}
}

// Shard-primary co-location credits a key as resident before it is ever
// pulled — but only on the host co-hosting the key's healthy primary.
func TestResidencyShardCoLocation(t *testing.T) {
	store := kvs.NewEngine()
	store.Set("k", make([]byte, 4096))
	owners := func(key string) []string { return []string{"shard-0", "shard-1"} }

	home := New(Config{Host: "h0", Store: store, StateOwners: owners, LocalShard: "shard-0"})
	other := New(Config{Host: "h1", Store: store, StateOwners: owners, LocalShard: "shard-1"})
	for _, inst := range []*Instance{home, other} {
		inst.profile.record("fn", "k", 4096)
	}
	if got := home.residentBytes("fn"); got != 4096 {
		t.Fatalf("primary co-host residency = %d, want 4096 (unpulled but primary-local)", got)
	}
	if got := other.residentBytes("fn"); got != 0 {
		t.Fatalf("replica co-host residency = %d, want 0 (only the primary counts)", got)
	}
}
