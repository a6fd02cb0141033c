package autoscale

import (
	"fmt"
	"testing"
	"time"

	"faasm.dev/faasm/internal/vtime"
)

// fakeHost is one simulated host slot.
type fakeHost struct {
	inflight int
	misses   int64
	draining bool
	killed   bool
	removed  bool
}

// fakeFleet implements Fleet in-memory for policy tests.
type fakeFleet struct {
	hosts   []*fakeHost
	addErr  error
	adds    int
	drains  int
	reclaim int
}

func (f *fakeFleet) Signals() []HostSignals {
	out := make([]HostSignals, len(f.hosts))
	for i, h := range f.hosts {
		out[i] = HostSignals{
			Index:      i,
			Host:       fmt.Sprintf("host-%d", i),
			Inflight:   h.inflight,
			PoolMisses: h.misses,
			Draining:   h.draining,
			Killed:     h.killed,
			Removed:    h.removed,
		}
	}
	return out
}

func (f *fakeFleet) AddHost() (int, error) {
	if f.addErr != nil {
		return 0, f.addErr
	}
	f.hosts = append(f.hosts, &fakeHost{})
	f.adds++
	return len(f.hosts) - 1, nil
}

func (f *fakeFleet) DrainHost(h int) error {
	f.hosts[h].draining = true
	f.drains++
	return nil
}

func (f *fakeFleet) ReclaimHost(h int) error {
	f.hosts[h].removed = true
	f.reclaim++
	return nil
}

func (f *fakeFleet) activeCount() int {
	n := 0
	for _, h := range f.hosts {
		if !h.removed && !h.draining && !h.killed {
			n++
		}
	}
	return n
}

// newFleet builds n idle hosts.
func newFleet(n int) *fakeFleet {
	f := &fakeFleet{}
	for i := 0; i < n; i++ {
		f.hosts = append(f.hosts, &fakeHost{})
	}
	return f
}

func TestScaleUpAfterSustainedPressure(t *testing.T) {
	f := newFleet(1)
	clk := vtime.NewVirtual()
	c := NewController(f, Spec{MinHosts: 1, MaxHosts: 4, HighWater: 2, SustainTicks: 3}, clk)

	f.hosts[0].inflight = 5 // well over HighWater
	for tick := 1; tick <= 2; tick++ {
		if acts := c.Tick(); len(acts) != 0 {
			t.Fatalf("tick %d acted before SustainTicks: %v", tick, acts)
		}
	}
	acts := c.Tick()
	if len(acts) != 1 || acts[0].Kind != ActionScaleUp {
		t.Fatalf("sustained pressure: %v", acts)
	}
	if f.activeCount() != 2 {
		t.Fatalf("active = %d", f.activeCount())
	}
	if st := c.Status(); st.ScaleUps != 1 {
		t.Fatalf("status after scale-up: %+v", st)
	}
}

func TestOneSpikyTickMovesNothing(t *testing.T) {
	f := newFleet(1)
	c := NewController(f, Spec{MinHosts: 1, MaxHosts: 4, HighWater: 2, SustainTicks: 2}, vtime.NewVirtual())
	f.hosts[0].inflight = 50
	c.Tick()
	f.hosts[0].inflight = 1 // spike gone
	c.Tick()
	f.hosts[0].inflight = 50
	c.Tick()
	if f.adds != 0 {
		t.Fatalf("hysteresis failed: %d adds after alternating load", f.adds)
	}
}

func TestCooldownFreezesVoluntaryScaling(t *testing.T) {
	f := newFleet(1)
	clk := vtime.NewVirtual()
	cool := 10 * time.Second
	c := NewController(f, Spec{MinHosts: 1, MaxHosts: 8, HighWater: 1, SustainTicks: 1, Cooldown: cool}, clk)

	f.hosts[0].inflight = 10
	if acts := c.Tick(); len(acts) != 1 {
		t.Fatalf("first scale-up: %v", acts)
	}
	// Pressure persists, but the cooldown must hold the fleet still.
	for i := 0; i < 5; i++ {
		if acts := c.Tick(); len(acts) != 0 {
			t.Fatalf("scaled during cooldown: %v", acts)
		}
	}
	clk.Advance(cool + time.Second)
	// Fresh pressure after the cooldown scales again.
	if acts := c.Tick(); len(acts) != 1 || acts[0].Kind != ActionScaleUp {
		t.Fatalf("post-cooldown: %v", acts)
	}
}

func TestMaxHostsClampsGrowth(t *testing.T) {
	f := newFleet(2)
	c := NewController(f, Spec{MinHosts: 1, MaxHosts: 2, HighWater: 1, SustainTicks: 1, Cooldown: time.Nanosecond}, vtime.NewVirtual())
	for _, h := range f.hosts {
		h.inflight = 10
	}
	for i := 0; i < 5; i++ {
		c.Tick()
	}
	if f.adds != 0 {
		t.Fatalf("scaled past MaxHosts: %d adds", f.adds)
	}
}

func TestScaleDownDrainsLeastLoadedThenReclaims(t *testing.T) {
	f := newFleet(3)
	clk := vtime.NewVirtual()
	c := NewController(f, Spec{MinHosts: 1, MaxHosts: 4, LowWater: 0.5, IdleTicks: 2, Cooldown: time.Millisecond}, clk)
	f.hosts[0].inflight = 1 // the busy one
	// Two idle ticks: drain fires on the second.
	if acts := c.Tick(); len(acts) != 0 {
		t.Fatalf("tick 1: %v", acts)
	}
	acts := c.Tick()
	if len(acts) != 1 || acts[0].Kind != ActionDrain {
		t.Fatalf("tick 2: %v", acts)
	}
	if acts[0].Host == 0 {
		t.Fatal("drained the busy host")
	}
	drained := acts[0].Host
	if !f.hosts[drained].draining {
		t.Fatal("victim not draining")
	}
	// Next tick reclaims it (zero in-flight) without another scale action.
	clk.Advance(time.Second)
	acts = c.Tick()
	var reclaimed bool
	for _, a := range acts {
		if a.Kind == ActionReclaim && a.Host == drained {
			reclaimed = true
		}
		if a.Kind == ActionDrain && a.Host == 0 {
			t.Fatalf("drained the last busy host: %v", acts)
		}
	}
	if !reclaimed {
		t.Fatalf("drained host not reclaimed: %v", acts)
	}
	if st := c.Status(); st.ScaleDowns != 1 || st.Drains != 1 {
		t.Fatalf("status: %+v", st)
	}
}

func TestDrainWaitsForInflightBeforeReclaim(t *testing.T) {
	f := newFleet(2)
	clk := vtime.NewVirtual()
	c := NewController(f, Spec{MinHosts: 1, MaxHosts: 4, LowWater: 5, IdleTicks: 1, Cooldown: time.Millisecond}, clk)
	f.hosts[1].inflight = 0
	if acts := c.Tick(); len(acts) != 1 || acts[0].Kind != ActionDrain {
		t.Fatalf("drain: %v", acts)
	}
	victim := f.hosts[1]
	if !victim.draining {
		t.Fatal("host 1 not the victim")
	}
	victim.inflight = 3 // straggler calls still running
	clk.Advance(time.Second)
	for i := 0; i < 3; i++ {
		for _, a := range c.Tick() {
			if a.Kind == ActionReclaim {
				t.Fatal("reclaimed a draining host with calls in flight")
			}
		}
	}
	victim.inflight = 0
	clk.Advance(time.Second)
	found := false
	for _, a := range c.Tick() {
		if a.Kind == ActionReclaim && a.Host == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("idle drained host not reclaimed")
	}
}

func TestMinHostsFloorRestoredUnconditionally(t *testing.T) {
	f := newFleet(2)
	clk := vtime.NewVirtual()
	c := NewController(f, Spec{MinHosts: 2, MaxHosts: 4, Cooldown: time.Hour}, clk)
	// Burn a cooldown so voluntary scaling is frozen.
	f.hosts[0].inflight = 100
	f.hosts[1].inflight = 100
	c.Tick() // pressure 1
	c.Tick() // pressure 2 → scale-up, cooldown starts
	if f.adds != 1 {
		t.Fatalf("setup scale-up missing: %d", f.adds)
	}
	// Every host leaves rotation without crashing (draining, calls still
	// in flight): nothing is reclaimed or restarted, but the MinHosts floor
	// is not a restart policy — it must be restored even inside the
	// cooldown.
	for _, h := range f.hosts {
		h.draining, h.inflight = true, 1
	}
	acts := c.Tick()
	if f.activeCount() != 2 || len(acts) != 2 || acts[0].Kind != ActionScaleUp || acts[1].Kind != ActionScaleUp {
		t.Fatalf("MinHosts floor not restored: active=%d acts=%v", f.activeCount(), acts)
	}
}

func TestCrashedHostReclaimedAndReplaced(t *testing.T) {
	f := newFleet(2)
	c := NewController(f, Spec{MinHosts: 1, MaxHosts: 4}, vtime.NewVirtual())
	f.hosts[1].killed = true
	acts := c.Tick()
	var reclaimed, restarted bool
	for _, a := range acts {
		if a.Kind == ActionReclaim && a.Host == 1 {
			reclaimed = true
		}
		if a.Kind == ActionRestart {
			restarted = true
		}
	}
	if !reclaimed || !restarted {
		t.Fatalf("crash supervision: %v", acts)
	}
	if !f.hosts[1].removed {
		t.Fatal("corpse not removed")
	}
	if f.activeCount() != 2 {
		t.Fatalf("active after restart = %d", f.activeCount())
	}
	if st := c.Status(); st.Restarts != 1 {
		t.Fatalf("restarts = %d", st.Restarts)
	}
}

func TestPoolMissRateFeedsLoad(t *testing.T) {
	f := newFleet(1)
	c := NewController(f, Spec{MinHosts: 1, MaxHosts: 4, HighWater: 2, SustainTicks: 2, Cooldown: time.Nanosecond}, vtime.NewVirtual())
	// No in-flight load at the sample instants, but a rising miss counter:
	// the rate (delta per tick) must still build pressure.
	f.hosts[0].misses = 100
	c.Tick() // establishes the cursor; delta unknown on first sight
	f.hosts[0].misses = 200
	c.Tick() // delta 100 → pressure 1
	f.hosts[0].misses = 300
	acts := c.Tick() // delta 100 → pressure 2 → scale up
	if len(acts) != 1 || acts[0].Kind != ActionScaleUp {
		t.Fatalf("miss rate ignored: %v", acts)
	}
}

func TestStatusCountsDecisions(t *testing.T) {
	f := newFleet(2)
	c := NewController(f, Spec{MinHosts: 1, MaxHosts: 4, HighWater: 1, SustainTicks: 1, Cooldown: time.Nanosecond}, vtime.NewVirtual())
	f.hosts[0].inflight = 10
	f.hosts[1].inflight = 10
	c.Tick()
	if st := c.Status(); st != (Status{ScaleUps: 1}) || f.activeCount() != 3 {
		t.Fatalf("status %+v, active %d", st, f.activeCount())
	}
}

// A zero Spec takes the documented defaults, the 400 ms cooldown included;
// a ceiling under the floor is raised to it.
func TestSpecDefaults(t *testing.T) {
	c := NewController(newFleet(1), Spec{}, nil)
	want := Spec{MinHosts: 1, MaxHosts: 8, HighWater: 2, LowWater: 0.25, SustainTicks: 2, IdleTicks: 4, Cooldown: 400 * time.Millisecond}
	if c.spec != want {
		t.Fatalf("defaults %+v, want %+v", c.spec, want)
	}
	if c := NewController(newFleet(1), Spec{MinHosts: 3, MaxHosts: 2}, nil); c.spec.MaxHosts != 3 {
		t.Fatalf("MaxHosts %d under MinHosts 3", c.spec.MaxHosts)
	}
}

// When the fleet cannot provision, a crash is still reclaimed and the pass
// ends without a replacement or a floor host.
func TestFailedAddStillReclaims(t *testing.T) {
	f := newFleet(1)
	f.addErr = fmt.Errorf("no capacity")
	c := NewController(f, Spec{MinHosts: 1}, vtime.NewVirtual())
	f.hosts[0].killed = true
	acts := c.Tick()
	if len(acts) != 1 || acts[0].Kind != ActionReclaim || !f.hosts[0].removed {
		t.Fatalf("acts %v", acts)
	}
	if st := c.Status(); st != (Status{Drains: 1}) {
		t.Fatalf("status %+v", st)
	}
}
