package cluster

// Chaos-overlap tests: two fault/lifecycle events in flight at once, under
// call traffic. The invariants everywhere: zero failed calls, and the
// cluster converges to a consistent host count afterwards. These overlaps
// are exactly where the single-event tests leave gaps — a crash landing on
// an already-draining host, a tier shard dying while a scale-up deploys,
// the autoscaler making decisions while the ring is mid-heal.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasm.dev/faasm/internal/autoscale"
	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/hostapi"
)

// startEchoTraffic launches n workers hammering fn through the front door
// until stop is closed, counting failures. Returns the stop func and the
// failure counter.
func startEchoTraffic(t *testing.T, c *Cluster, fn string, n int) (func(), *atomic.Int64) {
	t.Helper()
	var failed atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, ret, err := c.Call(fn, []byte("x")); err != nil || ret != 0 {
					failed.Add(1)
				}
			}
		}()
	}
	var once sync.Once
	return func() { once.Do(func() { close(stop) }); wg.Wait() }, &failed
}

func TestKillHostMidDrainConvergesUnderTraffic(t *testing.T) {
	// A host crashes while it is already draining. The supervisor must not
	// double-count or wedge: the crashed-while-draining slot is reclaimed
	// once, a replacement restores the declared fleet, and no call fails
	// across the whole overlap.
	c := New(Config{
		Mode: ModeFaasm, Hosts: 3, TimeScale: 1000,
		Runtime: frt.Config{LeaseTTL: 50 * time.Millisecond, PeerCacheTTL: time.Millisecond},
	})
	defer c.Shutdown()
	if err := c.Register("echo", func(api hostapi.API) (int32, error) {
		api.WriteOutput(api.Input())
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	ctrl := autoscale.NewController(c.Fleet(), autoscale.Spec{
		MinHosts: 3, MaxHosts: 4,
	}, c.Clock)

	stopTraffic, failed := startEchoTraffic(t, c, "echo", 4)
	defer stopTraffic()

	if err := c.DrainHost(1); err != nil {
		t.Fatal(err)
	}
	c.KillHost(1) // the crash lands mid-drain

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ctrl.Tick()
		if c.HostRemoved(1) && c.Hosts() == 3 && c.ActiveHosts() == 3 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	stopTraffic()

	if !c.HostRemoved(1) {
		t.Fatal("crashed-while-draining host was never reclaimed")
	}
	if c.Hosts() != 3 || c.ActiveHosts() != 3 {
		t.Fatalf("fleet did not converge: hosts=%d active=%d", c.Hosts(), c.ActiveHosts())
	}
	st := ctrl.Status()
	if st.Drains != 1 || st.Restarts != 1 {
		t.Fatalf("supervision double-counted the overlap: drains=%d restarts=%d", st.Drains, st.Restarts)
	}
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d calls failed across the kill-mid-drain overlap", n)
	}
	// The replacement serves traffic directly.
	if out, ret, err := c.CallOn(3, "echo", []byte("hi")); err != nil || ret != 0 || string(out) != "hi" {
		t.Fatalf("replacement host: %q %d %v", out, ret, err)
	}
}

func TestKillShardDuringScaleUpUnderTraffic(t *testing.T) {
	// A tier shard dies at the same moment a scale-up deploys a new host.
	// The new host must join cleanly (its adverts and residency writes ride
	// the degraded tier on quorum and failover), and neither event may fail
	// a call or a tier operation.
	c := New(Config{
		Mode: ModeFaasm, Hosts: 2, TimeScale: 1000,
		StateShards: 3, StateReplicas: 2, StateWriteQuorum: 1,
		StateReadFailover: true, FaultyShards: true,
	})
	defer c.Shutdown()
	if err := c.Register("echo", func(api hostapi.API) (int32, error) {
		api.WriteOutput(api.Input())
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	// read touches the tier (pull + view); called sequentially below, since
	// concurrent views of one local state value are the guest's to lock.
	if err := c.Register("read", func(api hostapi.API) (int32, error) {
		if err := api.StatePull("data"); err != nil {
			return 1, err
		}
		buf, err := api.StateView("data", -1)
		if err != nil {
			return 2, err
		}
		api.WriteOutput(buf)
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetState("data", []byte("payload")); err != nil {
		t.Fatal(err)
	}

	stopTraffic, failed := startEchoTraffic(t, c, "echo", 4)
	defer stopTraffic()

	// The overlap proper: crash and scale-up race each other.
	var wg sync.WaitGroup
	var newHost int
	var addErr error
	wg.Add(2)
	go func() { defer wg.Done(); c.KillShard(0) }()
	go func() { defer wg.Done(); newHost, addErr = c.AddHost() }()
	wg.Wait()
	if addErr != nil {
		t.Fatalf("scale-up with a shard down: %v", addErr)
	}

	// Tier writes and reads keep working through the outage (W=1 +
	// failover), including from the freshly added host.
	for i := 0; i < 12; i++ {
		key := fmt.Sprintf("k-%d", i)
		if err := c.SetState(key, []byte("v")); err != nil {
			t.Fatalf("tier write with shard down: %v", err)
		}
		if v, err := c.GetState(key); err != nil || string(v) != "v" {
			t.Fatalf("tier read with shard down: %q %v", v, err)
		}
		if out, ret, err := c.Call("read", nil); err != nil || ret != 0 || string(out) != "payload" {
			t.Fatalf("state-reading call during outage: %q %d %v", out, ret, err)
		}
	}
	if out, ret, err := c.CallOn(newHost, "read", nil); err != nil || ret != 0 || string(out) != "payload" {
		t.Fatalf("call on scale-up host during outage: %q %d %v", out, ret, err)
	}

	c.RestoreShard(0)
	if _, err := c.HealState(); err != nil {
		t.Fatalf("heal: %v", err)
	}
	stopTraffic()

	if st := c.StateRing().FailureStats(); st.Suspects != 0 {
		t.Fatalf("tier did not converge after heal: %+v", st)
	}
	if c.Hosts() != 3 || c.ActiveHosts() != 3 {
		t.Fatalf("host count did not converge: hosts=%d active=%d", c.Hosts(), c.ActiveHosts())
	}
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d calls failed across the shard-crash/scale-up overlap", n)
	}
}

func TestAutoscalerDecidesDuringRingHeal(t *testing.T) {
	// The autoscaler keeps reconciling while the tier ring is mid-heal. Its
	// drains ride the same degraded tier the heal is repairing; both must
	// finish, the fleet must settle at the floor, and no call may fail.
	c := New(Config{
		Mode: ModeFaasm, Hosts: 4, TimeScale: 1000,
		StateShards: 3, StateReplicas: 2, StateWriteQuorum: 1,
		StateReadFailover: true, FaultyShards: true,
		Runtime: frt.Config{LeaseTTL: 50 * time.Millisecond, PeerCacheTTL: time.Millisecond},
	})
	defer c.Shutdown()
	if err := c.Register("echo", func(api hostapi.API) (int32, error) {
		api.WriteOutput(api.Input())
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Spread some tier state so the heal has ranges to re-sync.
	for i := 0; i < 24; i++ {
		if err := c.SetState(fmt.Sprintf("k-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	// LowWater 0.5: one worker's load reads 0 or 0.25 over four hosts, so
	// idleness accumulates; at the two-host floor the MinHosts guard holds.
	ctrl := autoscale.NewController(c.Fleet(), autoscale.Spec{
		MinHosts: 2, MaxHosts: 4, LowWater: 0.5,
		IdleTicks: 2, Cooldown: time.Millisecond,
	}, c.Clock)

	// One light worker: enough traffic to prove calls never fail, idle
	// enough that the controller decides to shrink 4 -> 2.
	stopTraffic, failed := startEchoTraffic(t, c, "echo", 1)
	defer stopTraffic()

	c.KillShard(1)
	c.RestoreShard(1)
	healDone := make(chan error, 1)
	go func() {
		_, err := c.HealState()
		healDone <- err
	}()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ctrl.Tick()
		if c.Hosts() == 2 && ctrl.Status().ScaleDowns >= 2 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := <-healDone; err != nil {
		t.Fatalf("heal overlapping autoscaler decisions: %v", err)
	}
	stopTraffic()

	if c.Hosts() != 2 || c.ActiveHosts() != 2 {
		t.Fatalf("fleet did not settle at the floor: hosts=%d active=%d", c.Hosts(), c.ActiveHosts())
	}
	st := ctrl.Status()
	if st.ScaleDowns != 2 || st.Drains != 2 {
		t.Fatalf("decision counts did not converge: downs=%d drains=%d", st.ScaleDowns, st.Drains)
	}
	if st := c.StateRing().FailureStats(); st.Suspects != 0 {
		t.Fatalf("tier did not converge after heal: %+v", st)
	}
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d calls failed while the autoscaler decided during the heal", n)
	}
}
