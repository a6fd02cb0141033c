package cluster

// Chaos-overlap tests: two fault/lifecycle events in flight at once, under
// call traffic. The invariants everywhere: zero failed calls, and the
// cluster converges to a consistent host count afterwards. These overlaps
// are exactly where the single-event tests leave gaps — a crash landing on
// an already-draining host, a tier shard dying while a drain retreats
// through the tier, hosts draining while the ring is mid-heal.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/hostapi"
)

// startEchoTraffic launches n workers hammering fn through the front door
// until stop is closed, counting calls and failures. Returns the stop func
// and the two counters.
func startEchoTraffic(t *testing.T, c *Cluster, fn string, n int) (stop func(), calls, failed *atomic.Int64) {
	t.Helper()
	calls, failed = new(atomic.Int64), new(atomic.Int64)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, ret, err := c.Call(fn, []byte("x")); err != nil || ret != 0 {
					failed.Add(1)
				}
				calls.Add(1)
			}
		}()
	}
	var once sync.Once
	return func() { once.Do(func() { close(done) }); wg.Wait() }, calls, failed
}

// awaitCalls waits until calls has grown by n from its current value, so
// the events that follow land under traffic rather than before it starts.
func awaitCalls(t *testing.T, calls *atomic.Int64, n int64) {
	t.Helper()
	want := calls.Load() + n
	for deadline := time.Now().Add(5 * time.Second); calls.Load() < want; {
		if time.Now().After(deadline) {
			t.Fatalf("traffic stalled: %d calls, want %d", calls.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// drainAndReclaim drains host h, then reclaims it once its in-flight calls
// finish (ReclaimHost refuses a draining host that still runs calls).
func drainAndReclaim(c *Cluster, h int) error {
	if err := c.DrainHost(h); err != nil {
		return err
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := c.ReclaimHost(h)
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

func registerEcho(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.Register("echo", func(api hostapi.API) (int32, error) {
		api.WriteOutput(api.Input())
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestKillHostMidDrainConvergesUnderTraffic(t *testing.T) {
	// A host crashes while it is already draining, under traffic. Reclaiming
	// the crashed-while-draining slot must not wait on its in-flight calls,
	// must be idempotent, and no call may fail across the overlap: a call
	// the corpse refuses (frt.ErrDown) re-enters through the rotation.
	c := New(Config{
		Mode: ModeFaasm, Hosts: 3, TimeScale: 1000,
		Runtime: frt.Config{LeaseTTL: 50 * time.Millisecond},
	})
	defer c.Shutdown()
	registerEcho(t, c)

	stopTraffic, calls, failed := startEchoTraffic(t, c, "echo", 4)
	defer stopTraffic()
	awaitCalls(t, calls, 50)

	if err := c.DrainHost(1); err != nil {
		t.Fatal(err)
	}
	c.KillHost(1) // the crash lands mid-drain
	for i := 0; i < 2; i++ {
		if err := c.ReclaimHost(1); err != nil {
			t.Fatalf("reclaim %d of the crashed-while-draining host: %v", i+1, err)
		}
	}
	awaitCalls(t, calls, 50) // the survivors keep serving
	stopTraffic()

	if !c.HostRemoved(1) {
		t.Fatal("crashed-while-draining host was never reclaimed")
	}
	if c.Hosts() != 2 || c.ActiveHosts() != 2 {
		t.Fatalf("host count did not converge: hosts=%d active=%d", c.Hosts(), c.ActiveHosts())
	}
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d calls failed across the kill-mid-drain overlap", n)
	}
}

func TestKillShardDuringDrainUnderTraffic(t *testing.T) {
	// A tier shard dies at the same moment a host drains. The drain's
	// lease deletion rides the degraded tier on quorum and failover, and
	// neither event may fail a call or a tier operation.
	c := New(Config{
		Mode: ModeFaasm, Hosts: 3, TimeScale: 1000,
		StateShards: 3, StateReplicas: 2, StateWriteQuorum: 1,
		FaultyShards: true,
	})
	defer c.Shutdown()
	registerEcho(t, c)
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

	stopTraffic, calls, failed := startEchoTraffic(t, c, "echo", 4)
	defer stopTraffic()
	awaitCalls(t, calls, 50)

	// The overlap proper: crash and drain race each other.
	var wg sync.WaitGroup
	var drainErr error
	wg.Add(2)
	go func() { defer wg.Done(); c.KillShard(0) }()
	go func() { defer wg.Done(); drainErr = drainAndReclaim(c, 2) }()
	wg.Wait()
	if drainErr != nil {
		t.Fatalf("drain with a shard down: %v", drainErr)
	}

	// Tier writes and reads keep working through the outage (W=1 +
	// failover), including from the hosts that remain.
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

	c.RestoreShard(0)
	if _, err := c.HealState(); err != nil {
		t.Fatalf("heal: %v", err)
	}
	stopTraffic()

	if st := c.StateRing().FailureStats(); st.Suspects != 0 {
		t.Fatalf("tier did not converge after heal: %+v", st)
	}
	if !c.HostRemoved(2) || c.Hosts() != 2 || c.ActiveHosts() != 2 {
		t.Fatalf("host count did not converge: removed=%v hosts=%d active=%d",
			c.HostRemoved(2), c.Hosts(), c.ActiveHosts())
	}
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d calls failed across the shard-crash/drain overlap", n)
	}
}

func TestDrainDuringRingHeal(t *testing.T) {
	// Two hosts drain and are reclaimed while the tier ring is mid-heal.
	// The drains ride the same degraded tier the heal is repairing; both
	// must finish, the cluster must settle at two hosts, and no call may
	// fail.
	c := New(Config{
		Mode: ModeFaasm, Hosts: 4, TimeScale: 1000,
		StateShards: 3, StateReplicas: 2, StateWriteQuorum: 1,
		FaultyShards: true,
		Runtime:      frt.Config{LeaseTTL: 50 * time.Millisecond},
	})
	defer c.Shutdown()
	registerEcho(t, c)
	// Spread some tier state so the heal has ranges to re-sync.
	for i := 0; i < 24; i++ {
		if err := c.SetState(fmt.Sprintf("k-%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	stopTraffic, calls, failed := startEchoTraffic(t, c, "echo", 2)
	defer stopTraffic()
	awaitCalls(t, calls, 50)

	c.KillShard(1)
	c.RestoreShard(1)
	healDone := make(chan error, 1)
	go func() {
		_, err := c.HealState()
		healDone <- err
	}()
	for _, h := range []int{3, 2} {
		if err := drainAndReclaim(c, h); err != nil {
			t.Fatalf("drain host %d during the heal: %v", h, err)
		}
	}
	if err := <-healDone; err != nil {
		t.Fatalf("heal overlapping the drains: %v", err)
	}
	stopTraffic()

	if c.Hosts() != 2 || c.ActiveHosts() != 2 {
		t.Fatalf("host count did not settle: hosts=%d active=%d", c.Hosts(), c.ActiveHosts())
	}
	if st := c.StateRing().FailureStats(); st.Suspects != 0 {
		t.Fatalf("tier did not converge after heal: %+v", st)
	}
	if n := failed.Load(); n != 0 {
		t.Fatalf("%d calls failed while hosts drained during the heal", n)
	}
}
