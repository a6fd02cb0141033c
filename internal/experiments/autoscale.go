package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"faasm.dev/faasm/internal/autoscale"
	"faasm.dev/faasm/internal/cluster"
	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/hostapi"
)

// Autoscale is the cluster-control-plane gate: offered load ramps 10× over
// a simnet cluster while the autoscale controller supervises host
// lifecycle. The gate demands that the host count follow the load in both
// directions — scale-ups under sustained pressure, safe drains back to the
// floor after it passes — with zero failed calls end to end, and that a
// drained host stop receiving traffic within ~1 lease TTL (its SetEx'd
// liveness lease expires on the tier's clock and weighted forwarding
// routes around it; forwarded-in stragglers are refused and fall back on
// the caller).
func Autoscale(opts Options) *Report {
	r := &Report{
		ID:     "autoscale",
		Title:  "Cluster autoscaler: host count follows a 10x load ramp, zero failed calls",
		Header: []string{"section", "metric", "value", "gate"},
	}

	const (
		minHosts = 2
		maxHosts = 6
		leaseTTL = 60 * time.Millisecond
	)
	phaseDur := 150 * time.Millisecond
	idleDeadline := 2500 * time.Millisecond
	if opts.Quick {
		phaseDur = 120 * time.Millisecond
		idleDeadline = 2 * time.Second
	}
	ramp := []int{2, 4, 8, 14, 20} // closed-loop workers: 2 → 20 is the 10×

	c := cluster.New(cluster.Config{
		Mode: cluster.ModeFaasm, Hosts: minHosts, TimeScale: 1,
		Runtime: frt.Config{LeaseTTL: leaseTTL, PeerCacheTTL: 5 * time.Millisecond},
	})
	defer c.Shutdown()
	if err := c.Register("work", func(api hostapi.API) (int32, error) {
		time.Sleep(2 * time.Millisecond) // a small, constant service time
		api.WriteOutput([]byte("ok"))
		return 0, nil
	}); err != nil {
		r.Check(false, "setup", "register work", err.Error())
		return r
	}

	ctrl := autoscale.NewController(c.Fleet(), autoscale.Spec{
		MinHosts:     minHosts,
		MaxHosts:     maxHosts,
		HighWater:    2,   // per-host in-flight that reads as pressure
		LowWater:     0.8, // below this the fleet shrinks toward the floor
		SustainTicks: 2,
		IdleTicks:    4,
		Cooldown:     60 * time.Millisecond,
	}, c.Clock)

	// Closed-loop offered load: `workers` goroutines each keep one call in
	// flight. Ramp it by releasing more workers; every failure counts.
	var failed, calls atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	startWorker := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, ret, err := c.Call("work", []byte("x")); err != nil || ret != 0 {
					failed.Add(1)
				}
				calls.Add(1)
			}
		}()
	}

	// tick drives the controller from the experiment loop (deterministic
	// cadence, no background goroutine racing the measurement), recording
	// when the first drain began and of which host.
	firstDrainHost := -1
	var firstDrainAt time.Time
	maxActive := 0
	tick := func() {
		for _, a := range ctrl.Tick() {
			if a.Kind == autoscale.ActionDrain && firstDrainHost < 0 {
				firstDrainHost, firstDrainAt = a.Host, time.Now()
			}
		}
		if n := c.ActiveHosts(); n > maxActive {
			maxActive = n
		}
	}

	// Phase 1 — the ramp. Hold each step for phaseDur, ticking the
	// controller throughout.
	running := 0
	for _, w := range ramp {
		for running < w {
			startWorker()
			running++
		}
		end := time.Now().Add(phaseDur)
		for time.Now().Before(end) {
			tick()
			time.Sleep(10 * time.Millisecond)
		}
	}
	st := ctrl.Status()
	peakUps := st.ScaleUps

	// Phase 2 — load falls back to the starting offer: all but 2 workers
	// stop (the closed loop re-checks `stop` between calls, so the herd
	// thins within one service time). The fleet must drain to the floor.
	close(stop)
	wg.Wait()
	stop = make(chan struct{})
	for running = 0; running < ramp[0]; running++ {
		startWorker()
	}
	floorAt := time.Time{}
	idleEnd := time.Now().Add(idleDeadline)
	for time.Now().Before(idleEnd) {
		tick()
		if floorAt.IsZero() && c.ActiveHosts() <= minHosts && ctrl.Status().ScaleDowns > 0 {
			floorAt = time.Now()
		}
		// Keep traffic flowing ~3 lease TTLs past the floor so the
		// drained-host isolation window below is well fed.
		if !floorAt.IsZero() && time.Since(floorAt) > 3*leaseTTL {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Drained-host isolation: from 1.5 lease TTLs after the first drain
	// began, the drained host must execute nothing further, traffic or no.
	// A run in which no drain began fails this check: its scenario never
	// happened.
	lateCalls := "no drain observed"
	if firstDrainHost >= 0 {
		executed := func() int64 {
			inst := c.Instance(firstDrainHost)
			return inst.WarmStarts.Value() + inst.ColdStarts.Value()
		}
		settle := firstDrainAt.Add(leaseTTL + leaseTTL/2)
		if d := time.Until(settle); d > 0 {
			time.Sleep(d) // traffic is still running; let the window open
		}
		base := executed()
		deadline := time.Now().Add(2 * leaseTTL)
		for time.Now().Before(deadline) {
			tick()
			time.Sleep(5 * time.Millisecond)
		}
		lateCalls = fmt.Sprintf("%d", executed()-base)
	}
	close(stop)
	wg.Wait()

	// Convergence: with the load gone, every drain completes and the live
	// host count settles at the floor.
	convEnd := time.Now().Add(time.Second)
	for time.Now().Before(convEnd) && c.Hosts() > minHosts {
		tick()
		time.Sleep(5 * time.Millisecond)
	}
	final := ctrl.Status()

	r.Add("ramp", "offered load", fmt.Sprintf("%d → %d workers (10x), %d calls", ramp[0], ramp[len(ramp)-1], calls.Load()), "")
	r.Check(failed.Load() == 0, "ramp", "failed calls", fmt.Sprintf("%d", failed.Load()))
	r.Check(maxActive >= minHosts+2, "ramp", "peak active hosts", fmt.Sprintf("%d (floor %d, ceiling %d)", maxActive, minHosts, maxHosts))
	r.Check(peakUps >= 2, "ramp", "scale-ups by peak", fmt.Sprintf("%d", peakUps))
	r.Check(final.ScaleDowns >= 1, "idle", "drains begun after ramp", fmt.Sprintf("%d", final.ScaleDowns))
	r.Check(c.Hosts() == minHosts, "idle", "hosts back at floor", fmt.Sprintf("%d live", c.Hosts()))
	r.Check(final.Drains >= 1, "idle", "drains completed (reclaims)", fmt.Sprintf("%d", final.Drains))
	r.Check(lateCalls == "0", "drain", "drained-host calls after 1.5 lease TTLs", lateCalls)

	r.Note("closed-loop workers ramp %v; the controller ticks every 10ms with a 60ms cooldown, so the host count follows the offer one hysteresis step at a time", ramp)
	r.Note("scale-down is the safe drain: the victim leaves ingress at once, its lease expires tier-side within %v so peers stop forwarding, in-flight calls finish, then the slot is reclaimed — the gate fails if it executes anything 1.5 TTLs after the drain began", leaseTTL)
	return r
}
