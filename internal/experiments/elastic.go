package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"faasm.dev/faasm/internal/cluster"
	"faasm.dev/faasm/internal/core"
	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/hostapi"
	"faasm.dev/faasm/internal/vtime"
)

// Elasticity measures the elastic scheduling layer this repo grows beyond
// the paper. Section "pool" ramps closed-loop load over a single host and
// compares a static warm pool (misses pay cold starts on the critical path,
// the paper's organic growth) against the elastic controller (grow-ahead
// from observed misses, shrink on idle). Section "failover" kills a warm
// host in a simnet cluster and verifies forwarding drains to survivors
// within one liveness-lease TTL — a host's warm functions ride its lease,
// so a crashed host leaves the live view by itself, Cloudburst-style.
func Elasticity(opts Options) *Report {
	r := &Report{
		ID:     "elastic-sched",
		Title:  "Elastic scheduling: warm-pool autoscaling and leased peer liveness",
		Header: []string{"section", "config", "metric", "value", "gate"},
	}

	ramp := []int{2, 4, 8, 16, 32}
	if opts.Quick {
		ramp = []int{2, 4, 8}
	}
	const missesMetric = "pool-empty misses (critical-path cold starts)"
	var staticMisses int64
	for _, elastic := range []bool{false, true} {
		name := "static pool"
		if elastic {
			name = "elastic pool"
		}
		misses, prewarmed, reclaims, err := measureRampMisses(ramp, elastic)
		if err != nil {
			r.Check(false, "pool", name, "ramp", err.Error())
			continue
		}
		if !elastic {
			staticMisses = misses
			r.Add("pool", name, missesMetric, fmt.Sprintf("%d", misses), "")
			r.Add("pool", name, "pre-provisioned Faaslets", fmt.Sprintf("%d", prewarmed), "")
		} else {
			r.Check(misses < staticMisses, "pool", name, missesMetric, fmt.Sprintf("%d", misses))
			r.Check(prewarmed > 0, "pool", name, "pre-provisioned Faaslets", fmt.Sprintf("%d", prewarmed))
		}
		r.Add("pool", name, "idle reclaims", fmt.Sprintf("%d", reclaims), "")
	}

	const target = "3 hosts, kill warm target"
	leaseTTL := 60 * time.Millisecond
	drain, failed, forwarded, ctrlBytes, err := measureFailoverDrain(leaseTTL)
	if err != nil {
		r.Check(false, "failover", target, "measurement", err.Error())
	} else {
		ttls := float64(drain) / float64(leaseTTL)
		r.Add("failover", target, "forwards before kill", fmt.Sprintf("%d", forwarded), "")
		r.Check(failed == 0, "failover", target, "calls failed during drain", fmt.Sprintf("%d", failed))
		r.Check(ttls > 0 && ttls <= 2, "failover", target, "dead host evicted after", fmt.Sprintf("%.2f lease TTLs", ttls))
		r.Add("failover", target, "network bytes during drain", fmt.Sprintf("%d", ctrlBytes), "")
	}

	r.Note("pool: identical concurrency ramp %v per config; the elastic controller pre-provisions misses x grow-factor per tick, so later ramp steps find the pool already sized — the ramp's misses collapse toward the first step's", ramp)
	r.Note("failover: a killed host stops heartbeating but retreats from nothing; its SetEx'd sched/alive/<host> lease expires on the tier's clock (no observer ever judges a timestamp, so host clock skew cannot delay or hasten the drain) and every peer's next beat drops it from the view — forwards fall back locally in the meantime, so zero calls fail")
	return r
}

// measureRampMisses drives a concurrency ramp against one instance and
// returns the pool-miss, prewarm and reclaim counters.
func measureRampMisses(ramp []int, elastic bool) (misses, prewarmed, reclaims int64, err error) {
	inst := frt.New(frt.Config{
		Host:            "elastic-host",
		PoolCap:         256,
		ElasticPool:     elastic,
		ElasticInterval: 2 * time.Millisecond,
		PoolIdleTimeout: time.Hour, // isolate grow-ahead from shrink
	})
	defer inst.Shutdown()
	gate := make(chan struct{})
	started := make(chan struct{}, 256)
	inst.RegisterNative("ramp", func(ctx *core.Ctx) (int32, error) {
		if len(ctx.Input()) > 0 {
			started <- struct{}{}
			<-gate
		}
		return 0, nil
	})
	for _, c := range ramp {
		missesBefore := inst.PoolMisses.Value()
		prewarmedBefore := inst.Prewarmed.Value()
		errs := make(chan error, c)
		for k := 0; k < c; k++ {
			go func() { _, _, err := inst.Call("ramp", []byte("b")); errs <- err }()
		}
		for k := 0; k < c; k++ {
			<-started
		}
		for k := 0; k < c; k++ {
			gate <- struct{}{}
		}
		for k := 0; k < c; k++ {
			if err := <-errs; err != nil {
				return 0, 0, 0, err
			}
		}
		// The gap between ramp steps. The static pool's misses don't depend
		// on it (the pool only grows organically, so each step's shortfall
		// is fixed), but the elastic controller needs its ticks to land in
		// the gap — so rather than a wall-clock sleep a loaded machine can
		// starve, wait until the grow-ahead this step's misses triggered has
		// actually happened (bounded by a generous cap).
		if elastic && inst.PoolMisses.Value() > missesBefore {
			deadline := time.Now().Add(2 * time.Second)
			for inst.Prewarmed.Value() == prewarmedBefore && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			// One settled interval so the controller finishes the pass.
			time.Sleep(4 * time.Millisecond)
		}
	}
	return inst.PoolMisses.Value(), inst.Prewarmed.Value(), inst.IdleReclaims.Value(), nil
}

// measureFailoverDrain warms one cluster host, kills it, and measures how
// long its lease keeps it in the live view. Returns the drain duration,
// the count of calls that FAILED during it (want 0),
// the forwards recorded before the kill, and the simulated-network bytes
// the cluster spent while healing (call payloads + lease reads).
//
// The whole measurement runs on a drivenClock: simnet latency, cold starts,
// lease expiry, heartbeats and the poll below share one virtual timeline,
// which moves only inside this goroutine's own sleeps. However slowly a
// loaded machine or -race runs the measurement, no time passes while it
// runs.
func measureFailoverDrain(leaseTTL time.Duration) (drain time.Duration, failed int, forwarded, ctrlBytes int64, err error) {
	clk := &drivenClock{Virtual: vtime.NewVirtual(), driver: goid()}
	c := cluster.New(cluster.Config{
		Mode: cluster.ModeFaasm, Hosts: 3,
		Runtime: frt.Config{Clock: clk, LeaseTTL: leaseTTL},
	})
	// Shutdown waits, without sleeping, on resets that retreat through the
	// tier and so sleep on the clock: release it first.
	defer c.Shutdown()
	defer clk.release()
	if err := c.Register("echo", func(api hostapi.API) (int32, error) {
		api.WriteOutput(api.Input())
		return 0, nil
	}); err != nil {
		return 0, 0, 0, 0, err
	}
	// Warm host-1 only, publish its advert and let host-0 read it (the two
	// beats would, within 2·LeaseTTL/3), then route traffic through host-0
	// so every call forwards to the one warm peer.
	if _, _, err := c.CallOn(1, "echo", []byte("w")); err != nil {
		return 0, 0, 0, 0, err
	}
	for _, h := range []int{1, 0} {
		if err := c.Instance(h).Scheduler().Heartbeat(); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	for k := 0; k < 10; k++ {
		if _, _, err := c.CallOn(0, "echo", []byte("x")); err != nil {
			return 0, 0, 0, 0, err
		}
	}
	forwarded = c.Instance(0).Scheduler().Stats.Forwarded.Load()

	c.KillHost(1)
	start := clk.Now()
	bytesBefore := c.Net.TotalBytes()
	hostBytesAtKill := c.Net.HostBytes("host-1")
	deadline := start.Add(10 * leaseTTL)
	for {
		// Traffic keeps flowing through the survivors the whole time.
		if _, _, err := c.CallOn(0, "echo", []byte("y")); err != nil {
			failed++
		}
		hosts, err := c.Instance(2).Scheduler().WarmHosts("echo")
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if !slices.Contains(hosts, "host-1") {
			// Sanity: the dead host itself moved no bytes since the kill.
			ctrlBytes = c.Net.TotalBytes() - bytesBefore - c.Net.HostBytes("host-1") + hostBytesAtKill
			return clk.Now().Sub(start), failed, forwarded, ctrlBytes, nil
		}
		if clk.Now().After(deadline) {
			return 0, 0, 0, 0, fmt.Errorf("dead host still listed after %v", clk.Now().Sub(start))
		}
		clk.Sleep(2 * time.Millisecond)
	}
}

// drivenClock is a virtual clock one goroutine drives: the driver's sleeps
// advance time instead of blocking, waking every other sleeper whose
// deadline they pass, while every other goroutine sleeps on the virtual
// clock as usual. Time therefore moves only while the driver is parked in a
// sleep of its own (its explicit waits and those inside the cluster calls
// it makes), never while it runs.
type drivenClock struct {
	*vtime.Virtual
	driver   uint64
	released atomic.Bool
}

// Sleep implements vtime.Clock.
func (c *drivenClock) Sleep(d time.Duration) {
	if goid() != c.driver && !c.released.Load() {
		c.Virtual.Sleep(d)
		return
	}
	c.Advance(d)
	runtime.Gosched() // let the sleepers just woken run
}

// release ends the driven run: every sleeper is woken, and from then on
// each one advances time itself, so nothing waits for a driver sleep that
// will not come.
func (c *drivenClock) release() {
	c.released.Store(true)
	c.Advance(time.Hour)
}

// goid returns the calling goroutine's id, parsed from the first line of
// its stack trace ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [32]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, _ := strconv.ParseUint(string(f[1]), 10, 64)
	return id
}
