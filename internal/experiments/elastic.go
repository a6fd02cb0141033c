package experiments

import (
	"fmt"
	"runtime"
	"sync"
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
// within one liveness-lease TTL — the warm-set entries are leases, so a
// crashed host evicts from the global set itself, Cloudburst-style.
func Elasticity(opts Options) *Report {
	r := &Report{
		ID:     "elastic-sched",
		Title:  "Elastic scheduling: warm-pool autoscaling and leased peer liveness",
		Header: []string{"section", "config", "metric", "value"},
	}

	ramp := []int{2, 4, 8, 16, 32}
	if opts.Quick {
		ramp = []int{2, 4, 8}
	}
	for _, elastic := range []bool{false, true} {
		name := "static pool"
		if elastic {
			name = "elastic pool"
		}
		misses, prewarmed, reclaims, err := measureRampMisses(ramp, elastic)
		if err != nil {
			r.Note("pool/%s: %v", name, err)
			continue
		}
		r.Add("pool", name, "pool-empty misses (critical-path cold starts)", fmt.Sprintf("%d", misses))
		r.Add("pool", name, "pre-provisioned Faaslets", fmt.Sprintf("%d", prewarmed))
		r.Add("pool", name, "idle reclaims", fmt.Sprintf("%d", reclaims))
	}

	leaseTTL := 60 * time.Millisecond
	drain, survived, forwarded, ctrlBytes, err := measureFailoverDrain(leaseTTL)
	if err != nil {
		r.Note("failover: %v", err)
	} else {
		r.Add("failover", "3 hosts, kill warm target", "forwards before kill", fmt.Sprintf("%d", forwarded))
		r.Add("failover", "3 hosts, kill warm target", "calls failed during drain", fmt.Sprintf("%d", survived))
		r.Add("failover", "3 hosts, kill warm target", "dead host evicted after", fmt.Sprintf("%.2f lease TTLs", float64(drain)/float64(leaseTTL)))
		r.Add("failover", "3 hosts, kill warm target", "network bytes during drain", fmt.Sprintf("%d", ctrlBytes))
	}

	r.Note("pool: identical concurrency ramp %v per config; the elastic controller pre-provisions misses x grow-factor per tick, so later ramp steps find the pool already sized — the ramp's misses collapse toward the first step's", ramp)
	r.Note("failover: a killed host stops heartbeating but retreats from nothing; its SetEx'd sched/alive/<host> lease expires on the tier's clock (no observer ever judges a timestamp, so host clock skew cannot delay or hasten the drain) and every peer's refresh filters it — forwards fall back locally in the meantime, so zero calls fail")
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
		var wg sync.WaitGroup
		var callErr error
		var mu sync.Mutex
		for k := 0; k < c; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, e := inst.Call("ramp", []byte("b")); e != nil {
					mu.Lock()
					callErr = e
					mu.Unlock()
				}
			}()
		}
		for k := 0; k < c; k++ {
			<-started
		}
		for k := 0; k < c; k++ {
			gate <- struct{}{}
		}
		wg.Wait()
		if callErr != nil {
			return 0, 0, 0, callErr
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
// long its stale warm-set entry keeps appearing in the live view. Returns
// the drain duration, the count of calls that FAILED during it (want 0),
// the forwards recorded before the kill, and the simulated-network bytes
// the cluster spent while healing (call payloads + lease reads).
//
// The whole measurement runs on a vtime.Virtual clock: every blocking
// point in the simulation — simnet transfer latency, lease expiry on the
// tier's engines, heartbeat cadence, the poll interval below — sleeps on
// the same virtual timeline, and the pump loop in the caller goroutine
// advances it deadline by deadline. The drain duration is therefore
// virtual elapsed time: a loaded CI machine or -race overhead stretches
// wall time but cannot stretch the measurement, which is what used to
// make this section flake.
func measureFailoverDrain(leaseTTL time.Duration) (drain time.Duration, failed int, forwarded, ctrlBytes int64, err error) {
	clk := vtime.NewVirtual()
	type result struct {
		drain                time.Duration
		failed               int
		forwarded, ctrlBytes int64
		err                  error
	}
	resCh := make(chan result, 1)
	go func() {
		r := func() result {
			c := cluster.New(cluster.Config{
				Mode: cluster.ModeFaasm, Hosts: 3,
				Runtime: frt.Config{Clock: clk, LeaseTTL: leaseTTL, PeerCacheTTL: 5 * time.Millisecond},
			})
			defer c.Shutdown()
			if err := c.Register("echo", func(api hostapi.API) (int32, error) {
				api.WriteOutput(api.Input())
				return 0, nil
			}); err != nil {
				return result{err: err}
			}
			// Warm host-1 only, then route traffic through host-0 so every
			// call forwards to the one warm peer.
			if _, _, err := c.CallOn(1, "echo", []byte("w")); err != nil {
				return result{err: err}
			}
			var r result
			for k := 0; k < 10; k++ {
				if _, _, err := c.CallOn(0, "echo", []byte("x")); err != nil {
					return result{err: err}
				}
			}
			r.forwarded = c.Instance(0).Scheduler().Stats.Forwarded.Load()

			c.KillHost(1)
			start := clk.Now()
			bytesBefore := c.Net.TotalBytes()
			hostBytesAtKill := c.Net.HostBytes("host-1")
			deadline := start.Add(10 * leaseTTL)
			for {
				// Traffic keeps flowing through the survivors the whole time.
				if _, _, err := c.CallOn(0, "echo", []byte("y")); err != nil {
					r.failed++
				}
				hosts, err := c.Instance(2).Scheduler().WarmHosts("echo")
				if err != nil {
					r.err = err
					return r
				}
				dead := false
				for _, h := range hosts {
					if h == "host-1" {
						dead = true
					}
				}
				if !dead {
					// Sanity: the dead host itself moved no bytes since the kill.
					r.ctrlBytes = c.Net.TotalBytes() - bytesBefore - c.Net.HostBytes("host-1") + hostBytesAtKill
					r.drain = clk.Now().Sub(start)
					return r
				}
				if clk.Now().After(deadline) {
					r.err = fmt.Errorf("dead host still listed after %v", clk.Now().Sub(start))
					return r
				}
				clk.Sleep(2 * time.Millisecond)
			}
		}()
		resCh <- r
	}()

	// The pump: advance virtual time to each next sleeper deadline until
	// the measurement goroutine reports in. A final advance releases the
	// survivors' heartbeat loops so they observe the shutdown and exit.
	for {
		select {
		case r := <-resCh:
			clk.Advance(leaseTTL)
			return r.drain, r.failed, r.forwarded, r.ctrlBytes, r.err
		default:
		}
		if t, ok := clk.NextDeadline(); ok {
			clk.AdvanceTo(t)
		}
		runtime.Gosched()
	}
}
