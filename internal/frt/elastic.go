package frt

import (
	"errors"
	"time"

	"faasm.dev/faasm/internal/core"
)

// elasticLoop is the warm-pool autoscaler (Config.ElasticPool). Once per
// ElasticInterval it reads each function's demand counters and either grows
// the pool ahead of demand or reclaims it after idleness. It is a background
// goroutine in the same sense as the resetters: nothing on a call's critical
// path ever waits for it.
func (i *Instance) elasticLoop() {
	defer close(i.elasticDone)
	interval := i.cfg.ElasticInterval
	if interval <= 0 {
		interval = defaultElasticInterval
	}
	for {
		i.clock.Sleep(interval)
		select {
		case <-i.elasticStop:
			return
		default:
		}
		i.elasticTick()
	}
}

// elasticTick runs one controller pass over every function pool.
func (i *Instance) elasticTick() {
	idleTimeout := i.cfg.PoolIdleTimeout
	if idleTimeout <= 0 {
		idleTimeout = DefaultPoolIdleTimeout
	}
	now := i.clock.Now()
	i.eachDeployment(func(d *deployment) {
		fn, p := d.def.Name, d.pool
		p.mu.Lock()
		newAcquires := p.acquires - p.seenAcquires
		newMisses := p.misses - p.seenMisses
		p.seenAcquires = p.acquires
		p.seenMisses = p.misses
		if newAcquires > 0 {
			p.idleSince = time.Time{}
		} else if p.idleSince.IsZero() {
			p.idleSince = now
		}
		idleFor := time.Duration(0)
		if !p.idleSince.IsZero() {
			idleFor = now.Sub(p.idleSince)
		}
		idleCount := len(p.idle)
		pooled := len(p.idle) + p.resetting
		p.mu.Unlock()

		switch {
		case newMisses > 0:
			// Calls paid cold starts on their critical path this tick: grow
			// ahead so the next ramp step finds the pool already provisioned.
			want := int(newMisses) * poolGrowFactor
			if room := i.cfg.PoolCap - pooled; want > room {
				want = room
			}
			i.prewarm(d, want)
		case newAcquires == 0 && idleCount > 0 && idleFor >= idleTimeout:
			// The pool sat unused for a full idle window: reclaim half its
			// idle Faaslets per tick (exponential decay, so a briefly idle
			// pool is not emptied in one shot).
			i.reclaimIdle(fn, p, (idleCount+1)/2)
		}
	})
}

// prewarm pre-provisions up to n reset Faaslets of d, making the misses
// that drove the growth the last ones to pay a cold start inline. A freshly
// created Faaslet is clean by construction, so it enters the idle pool
// directly — the same state a background reset leaves a pooled one in.
func (i *Instance) prewarm(d *deployment, n int) {
	fn, p := d.def.Name, d.pool
	for j := 0; j < n; j++ {
		// The provisioning cost is paid here, off every call's critical path
		// (this is the entire point of growing ahead).
		if i.cfg.ColdStartDelay > 0 {
			i.clock.Sleep(i.cfg.ColdStartDelay)
		}
		i.shutMu.RLock()
		if i.closed.Load() || i.killed.Load() || i.draining.Load() {
			i.shutMu.RUnlock()
			return
		}
		f, err := i.coldStart(d)
		if err != nil {
			i.shutMu.RUnlock()
			return
		}
		p.mu.Lock()
		if len(p.idle)+p.resetting >= i.cfg.PoolCap {
			p.mu.Unlock()
			i.shutMu.RUnlock()
			f.Close()
			return
		}
		p.idle = append(p.idle, f)
		p.live++
		p.cond.Broadcast()
		p.mu.Unlock()
		i.faasletCount.Add(1)
		i.Prewarmed.Add(1)
		i.sched.NoteWarm(fn, 1)
		i.shutMu.RUnlock()
	}
}

// reclaimIdle evicts up to n idle Faaslets from fn's pool, feeding the
// evictions through the scheduler so the warm set stays truthful: the idle
// count drops, and when the last live Faaslet goes the host retreats from
// fn entirely (its next lease no longer lists fn).
func (i *Instance) reclaimIdle(fn string, p *fnPool, n int) {
	p.mu.Lock()
	if n > len(p.idle) {
		n = len(p.idle)
	}
	if n == 0 {
		p.mu.Unlock()
		return
	}
	victims := make([]*core.Faaslet, n)
	copy(victims, p.idle[len(p.idle)-n:])
	for j := len(p.idle) - n; j < len(p.idle); j++ {
		p.idle[j] = nil
	}
	p.idle = p.idle[:len(p.idle)-n]
	p.live -= n
	last := p.live == 0
	p.mu.Unlock()

	for _, f := range victims {
		f.Close()
	}
	i.faasletCount.Add(int64(-n))
	i.IdleReclaims.Add(int64(n))
	i.sched.NoteEvicted(fn, n)
	if last {
		i.sched.Retreat(fn)
	}
}

// stopElastic ends the controller goroutine (idempotent; no-op when
// ElasticPool is off).
func (i *Instance) stopElastic() {
	if i.elasticStop == nil {
		return
	}
	i.elasticOnce.Do(func() { close(i.elasticStop) })
}

// Kill simulates a host crash for tests and experiments: the instance stops
// heartbeating and refuses all work — including forwarded work from peers —
// but deliberately retreats from nothing. Its lease lingers exactly as a
// crashed host's would, and peers must discover the death through lease
// expiry (plus the transport-failure fallback in the meantime).
func (i *Instance) Kill() {
	i.killed.Store(true)
	i.sched.StopHeartbeat()
	i.stopElastic()
}

// Killed reports whether Kill was called.
func (i *Instance) Killed() bool { return i.killed.Load() }

// ErrDown marks a call a killed host refused before executing any of it,
// so a front door may route the call to another host.
var ErrDown = errors.New("down")

// ErrDraining marks work refused because the instance is gracefully
// stopping. Forwarding peers treat it like any transport failure and fall
// back locally, so a drain never fails a call.
var ErrDraining = errors.New("draining")

// Drain begins a graceful stop. The instance stops heartbeating and deletes
// its lease (each peer's next beat drops it from the view), the elastic
// controller stops growing pools, and forwarded-in work is refused so
// callers fall back. Calls already in flight — local or forwarded — run to
// completion, and calls entered locally during the drain still execute
// (forwarded away when a warm peer exists). Reclaim the instance with
// Shutdown once Inflight reaches zero. Idempotent; returns the lease
// deletion's error, if any (the lease then expires within one TTL).
func (i *Instance) Drain() error {
	if i.draining.Swap(true) {
		return nil
	}
	i.stopElastic()
	return i.sched.Drain()
}

// Draining reports whether Drain was called.
func (i *Instance) Draining() bool { return i.draining.Load() }

// Inflight reports calls currently executing on this host. A draining
// instance with zero in-flight calls is safe to Shutdown.
func (i *Instance) Inflight() int { return i.sched.Inflight() }
