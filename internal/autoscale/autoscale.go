// Package autoscale is the cluster control plane: a declarative supervisor
// that watches cluster-wide load signals the runtime already exports —
// per-host in-flight calls, warm-pool miss rates, liveness-lease heartbeat
// ages — and drives whole-host lifecycle to follow demand. It is the
// host-level counterpart of the per-host elastic warm-pool controller
// (frt.Config.ElasticPool): that one sizes pools within a host, this one
// sizes the fleet, in the faasd/Cloudburst monitoring-loop shape.
//
// The controller is deliberately boring: a single reconcile loop with
// hysteresis (sustained pressure scales up, sustained idleness scales
// down), a cooldown between scale actions so one burst cannot slosh the
// fleet, and hard min/max clamps. Scale-down is always the safe drain the
// scheduler proved out — stop advertising, let the sched/alive/<host>
// lease expire so weighted forwarding routes around the host, reclaim only
// once its last in-flight call finishes — so following load never fails a
// call. Crashed hosts (stale heartbeat, killed flag) are reclaimed and,
// when the policy asks, replaced: the declarative loop restores the fleet
// to spec rather than reacting to individual events.
package autoscale

import (
	"fmt"
	"sync"
	"time"

	"faasm.dev/faasm/internal/obsv"
	"faasm.dev/faasm/internal/vtime"
)

// HostSignals is one host slot's load snapshot, as reported by the Fleet.
type HostSignals struct {
	// Index is the slot index (stable for the cluster's life).
	Index int
	// Host is the instance's cluster-unique name.
	Host string
	// Inflight is calls currently executing on the host.
	Inflight int
	// PoolMisses is the host's cumulative warm-pool miss counter; the
	// controller differentiates it per tick to get a miss rate.
	PoolMisses int64
	// HeartbeatAge is the time since the host last wrote its liveness
	// lease (0 = never advertised anything, which is not a crash).
	HeartbeatAge time.Duration
	// Draining, Killed, Removed describe lifecycle state: gracefully
	// stopping, crashed, reclaimed.
	Draining bool
	Killed   bool
	Removed  bool
}

// Fleet is the host substrate the controller supervises. cluster.Cluster
// implements it via AutoFleet; tests use fakes.
type Fleet interface {
	// Signals snapshots every host slot, reclaimed ones included.
	Signals() []HostSignals
	// AddHost provisions one new host and returns its slot index.
	AddHost() (int, error)
	// DrainHost gracefully stops host h (leaves rotation, lease expires,
	// in-flight finishes).
	DrainHost(h int) error
	// ReclaimHost releases a drained or crashed host's resources.
	ReclaimHost(h int) error
}

// Spec declares the desired fleet shape and the hysteresis policy. Zero
// values take the defaults noted on each field.
type Spec struct {
	// MinHosts / MaxHosts clamp the fleet (defaults DefaultMinHosts /
	// DefaultMaxHosts). The controller restores MinHosts unconditionally —
	// that is the declarative floor.
	MinHosts int
	MaxHosts int
	// HighWater is the per-active-host load (in-flight + new pool misses
	// per tick) above which pressure accumulates toward a scale-up
	// (default 2). LowWater is the load below which idleness accumulates
	// toward a scale-down (default 0.25).
	HighWater float64
	LowWater  float64
	// SustainTicks is how many consecutive over-HighWater ticks trigger a
	// scale-up (default 2); IdleTicks the consecutive under-LowWater ticks
	// for a scale-down (default 4). Hysteresis: one spiky tick moves
	// nothing.
	SustainTicks int
	IdleTicks    int
	// Cooldown is the minimum gap between voluntary scale actions
	// (default 8×Tick). Crash replacement and the MinHosts floor ignore
	// it — availability beats smoothing.
	Cooldown time.Duration
	// Tick is the reconcile cadence for the background loop (default
	// 50ms). Tests and experiments may instead call Tick() directly.
	Tick time.Duration
	// HeartbeatTimeout, when >0, treats a host whose last lease write is
	// older than this as crashed even if nothing flagged it killed (a
	// wedged process stops beating long before anything else notices).
	HeartbeatTimeout time.Duration
	// NoRestart disables restart-on-crash. By default the supervisor
	// replaces reclaimed crash victims with fresh hosts even above
	// MinHosts — the declarative loop restores the declared fleet.
	NoRestart bool
}

// Fleet-bound defaults.
const (
	DefaultMinHosts = 1
	DefaultMaxHosts = 8
)

// withDefaults fills zero fields.
func (s Spec) withDefaults() Spec {
	if s.MinHosts <= 0 {
		s.MinHosts = DefaultMinHosts
	}
	if s.MaxHosts <= 0 {
		s.MaxHosts = DefaultMaxHosts
	}
	if s.MaxHosts < s.MinHosts {
		s.MaxHosts = s.MinHosts
	}
	if s.HighWater <= 0 {
		s.HighWater = 2
	}
	if s.LowWater <= 0 {
		s.LowWater = 0.25
	}
	if s.SustainTicks <= 0 {
		s.SustainTicks = 2
	}
	if s.IdleTicks <= 0 {
		s.IdleTicks = 4
	}
	if s.Tick <= 0 {
		s.Tick = 50 * time.Millisecond
	}
	if s.Cooldown <= 0 {
		s.Cooldown = 8 * s.Tick
	}
	return s
}

// ActionKind labels one lifecycle decision.
type ActionKind string

// Actions the controller takes.
const (
	ActionScaleUp ActionKind = "scale-up" // new host provisioned for load
	ActionDrain   ActionKind = "drain"    // host began its graceful stop
	ActionReclaim ActionKind = "reclaim"  // drained/crashed host released
	ActionRestart ActionKind = "restart"  // crash victim replaced
)

// Action is one decision from one reconcile pass.
type Action struct {
	Kind ActionKind
	// Host is the slot index acted on (the new host's for scale-up and
	// restart).
	Host int
}

func (a Action) String() string { return fmt.Sprintf("%s host %d", a.Kind, a.Host) }

// Status is a point-in-time controller snapshot (faasmd /status).
type Status struct {
	// Hosts is live (non-reclaimed) slots; Active the subset accepting
	// traffic; Draining the subset winding down.
	Hosts    int
	Active   int
	Draining int
	// Load is the last tick's per-active-host load.
	Load float64
	// Pressure / Idleness are the hysteresis accumulators, in ticks.
	Pressure int
	Idleness int
	// ScaleUps, ScaleDowns, Drains, Restarts are lifetime decision counts.
	// (ScaleDowns counts drains begun; Drains counts reclaims completed.)
	ScaleUps   int64
	ScaleDowns int64
	Drains     int64
	Restarts   int64
	// LastAction is the most recent decision ("" before the first).
	LastAction string
	// CooldownRemaining is how long voluntary scaling stays frozen.
	CooldownRemaining time.Duration
}

// Controller reconciles a Fleet toward its Spec. Create with NewController;
// drive with Start/Stop (background loop) or explicit Tick calls.
type Controller struct {
	fleet Fleet
	spec  Spec
	clock vtime.Clock

	mu         sync.Mutex
	pressure   int
	idleness   int
	lastLoad   float64
	lastScale  time.Time
	scaled     bool // lastScale set (distinguishes the zero time)
	missCursor map[int]int64
	lastAction string

	scaleUps   int64
	scaleDowns int64
	drains     int64
	restarts   int64

	loopMu sync.Mutex
	stop   chan struct{}
	done   chan struct{}
}

// NewController builds a controller for fleet with spec's policy (zero
// fields defaulted). clock nil = wall clock.
func NewController(fleet Fleet, spec Spec, clock vtime.Clock) *Controller {
	if clock == nil {
		clock = vtime.Real{}
	}
	return &Controller{
		fleet:      fleet,
		spec:       spec.withDefaults(),
		clock:      clock,
		missCursor: map[int]int64{},
	}
}

// Spec reports the controller's effective (defaulted) policy.
func (c *Controller) Spec() Spec { return c.spec }

// Tick runs one reconcile pass and returns the decisions it made, in
// order. Deterministic and synchronous: experiments drive it directly, the
// background loop calls it on a cadence.
func (c *Controller) Tick() []Action {
	c.mu.Lock()
	defer c.mu.Unlock()

	sig := c.fleet.Signals()
	var actions []Action

	// Pass 1 — supervision: reclaim finished drains and dead hosts,
	// replace crash victims. None of this waits for the cooldown;
	// restoring the declared fleet is not a load decision.
	for _, s := range sig {
		if s.Removed {
			delete(c.missCursor, s.Index)
			continue
		}
		crashed := s.Killed ||
			(c.spec.HeartbeatTimeout > 0 && s.HeartbeatAge > c.spec.HeartbeatTimeout)
		switch {
		case crashed:
			if err := c.fleet.ReclaimHost(s.Index); err != nil {
				continue
			}
			delete(c.missCursor, s.Index)
			actions = c.record(actions, Action{Kind: ActionReclaim, Host: s.Index})
			c.drains++
			if !c.spec.NoRestart {
				if h, err := c.fleet.AddHost(); err == nil {
					actions = c.record(actions, Action{Kind: ActionRestart, Host: h})
					c.restarts++
				}
			}
		case s.Draining && s.Inflight == 0:
			if err := c.fleet.ReclaimHost(s.Index); err != nil {
				continue
			}
			delete(c.missCursor, s.Index)
			actions = c.record(actions, Action{Kind: ActionReclaim, Host: s.Index})
			c.drains++
		}
	}

	// Pass 2 — load: differentiate pool misses, average load over the
	// active set, accumulate hysteresis.
	sig = c.fleet.Signals()
	var active []HostSignals
	var inflight int
	var missDelta int64
	for _, s := range sig {
		if s.Removed || s.Draining || s.Killed {
			continue
		}
		active = append(active, s)
		inflight += s.Inflight
		if prev, ok := c.missCursor[s.Index]; ok && s.PoolMisses > prev {
			missDelta += s.PoolMisses - prev
		}
		c.missCursor[s.Index] = s.PoolMisses
	}

	// Declarative floor: below MinHosts the controller adds hosts
	// unconditionally.
	for len(active) < c.spec.MinHosts {
		h, err := c.fleet.AddHost()
		if err != nil {
			break
		}
		actions = c.record(actions, Action{Kind: ActionScaleUp, Host: h})
		c.scaleUps++
		active = append(active, HostSignals{Index: h})
	}
	if len(active) == 0 {
		return actions
	}

	load := (float64(inflight) + float64(missDelta)) / float64(len(active))
	c.lastLoad = load
	switch {
	case load > c.spec.HighWater:
		c.pressure++
		c.idleness = 0
	case load < c.spec.LowWater:
		c.idleness++
		c.pressure = 0
	default:
		c.pressure = 0
		c.idleness = 0
	}

	if c.scaled && c.clock.Now().Sub(c.lastScale) < c.spec.Cooldown {
		return actions
	}
	switch {
	case c.pressure >= c.spec.SustainTicks && len(active) < c.spec.MaxHosts:
		h, err := c.fleet.AddHost()
		if err != nil {
			return actions
		}
		actions = c.record(actions, Action{Kind: ActionScaleUp, Host: h})
		c.scaleUps++
		c.pressure = 0
		c.lastScale = c.clock.Now()
		c.scaled = true
	case c.idleness >= c.spec.IdleTicks && len(active) > c.spec.MinHosts:
		// Drain the least-loaded active host, newest first on ties: the
		// fleet shrinks from the edge it grew.
		victim := active[len(active)-1]
		for i := len(active) - 1; i >= 0; i-- {
			if active[i].Inflight < victim.Inflight {
				victim = active[i]
			}
		}
		if err := c.fleet.DrainHost(victim.Index); err != nil {
			return actions
		}
		actions = c.record(actions, Action{Kind: ActionDrain, Host: victim.Index})
		c.scaleDowns++
		c.idleness = 0
		c.lastScale = c.clock.Now()
		c.scaled = true
	}
	return actions
}

// record appends a and notes it as the last action (c.mu held).
func (c *Controller) record(actions []Action, a Action) []Action {
	c.lastAction = a.String()
	return append(actions, a)
}

// Status snapshots the controller (faasmd /status, experiments).
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		Load:       c.lastLoad,
		Pressure:   c.pressure,
		Idleness:   c.idleness,
		ScaleUps:   c.scaleUps,
		ScaleDowns: c.scaleDowns,
		Drains:     c.drains,
		Restarts:   c.restarts,
		LastAction: c.lastAction,
	}
	if c.scaled {
		if rem := c.spec.Cooldown - c.clock.Now().Sub(c.lastScale); rem > 0 {
			st.CooldownRemaining = rem
		}
	}
	for _, s := range c.fleet.Signals() {
		if s.Removed {
			continue
		}
		st.Hosts++
		switch {
		case s.Draining:
			st.Draining++
		case !s.Killed:
			st.Active++
		}
	}
	return st
}

// Instrument registers the controller's metrics:
// faasm_autoscale_hosts (gauge, hosts in the ingress rotation),
// faasm_autoscale_scale_ups_total, faasm_autoscale_scale_downs_total
// (drains begun), faasm_autoscale_drains_total (reclaims completed), and
// faasm_autoscale_restarts_total (crash replacements). Read at scrape
// time; nothing on the reconcile path.
func (c *Controller) Instrument(reg *obsv.Registry) {
	get := func(f func(*Controller) int64) func() int64 {
		return func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return f(c)
		}
	}
	reg.GaugeFunc("faasm_autoscale_hosts", "hosts accepting traffic", nil, func() int64 {
		var n int64
		for _, s := range c.fleet.Signals() {
			if !s.Removed && !s.Draining && !s.Killed {
				n++
			}
		}
		return n
	})
	reg.CounterFunc("faasm_autoscale_scale_ups_total", "hosts added for load", nil, get(func(c *Controller) int64 { return c.scaleUps }))
	reg.CounterFunc("faasm_autoscale_scale_downs_total", "host drains begun for idleness", nil, get(func(c *Controller) int64 { return c.scaleDowns }))
	reg.CounterFunc("faasm_autoscale_drains_total", "host drains completed (reclaims)", nil, get(func(c *Controller) int64 { return c.drains }))
	reg.CounterFunc("faasm_autoscale_restarts_total", "crashed hosts replaced", nil, get(func(c *Controller) int64 { return c.restarts }))
}

// Start launches the background reconcile loop at Spec.Tick cadence.
// Idempotent while running.
func (c *Controller) Start() {
	c.loopMu.Lock()
	defer c.loopMu.Unlock()
	if c.stop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	c.stop, c.done = stop, done
	go func() {
		defer close(done)
		for {
			c.clock.Sleep(c.spec.Tick)
			select {
			case <-stop:
				return
			default:
			}
			c.Tick()
		}
	}()
}

// Stop ends the background loop and waits it out.
func (c *Controller) Stop() {
	c.loopMu.Lock()
	defer c.loopMu.Unlock()
	if c.stop == nil {
		return
	}
	close(c.stop)
	<-c.done
	c.stop, c.done = nil, nil
}
