// Package autoscale is the cluster control plane: a declarative supervisor
// that watches cluster-wide load signals the runtime already exports —
// per-host in-flight calls and warm-pool miss rates — and drives whole-host
// lifecycle to follow demand. It is the host-level counterpart of the
// per-host elastic warm-pool controller (frt.Config.ElasticPool): that one
// sizes pools within a host, this one sizes the fleet, in the
// faasd/Cloudburst monitoring-loop shape.
//
// The controller is deliberately boring: a single reconcile loop with
// hysteresis (sustained pressure scales up, sustained idleness scales
// down), a cooldown between scale actions so one burst cannot slosh the
// fleet, and hard min/max clamps. Scale-down is always the safe drain the
// scheduler proved out — stop advertising, let the sched/alive/<host>
// lease expire so weighted forwarding routes around the host, reclaim only
// once its last in-flight call finishes — so following load never fails a
// call. Crashed hosts are reclaimed and replaced: the declarative loop
// restores the fleet to spec rather than reacting to individual events.
// The controller has no loop of its own; its owner calls Tick on whatever
// cadence (wall or virtual clock) it runs.
package autoscale

import (
	"sync"
	"time"

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
	// (default DefaultCooldown). Crash replacement and the MinHosts floor
	// ignore it — availability beats smoothing.
	Cooldown time.Duration
}

// Spec defaults.
const (
	DefaultMinHosts = 1
	DefaultMaxHosts = 8
	// DefaultCooldown is eight ticks of a 50 ms reconcile cadence.
	DefaultCooldown = 400 * time.Millisecond
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
	if s.Cooldown <= 0 {
		s.Cooldown = DefaultCooldown
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

// Status is the controller's lifetime decision counts. ScaleDowns counts
// drains begun; Drains counts reclaims completed.
type Status struct {
	ScaleUps   int64
	ScaleDowns int64
	Drains     int64
	Restarts   int64
}

// Controller reconciles a Fleet toward its Spec. Create with NewController;
// drive with Tick.
type Controller struct {
	fleet Fleet
	spec  Spec
	clock vtime.Clock

	mu         sync.Mutex
	pressure   int
	idleness   int
	lastScale  time.Time
	scaled     bool // lastScale set (distinguishes the zero time)
	missCursor map[int]int64
	st         Status
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

// Tick runs one reconcile pass and returns the decisions it made, in
// order. Deterministic and synchronous.
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
		switch {
		case s.Killed:
			if err := c.fleet.ReclaimHost(s.Index); err != nil {
				continue
			}
			delete(c.missCursor, s.Index)
			actions = append(actions, Action{Kind: ActionReclaim, Host: s.Index})
			c.st.Drains++
			if h, err := c.fleet.AddHost(); err == nil {
				actions = append(actions, Action{Kind: ActionRestart, Host: h})
				c.st.Restarts++
			}
		case s.Draining && s.Inflight == 0:
			if err := c.fleet.ReclaimHost(s.Index); err != nil {
				continue
			}
			delete(c.missCursor, s.Index)
			actions = append(actions, Action{Kind: ActionReclaim, Host: s.Index})
			c.st.Drains++
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
		actions = append(actions, Action{Kind: ActionScaleUp, Host: h})
		c.st.ScaleUps++
		active = append(active, HostSignals{Index: h})
	}
	if len(active) == 0 {
		return actions
	}

	load := (float64(inflight) + float64(missDelta)) / float64(len(active))
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
		actions = append(actions, Action{Kind: ActionScaleUp, Host: h})
		c.st.ScaleUps++
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
		actions = append(actions, Action{Kind: ActionDrain, Host: victim.Index})
		c.st.ScaleDowns++
		c.idleness = 0
		c.lastScale = c.clock.Now()
		c.scaled = true
	}
	return actions
}

// Status snapshots the controller's decision counts.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st
}
