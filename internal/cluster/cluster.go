// Package cluster is the multi-host experiment harness standing in for the
// paper's 20-node Kubernetes testbed (§6.1). It instantiates N hosts
// running either the FAASM runtime (internal/frt) or the container baseline
// (internal/baseline), wires them to one global tier through a simulated
// 1 Gbps network, and drives them on a scaled clock so second-scale
// phenomena (container cold starts, training epochs) reproduce in
// milliseconds of wall time.
//
// Calls enter round-robin across hosts, exactly as §5.1 describes the
// platform's ingress; FAASM's distributed scheduler then shares work with
// warm hosts, while the baseline executes wherever the load balancer put
// the call.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"faasm.dev/faasm/internal/baseline"
	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/hostapi"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/mbus"
	"faasm.dev/faasm/internal/obsv"
	"faasm.dev/faasm/internal/queue"
	"faasm.dev/faasm/internal/shardkvs"
	"faasm.dev/faasm/internal/simnet"
	"faasm.dev/faasm/internal/vtime"
)

// Mode selects the platform under test.
type Mode int

// Modes.
const (
	ModeFaasm Mode = iota
	ModeBaseline
)

func (m Mode) String() string {
	if m == ModeFaasm {
		return "faasm"
	}
	return "knative"
}

// Simulated-testbed constants: every host link is 1 Gbps with a 0.5 ms
// per-operation latency, and FAASM cold starts cost Table 3's measured
// initialisation (5.2 ms for a Faaslet, 0.5 ms for a Proto-Faaslet restore).
const (
	linkBandwidth  = simnet.Gigabit
	linkLatency    = 500 * time.Microsecond
	faasmColdStart = 5200 * time.Microsecond
	protoColdStart = 500 * time.Microsecond
)

// Config sizes a cluster.
type Config struct {
	Mode  Mode
	Hosts int
	// TimeScale speeds the experiment clock (default 100×).
	TimeScale float64
	// UseProto enables Proto-Faaslet restores for cold starts (FAASM mode).
	UseProto bool
	// Baseline knobs; zero values use the paper's measured constants.
	ContainerColdStart time.Duration
	HostMemBytes       int64
	// Capacity bounds concurrent executions per host (0 = unlimited).
	Capacity int
	// StateShards sizes the global state tier: 1 (default) keeps the
	// paper's single Redis-like engine, >1 shards the key space across
	// that many engines with a consistent-hash ring (internal/shardkvs).
	StateShards int
	// StateReplicas is the copies kept per key when sharded (default 1).
	StateReplicas int
	// StateWriteQuorum is how many copies must acknowledge a replicated
	// write (0 = all). With W < replicas the tier keeps accepting writes
	// while a shard is down; see shardkvs.Options.WriteQuorum.
	StateWriteQuorum int
	// FaultyShards wraps every tier shard in a fault injector
	// (simnet.FaultShard) so chaos experiments can kill and revive shards;
	// requires StateShards > 1.
	FaultyShards bool
	// CoLocateShards models each host h < StateShards co-hosting shard-h:
	// those hosts' residency adverts credit keys whose healthy primary is
	// their co-located shard. Requires StateShards > 1.
	CoLocateShards bool
	// Runtime is the frt.Config every FAASM host copies. The cluster sets
	// the per-host fields on each copy (Host, Store, Clock, Capacity,
	// Transport, ColdStartDelay, Tracer, Registry, and StateOwners and
	// LocalShard under CoLocateShards). Durations run on the experiment
	// clock, which the tier's engines share, so leases expire in experiment
	// time. Three knobs also act cluster-wide: Clock, when set, is the
	// cluster clock (nil = vtime.NewScaled(TimeScale)), so deflaked
	// experiments can share one virtual timeline with lease expiry;
	// TraceSample and TraceBuffer size the one tracer all hosts share, so a
	// forwarded call's spans land in one record; and Queue also sizes the
	// ingress-side client handle behind SubmitAsync/AwaitAsync, which
	// survives the death of any single host.
	Runtime frt.Config
}

// Cluster is a live experiment cluster.
type Cluster struct {
	cfg   Config
	Clock vtime.Clock
	Net   *simnet.Network
	// State is the global tier: one kvs.Engine, or a shardkvs.Ring when
	// cfg.StateShards > 1.
	State kvs.Store

	// Tracer and Registry are shared by every FAASM host: one trace store
	// (cross-host spans join by id) and one metric namespace (host labels
	// keep series apart).
	Tracer   *obsv.Tracer
	Registry *obsv.Registry

	// faasm is the slot list New builds; it never grows or shrinks, so host
	// indexes stay stable for the cluster's whole life. mu orders rotation
	// changes (KillHost / DrainHost / ReclaimHost). active is the
	// copy-on-write ingress snapshot — hosts currently accepting new
	// round-robin traffic — rebuilt on every rotation change so the Call
	// hot path is one atomic load.
	mu     sync.Mutex
	faasm  []*faasmHost
	active atomic.Pointer[[]*frt.Instance]

	base []*baseline.Platform
	rr   atomic.Uint64

	ring        *shardkvs.Ring
	shardFaults []*simnet.FaultShard

	// clientQueue is the ingress-side async handle (nil unless
	// Config.Runtime.Queue): consumer-less, tier-backed, so awaiting a queued
	// call does not depend on any particular host staying alive.
	clientQueue *queue.Queue
}

// faasmHost is one host slot. A slot is never deleted — a reclaimed host
// keeps its index with removed set, so Instance(h) and KillHost(h) stay
// valid after a drain or a crash.
type faasmHost struct {
	inst    *frt.Instance
	removed atomic.Bool
}

// New builds and starts a cluster.
func New(cfg Config) *Cluster {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 1
	}
	if cfg.TimeScale == 0 {
		cfg.TimeScale = 100
	}
	c := &Cluster{cfg: cfg, Clock: cfg.Runtime.Clock}
	if c.Clock == nil {
		c.Clock = vtime.NewScaled(cfg.TimeScale)
	}
	c.Net = simnet.New(linkBandwidth, linkLatency, c.Clock)
	rate := cfg.Runtime.TraceSample
	if rate == 0 {
		rate = obsv.DefaultSampleRate
	}
	c.Tracer = obsv.NewTracer(c.Clock.Now, rate, cfg.Runtime.TraceBuffer)
	c.Registry = obsv.NewRegistry()
	// Tier engines judge key expiry (liveness leases, SETEX'd state) on
	// their own clock; hand them the experiment clock so tier-side TTLs
	// run in experiment time like every other duration in the harness.
	newEngine := func() *kvs.Engine {
		eng := kvs.NewEngine()
		eng.SetNowFunc(c.Clock.Now)
		return eng
	}
	if cfg.StateShards > 1 {
		shards := make([]shardkvs.Shard, cfg.StateShards)
		for i := range shards {
			var store kvs.Store = newEngine()
			if cfg.FaultyShards {
				fs := simnet.NewFaultShard(store)
				c.shardFaults = append(c.shardFaults, fs)
				store = fs
			}
			shards[i] = shardkvs.Shard{ID: fmt.Sprintf("shard-%d", i), Store: store}
		}
		ring, err := shardkvs.New(shardkvs.Options{
			Replication: cfg.StateReplicas,
			WriteQuorum: cfg.StateWriteQuorum,
		}, shards...)
		if err != nil {
			panic(err) // shard-0..n-1 are distinct and n > 1
		}
		ring.Instrument(c.Registry)
		c.ring = ring
		c.State = ring
	} else {
		eng := newEngine()
		eng.Instrument(c.Registry, "global")
		c.State = eng
	}

	for h := 0; h < cfg.Hosts; h++ {
		host := fmt.Sprintf("host-%d", h)
		switch cfg.Mode {
		case ModeFaasm:
			c.faasm = append(c.faasm, &faasmHost{inst: c.newFaasmInstance(h, host)})
		case ModeBaseline:
			store := simnet.NewStore(c.State, c.Net, host)
			p := baseline.New(baseline.Config{
				Host:         host,
				Store:        store,
				Clock:        c.Clock,
				Net:          c.Net,
				Router:       (*baselineRouter)(c),
				ColdStart:    cfg.ContainerColdStart,
				HostMemBytes: cfg.HostMemBytes,
				Capacity:     cfg.Capacity,
			})
			c.base = append(c.base, p)
		}
	}
	c.refreshActive()
	if cfg.Runtime.Queue != nil && cfg.Mode == ModeFaasm {
		qc := *cfg.Runtime.Queue
		qc.Store, qc.Clock, qc.Host = simnet.NewStore(c.State, c.Net, "ingress"), c.Clock, "ingress"
		c.clientQueue = queue.New(qc, nil)
	}
	return c
}

// newFaasmInstance builds one FAASM runtime host wired to the cluster's
// tier, network, clock, tracer, and registry. h is the host's slot index
// (shard co-location is positional); host its cluster-unique name.
func (c *Cluster) newFaasmInstance(h int, host string) *frt.Instance {
	fc := c.cfg.Runtime
	fc.Host = host
	fc.Store = simnet.NewStore(c.State, c.Net, host)
	fc.Clock = c.Clock
	fc.Capacity = c.cfg.Capacity
	fc.Transport = (*faasmTransport)(c)
	fc.ColdStartDelay = faasmColdStart
	if c.cfg.UseProto {
		fc.ColdStartDelay = protoColdStart
	}
	fc.Tracer, fc.Registry = c.Tracer, c.Registry
	if c.cfg.CoLocateShards && c.ring != nil && h < c.cfg.StateShards {
		fc.StateOwners = c.ring.HealthyOwners
		fc.LocalShard = fmt.Sprintf("shard-%d", h)
	}
	return frt.New(fc)
}

// refreshActive rebuilds the ingress snapshot: hosts that are neither
// removed, draining, nor killed. Call with c.mu held (or from New, before
// the cluster is shared).
func (c *Cluster) refreshActive() {
	act := make([]*frt.Instance, 0, len(c.faasm))
	for _, s := range c.faasm {
		if s.removed.Load() || s.inst.Draining() || s.inst.Killed() {
			continue
		}
		act = append(act, s.inst)
	}
	c.active.Store(&act)
}

// ingress returns the instances currently accepting front-door traffic,
// falling back to every non-removed host when the active set is empty (a
// fully draining cluster still executes rather than failing calls).
func (c *Cluster) ingress() []*frt.Instance {
	if act := *c.active.Load(); len(act) > 0 {
		return act
	}
	var all []*frt.Instance
	for _, s := range c.faasm {
		if !s.removed.Load() {
			all = append(all, s.inst)
		}
	}
	return all
}

// leftIngress reports whether inst is out of a non-empty ingress rotation.
// It reads the rotation under mu, which KillHost holds from the kill until
// the rotation no longer lists the host.
func (c *Cluster) leftIngress(inst *frt.Instance) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	act := *c.active.Load()
	return len(act) > 0 && !slices.Contains(act, inst)
}

// Hosts reports live FAASM hosts — slots not yet reclaimed (draining and
// killed hosts count until ReclaimHost) — or the configured host count in
// baseline mode, where membership is static.
func (c *Cluster) Hosts() int {
	if c.cfg.Mode != ModeFaasm {
		return c.cfg.Hosts
	}
	n := 0
	for _, s := range c.faasm {
		if !s.removed.Load() {
			n++
		}
	}
	return n
}

// ActiveHosts reports hosts currently accepting front-door traffic (not
// removed, draining, or killed).
func (c *Cluster) ActiveHosts() int { return len(*c.active.Load()) }

// Instance returns host h's FAASM runtime (FAASM mode; tests and
// experiments reach per-host schedulers and counters through it).
func (c *Cluster) Instance(h int) *frt.Instance { return c.faasm[h].inst }

// KillHost simulates a crash of host h (FAASM mode): the instance stops
// heartbeating and fails every call, local or forwarded, without retreating
// from anything — the cluster must notice through lease expiry, exactly as
// it would a real dead machine. The front door stops routing new calls to
// the corpse (a load balancer health check converges far faster than lease
// expiry); peer forwarding still reaches it until the lease goes.
func (c *Cluster) KillHost(h int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.faasm[h].inst.Kill()
	c.refreshActive()
}

// DrainHost gracefully stops host h: it leaves the ingress rotation, its
// lease is deleted so each peer's next beat drops it from the view, in-flight
// calls finish, and new forwarded-in work is refused (callers fall back
// locally). Reclaim the host with ReclaimHost once its in-flight count
// reaches zero.
func (c *Cluster) DrainHost(h int) error {
	s := c.faasm[h]
	if s.removed.Load() {
		return fmt.Errorf("cluster: host %d already reclaimed", h)
	}
	err := s.inst.Drain()
	c.mu.Lock()
	c.refreshActive()
	c.mu.Unlock()
	return err
}

// ReclaimHost releases a drained (or killed) host's resources: its pooled
// Faaslets close and the slot is marked removed — the index stays valid,
// the name is never reused. Refuses a live host, or a draining one still
// running calls; a killed host has crashed, so nothing it runs is waited
// for, even when the crash landed mid-drain.
func (c *Cluster) ReclaimHost(h int) error {
	s := c.faasm[h]
	if s.removed.Load() {
		return nil
	}
	if !s.inst.Draining() && !s.inst.Killed() {
		return fmt.Errorf("cluster: host %d is live; drain it first", h)
	}
	if !s.inst.Killed() && s.inst.Inflight() > 0 {
		return fmt.Errorf("cluster: host %d still has %d calls in flight", h, s.inst.Inflight())
	}
	s.inst.Shutdown()
	s.removed.Store(true)
	c.mu.Lock()
	c.refreshActive()
	c.mu.Unlock()
	return nil
}

// HostRemoved reports whether host h has been reclaimed.
func (c *Cluster) HostRemoved(h int) bool { return c.faasm[h].removed.Load() }

// StateRing exposes the sharded tier's ring (nil when StateShards <= 1) —
// chaos experiments read its health and failure counters through it.
func (c *Cluster) StateRing() *shardkvs.Ring { return c.ring }

// KillShard crashes tier shard i: every operation against it fails as
// unavailable until RestoreShard. Requires Config.FaultyShards.
func (c *Cluster) KillShard(i int) { c.shardFaults[i].Crash() }

// RestoreShard revives a killed tier shard; its data is intact but stale
// until HealState re-syncs it.
func (c *Cluster) RestoreShard(i int) { c.shardFaults[i].Restore() }

// HealState re-syncs suspect tier shards from the in-sync copies and
// returns them to the read set (no-op on an unsharded tier).
func (c *Cluster) HealState() (shardkvs.HealStats, error) {
	if c.ring == nil {
		return shardkvs.HealStats{}, nil
	}
	return c.ring.Heal()
}

// faasmTransport shares work between FAASM instances, paying network costs
// for the call payloads.
type faasmTransport Cluster

// ExecuteOn implements frt.Transport. The forwarding host's trace id rides
// along, so the remote half of the invocation joins the same trace.
func (t *faasmTransport) ExecuteOn(host, fn string, input []byte, trace obsv.TraceID) ([]byte, int32, error) {
	c := (*Cluster)(t)
	var target *frt.Instance
	for _, s := range c.faasm {
		// Draining hosts stay reachable (they refuse, the caller falls
		// back); reclaimed ones are gone from the network.
		if !s.removed.Load() && s.inst.Host() == host {
			target = s.inst
			break
		}
	}
	if target == nil {
		return nil, -1, fmt.Errorf("cluster: unknown host %q", host)
	}
	c.Net.Transfer(host, int64(len(input))+64, 64)
	out, ret, err := target.ExecuteForwarded(fn, input, trace)
	if err == nil {
		c.Net.Transfer(host, 64, int64(len(out))+64)
	}
	return out, ret, err
}

// baselineRouter load-balances chained baseline calls round-robin, as the
// platform front door does.
type baselineRouter Cluster

// Route implements baseline.Router.
func (r *baselineRouter) Route(fn string, input []byte) ([]byte, int32, error) {
	c := (*Cluster)(r)
	idx := int(c.rr.Add(1)) % len(c.base)
	return c.base[idx].Execute(fn, input)
}

// Register deploys a portable guest on every host. In FAASM mode with
// UseProto, host 0 generates the function's Proto-Faaslet and the other
// hosts restore it from the global tier (the cross-host restore path).
func (c *Cluster) Register(fn string, g hostapi.Guest) error {
	switch c.cfg.Mode {
	case ModeFaasm:
		insts := make([]*frt.Instance, 0, len(c.faasm))
		for _, s := range c.faasm {
			if !s.removed.Load() {
				insts = append(insts, s.inst)
			}
		}
		for _, inst := range insts {
			if err := inst.RegisterNative(fn, hostapi.WrapGuest(g)); err != nil {
				return err
			}
		}
		if c.cfg.UseProto && len(insts) > 0 {
			if err := insts[0].GenerateProto(fn, nil); err != nil {
				return err
			}
			for _, inst := range insts[1:] {
				if err := inst.FetchProto(fn); err != nil {
					return err
				}
			}
		}
	case ModeBaseline:
		for _, p := range c.base {
			p.Register(fn, g)
		}
	}
	return nil
}

// SetState seeds the global tier directly (experiment setup, not charged to
// the network).
func (c *Cluster) SetState(key string, val []byte) error {
	return c.State.Set(key, val)
}

// GetState reads the global tier directly (verification, not charged).
func (c *Cluster) GetState(key string) ([]byte, error) {
	return c.State.Get(key)
}

// Call executes one function synchronously, entering round-robin across
// the hosts currently in the ingress rotation (draining, killed, and
// reclaimed hosts are skipped, as a front door's health checks would). A
// host killed after the call read the rotation refuses it before executing
// any of it; the call then enters again through the rotation the kill left.
func (c *Cluster) Call(fn string, input []byte) ([]byte, int32, error) {
	switch c.cfg.Mode {
	case ModeFaasm:
		for {
			hosts := c.ingress()
			if len(hosts) == 0 {
				return nil, -1, fmt.Errorf("cluster: no hosts")
			}
			inst := hosts[int(c.rr.Add(1))%len(hosts)]
			out, ret, err := inst.Call(fn, input)
			if errors.Is(err, frt.ErrDown) && c.leftIngress(inst) {
				continue
			}
			return out, ret, err
		}
	default:
		idx := int(c.rr.Add(1)) % len(c.base)
		return c.base[idx].Call(fn, input)
	}
}

// CallOn executes one function synchronously entering at host h (FAASM
// mode) — the failure experiments drive traffic through surviving hosts
// instead of the round-robin front door.
func (c *Cluster) CallOn(h int, fn string, input []byte) ([]byte, int32, error) {
	return c.faasm[h].inst.Call(fn, input)
}

// SubmitAsync enqueues one call into the durable async queue through a
// round-robin ingress host and acks with its call id. Once it returns, the
// call is tier-resident: it completes even if the accepting host dies the
// next instant. Backpressure (queue.ErrQueueFull) propagates to the caller;
// a host that is itself down is skipped for the next one.
func (c *Cluster) SubmitAsync(fn string, input []byte) (uint64, error) {
	if c.clientQueue == nil {
		return 0, fmt.Errorf("cluster: async queue disabled")
	}
	hosts := c.ingress()
	if len(hosts) == 0 {
		return 0, fmt.Errorf("cluster: no hosts")
	}
	start := int(c.rr.Add(1))
	var lastErr error
	for n := 0; n < len(hosts); n++ {
		inst := hosts[(start+n)%len(hosts)]
		id, err := inst.InvokeAsync(fn, input)
		if err == nil || errors.Is(err, queue.ErrQueueFull) {
			return id, err
		}
		lastErr = err
	}
	return 0, lastErr
}

// AwaitAsync blocks until an async call's terminal result, reading the tier
// directly (not through any host), so it survives the death of the host
// that accepted — or was executing — the call. timeout is experiment time;
// <= 0 waits forever.
func (c *Cluster) AwaitAsync(id uint64, timeout time.Duration) (mbus.CallRecord, error) {
	if c.clientQueue == nil {
		return mbus.CallRecord{}, fmt.Errorf("cluster: async queue disabled")
	}
	return c.clientQueue.Await(id, timeout)
}

// ChainThen records a static chain tier-side: every successful completion
// of fn enqueues next with fn's output as input.
func (c *Cluster) ChainThen(fn, next string) error {
	if c.clientQueue == nil {
		return fmt.Errorf("cluster: async queue disabled")
	}
	return c.clientQueue.Then(fn, next)
}

// QueueDepth reports fn's tier-side queued-plus-in-flight depth.
func (c *Cluster) QueueDepth(fn string) (int64, error) {
	if c.clientQueue == nil {
		return 0, fmt.Errorf("cluster: async queue disabled")
	}
	return c.clientQueue.Depth(fn)
}

// QueueDeadLetters lists fn's dead-lettered call ids.
func (c *Cluster) QueueDeadLetters(fn string) ([]uint64, error) {
	if c.clientQueue == nil {
		return nil, fmt.Errorf("cluster: async queue disabled")
	}
	return c.clientQueue.DeadLetters(fn)
}

// Stats aggregates cluster metrics for one experiment window.
type Stats struct {
	NetworkBytes int64
	GBSeconds    float64
	ColdStarts   int64
	WarmStarts   int64
	OOMFailures  int64
}

// allInstances lists every FAASM instance, reclaimed ones included — their
// counters still belong to the experiment window.
func (c *Cluster) allInstances() []*frt.Instance {
	out := make([]*frt.Instance, len(c.faasm))
	for i, s := range c.faasm {
		out[i] = s.inst
	}
	return out
}

// Stats snapshots the cluster's counters.
func (c *Cluster) Stats() Stats {
	var s Stats
	s.NetworkBytes = c.Net.TotalBytes()
	switch c.cfg.Mode {
	case ModeFaasm:
		for _, inst := range c.allInstances() {
			s.GBSeconds += gbSeconds(inst.Billable.Value())
			s.ColdStarts += inst.ColdStarts.Value()
			s.WarmStarts += inst.WarmStarts.Value()
		}
	default:
		for _, p := range c.base {
			s.GBSeconds += gbSeconds(p.Billable.Value())
			s.ColdStarts += p.ColdStarts.Value()
			s.WarmStarts += p.WarmStarts.Value()
			s.OOMFailures += p.OOMFailures.Value()
		}
	}
	return s
}

// gbSeconds converts a billable-memory counter, in obsv.KiBMicros units
// (1024 B·µs), to GB-seconds.
func gbSeconds(kibMicros int64) float64 { return float64(kibMicros) * 1024 / 1e15 }

// Shutdown stops the cluster.
func (c *Cluster) Shutdown() {
	if c.clientQueue != nil {
		c.clientQueue.Close()
	}
	for _, inst := range c.allInstances() {
		inst.Shutdown()
	}
}
