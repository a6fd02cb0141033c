package frt

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"faasm.dev/faasm/internal/core"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/mbus"
	"faasm.dev/faasm/internal/obsv"
	"faasm.dev/faasm/internal/queue"
	"faasm.dev/faasm/internal/sched"
	"faasm.dev/faasm/internal/state"
	"faasm.dev/faasm/internal/vfs"
	"faasm.dev/faasm/internal/vtime"
	"faasm.dev/faasm/internal/wavm"
)

// Transport executes a call on a peer instance (work sharing). The cluster
// package provides the only implementation, in-process; faasmd daemons do not
// forward between processes, so their instances run with no Transport. trace
// is the forwarding call's trace id (0 = untraced); the peer joins it via
// ExecuteForwarded so a forwarded invocation's spans land under one id on
// both hosts.
type Transport interface {
	ExecuteOn(host, function string, input []byte, trace obsv.TraceID) ([]byte, int32, error)
}

// Config configures one runtime instance.
type Config struct {
	// Host is this instance's cluster-unique name.
	Host string
	// Store is the global tier.
	Store kvs.Store
	// Files is the global file tier for Faaslet filesystems.
	Files vfs.GlobalStore
	// Capacity bounds concurrently executing calls (scheduler hint).
	Capacity int
	// PoolCap bounds idle warm Faaslets kept per function (0 =
	// DefaultPoolCap).
	PoolCap int
	// Clock drives timing (nil = wall clock).
	Clock vtime.Clock
	// Transport reaches peer instances; nil disables work sharing.
	Transport Transport
	// ColdStartDelay adds simulated initialisation cost per cold start
	// (used by the cluster simulator to model measured constants; zero for
	// real deployments, where the true cost is measured).
	ColdStartDelay time.Duration

	// LeaseTTL bounds how long this host's warm advertisements outlive its
	// last liveness heartbeat (0 = sched.DefaultLeaseTTL). The instance
	// heartbeats at LeaseTTL/3.
	LeaseTTL time.Duration
	// LocalityWeight blends data locality into peer forwarding (see
	// sched.Scheduler.LocalityWeight); 0 disables the blend.
	LocalityWeight float64
	// StateOwners, when non-nil, reports the healthy shard owners of a state
	// key (primary first) — shardkvs.Ring.HealthyOwners in sharded
	// deployments. With LocalShard it lets residency adverts credit
	// shard-primary co-location: keys whose primary shard this host co-hosts
	// count as resident even before they are pulled.
	StateOwners func(key string) []string
	// LocalShard names the shard-ring node this host co-hosts ("" = none).
	LocalShard string

	// ElasticPool enables the warm-pool autoscaler: grow ahead of demand
	// on pool-empty misses, shrink after idleness. Off by default — the
	// pool then grows organically up to PoolCap and never shrinks.
	ElasticPool bool
	// PoolIdleTimeout is how long a pool must see no acquires before the
	// controller starts reclaiming its idle Faaslets (0 =
	// DefaultPoolIdleTimeout).
	PoolIdleTimeout time.Duration
	// ElasticInterval is the controller's tick (0 = 100ms).
	ElasticInterval time.Duration

	// Tracer samples and retains invocation traces; nil builds one from
	// TraceSample/TraceBuffer. The cluster harness shares one tracer across
	// hosts so a forwarded call's spans land in a single record.
	Tracer *obsv.Tracer
	// TraceSample traces 1-in-N invocations (0 = obsv.DefaultSampleRate,
	// 1 = every call, < 0 disables tracing).
	TraceSample int
	// TraceBuffer bounds retained traces (0 = obsv.DefaultTraceBuffer).
	TraceBuffer int
	// Registry receives this instance's metrics; nil creates a private one.
	Registry *obsv.Registry

	// Queue, when non-nil, enables the durable async invocation path:
	// InvokeAsync enqueues into the global tier (internal/queue) and
	// per-function consumer loops on this host execute queued work through
	// the normal scheduling path. Only its sizing knobs are read; the
	// instance fills Store, Clock, Host, Gate, Dead and Tracer on its own
	// copy. Nil (the default) leaves the async path off.
	Queue *queue.Config
}

// Pool defaults.
const (
	// DefaultPoolCap is PoolCap's default.
	DefaultPoolCap = 64
	// DefaultPoolIdleTimeout is PoolIdleTimeout's default.
	DefaultPoolIdleTimeout = 30 * time.Second
	// poolGrowFactor scales grow-ahead: the elastic controller
	// pre-provisions misses×poolGrowFactor Faaslets per tick.
	poolGrowFactor         = 2
	defaultElasticInterval = 100 * time.Millisecond
)

// deployment is one function deployed on this host: its definition, the
// Proto-Faaslet every cold start restores (§5.2), and its warm pool. A
// record is never modified; a redeploy swaps in a new one that keeps the
// pool. def's module carries no data segments: proto holds them. img is the
// shared image the record was deployed from (nil for a private one), and
// the record holds one of its references.
type deployment struct {
	def   core.FuncDef
	proto *core.Proto
	pool  *fnPool
	img   *image
}

// image is what every function deployed from one uploaded content shares:
// the decoded module, without its data segments, and the Proto-Faaslet
// built from it. key is the content key it is filed under in
// Instance.images; refs counts the deployment records that point at it.
// An image is filed while it builds: built is closed when the build ends,
// and err then says why it failed (a failed image leaves the table).
type image struct {
	key   string
	mod   *wavm.Module
	proto *core.Proto
	refs  int
	built chan struct{}
	err   error
}

// fnPool is one function's warm-Faaslet pool. Each function has its own
// lock, so acquire/release for different functions never contend; within a
// function the critical sections are a slice push/pop.
//
// Invariants: idle holds only fully reset Faaslets; resetting counts
// Faaslets committed to the pool whose background reset is still running;
// live counts every Faaslet bound to the function on this host (idle +
// resetting + checked out). idle+resetting never exceeds PoolCap.
type fnPool struct {
	mu        sync.Mutex
	cond      *sync.Cond
	idle      []*core.Faaslet
	resetting int
	live      int

	// Demand signals for the elastic controller (under mu; no clock reads
	// on the acquire path — idleness is inferred from the counter).
	acquires int64
	misses   int64
	// Controller-private cursors, touched only by the elastic loop.
	seenAcquires int64
	seenMisses   int64
	idleSince    time.Time
}

func newFnPool() *fnPool {
	p := &fnPool{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Instance is one FAASM runtime instance.
type Instance struct {
	cfg     Config
	env     *core.Env
	local   *state.LocalTier
	calls   *mbus.CallTable
	sched   *sched.Scheduler
	clock   vtime.Clock
	slots   chan struct{}
	profile *accessProfile

	// fns maps function name → its *deployment. Readers load a record with
	// no lock; deploy swaps in a new one under regMu, so one deploy costs
	// the same however many functions are deployed.
	fns sync.Map
	// regMu serialises deploys. images maps a content key to the image its
	// deployed functions share, and lives under it.
	regMu  sync.Mutex
	images map[string]*image

	// faasletCount tracks all live Faaslets (pooled + executing).
	faasletCount atomic.Int64

	// resetSem bounds concurrently running background resets; resetWG
	// tracks them so Shutdown can drain. shutMu orders release's
	// closed-check + pool-commit against Shutdown (releases hold the read
	// side, Shutdown the write side), so Shutdown never passes
	// resetWG.Wait while a release is between deciding to pool and
	// registering its reset, and a post-shutdown release can never
	// re-advertise the host.
	resetSem chan struct{}
	resetWG  sync.WaitGroup
	shutMu   sync.RWMutex
	closed   atomic.Bool

	// killed marks a simulated crash (Kill): the instance refuses work but
	// nothing retreats — peers must discover the death via lease expiry.
	killed atomic.Bool

	// draining marks a graceful stop (Drain): in-flight calls finish, new
	// forwarded-in work is refused (peers fall back and route around the
	// deleted lease), and locally entered calls prefer forwarding away.
	draining atomic.Bool

	// elastic controller lifecycle (nil when ElasticPool is off).
	elasticStop chan struct{}
	elasticDone chan struct{}
	elasticOnce sync.Once

	// Metrics for the evaluation.
	ColdStarts obsv.Counter
	WarmStarts obsv.Counter
	// Billable is the memory billed so far (§6.1), in obsv.KiBMicros units.
	Billable obsv.Counter
	// PoolMisses counts calls that found the warm pool empty and paid a
	// cold start on the critical path; Prewarmed counts Faaslets the
	// elastic controller pre-provisioned off it; IdleReclaims counts
	// Faaslets the controller evicted from idle pools.
	PoolMisses   obsv.Counter
	Prewarmed    obsv.Counter
	IdleReclaims obsv.Counter

	// tracer samples invocation traces; reg is the metrics registry both
	// feed the /metrics exposition. execHist records every guest
	// execution's duration; initHist records cold-start initialisation
	// (nanos).
	tracer   *obsv.Tracer
	reg      *obsv.Registry
	execHist *obsv.Histogram
	initHist *obsv.Histogram

	// queue is the durable async invocation queue (nil unless
	// Config.Queue); see async.go.
	queue *queue.Queue
}

// New creates a runtime instance.
func New(cfg Config) *Instance {
	if cfg.Host == "" {
		cfg.Host = "host-0"
	}
	if cfg.Store == nil {
		cfg.Store = kvs.NewEngine()
	}
	if cfg.Clock == nil {
		cfg.Clock = vtime.Real{}
	}
	if cfg.PoolCap <= 0 {
		cfg.PoolCap = DefaultPoolCap
	}
	inst := &Instance{
		cfg:      cfg,
		local:    state.NewLocalTier(cfg.Store),
		calls:    mbus.NewCallTable(),
		sched:    sched.New(cfg.Host, cfg.Store, cfg.Capacity),
		clock:    cfg.Clock,
		profile:  newAccessProfile(),
		resetSem: make(chan struct{}, max(runtime.GOMAXPROCS(0), 2)),
	}
	inst.sched.SetClock(cfg.Clock)
	inst.sched.LeaseTTL = cfg.LeaseTTL
	inst.sched.LocalityWeight = cfg.LocalityWeight
	inst.sched.SetResidencyProvider(inst.residentBytes)
	inst.sched.SetFootprintProvider(inst.profile.footprint)
	inst.tracer = cfg.Tracer
	if inst.tracer == nil {
		rate := cfg.TraceSample
		if rate == 0 {
			rate = obsv.DefaultSampleRate
		}
		inst.tracer = obsv.NewTracer(cfg.Clock.Now, rate, cfg.TraceBuffer)
	}
	inst.reg = cfg.Registry
	if inst.reg == nil {
		inst.reg = obsv.NewRegistry()
	}
	inst.instrument()
	inst.images = map[string]*image{}
	inst.env = &core.Env{
		State:  inst.local,
		Files:  cfg.Files,
		Clock:  cfg.Clock,
		Chain:  inst,
		Access: inst,
	}
	if cfg.Capacity > 0 {
		inst.slots = make(chan struct{}, cfg.Capacity)
	}
	// The heartbeat writes this host's lease and refreshes its view of warm
	// peers at lease cadence, off every call's path: warm calls and cold
	// misses alike perform zero global-tier operations.
	inst.sched.StartHeartbeat()
	if cfg.ElasticPool {
		inst.elasticStop = make(chan struct{})
		inst.elasticDone = make(chan struct{})
		go inst.elasticLoop()
	}
	if cfg.Queue != nil {
		qc := *cfg.Queue
		qc.Store, qc.Clock, qc.Host = cfg.Store, cfg.Clock, cfg.Host
		// Claims stop on crash, drain, and shutdown; only a crash abandons
		// work already executing (drained hosts finish theirs).
		qc.Gate = func() bool {
			return !inst.killed.Load() && !inst.draining.Load() && !inst.closed.Load()
		}
		qc.Dead, qc.Tracer = inst.killed.Load, inst.tracer
		inst.queue = queue.New(qc, inst)
		inst.queue.Instrument(inst.reg, cfg.Host)
	}
	return inst
}

// Host returns this instance's name.
func (i *Instance) Host() string { return i.cfg.Host }

// Tracer exposes the instance's invocation tracer (faasmd endpoints,
// experiment reports).
func (i *Instance) Tracer() *obsv.Tracer { return i.tracer }

// Registry exposes the instance's metrics registry (GET /metrics).
func (i *Instance) Registry() *obsv.Registry { return i.reg }

// MedianExec estimates the median guest execution time from the exec
// histogram (within its power-of-two bucket), 0 before the first call.
func (i *Instance) MedianExec() time.Duration { return time.Duration(i.execHist.Quantile(0.5)) }

// instrument registers the runtime's metrics. Pre-existing atomic counters
// are bridged with CounterFunc — read at scrape time, nothing added to the
// write path; only the latency histograms are new hot-path work (three
// atomic adds per call).
func (i *Instance) instrument() {
	l := map[string]string{"host": i.cfg.Host}
	i.reg.CounterFunc("faasm_frt_cold_starts_total", "cold starts", l, i.ColdStarts.Value)
	i.reg.CounterFunc("faasm_frt_warm_starts_total", "warm-pool acquisitions", l, i.WarmStarts.Value)
	i.reg.CounterFunc("faasm_frt_pool_misses_total", "calls that found the warm pool empty", l, i.PoolMisses.Value)
	i.reg.CounterFunc("faasm_frt_prewarmed_total", "Faaslets pre-provisioned by the elastic controller", l, i.Prewarmed.Value)
	i.reg.CounterFunc("faasm_frt_idle_reclaims_total", "idle Faaslets reclaimed by the elastic controller", l, i.IdleReclaims.Value)
	i.reg.GaugeFunc("faasm_frt_faaslets", "live Faaslets on this host", l, i.faasletCount.Load)
	i.execHist = i.reg.Histogram("faasm_frt_exec_seconds", "guest execution time", l)
	i.initHist = i.reg.Histogram("faasm_frt_init_seconds", "cold-start initialisation time", l)
	i.sched.Instrument(i.reg, i.cfg.Host)
	i.local.Instrument(i.reg, i.cfg.Host)
	i.calls.Instrument(i.reg, i.cfg.Host)
}

// traceNow reads the clock only for traced calls: untraced calls (tr == nil,
// the steady state) pay nothing here.
func (i *Instance) traceNow(tr *obsv.Trace) time.Time {
	if tr == nil {
		return time.Time{}
	}
	return i.clock.Now()
}

// span records one runtime-level span on tr; no-op for untraced calls.
func (i *Instance) span(tr *obsv.Trace, name, key string, start time.Time, bytes int64, fail bool) {
	if tr == nil {
		return
	}
	tr.RecordSpan(i.cfg.Host, name, key, start, i.clock.Now().Sub(start), bytes, fail)
}

// NoteStateAccess implements core.StateAccess: every guest state read feeds
// the per-function access profile behind locality scoring.
func (i *Instance) NoteStateAccess(fn, key string, n int64) {
	i.profile.record(fn, key, n)
}

// residentBytes reports how much of fn's profiled state footprint is
// resident on this host: per profiled key, the locally pulled bytes clipped
// to the profiled bytes — plus full shard-primary co-location credit when
// this host co-hosts the key's primary shard (the data is one loopback hop
// away even before it is pulled). Feeds the scheduler's lease-piggybacked
// residency adverts.
func (i *Instance) residentBytes(fn string) int64 {
	keys := i.profile.keysOf(fn)
	var total int64
	for k, profiled := range keys {
		r := i.local.ResidentBytes(k)
		if r > profiled {
			r = profiled
		}
		if r < profiled && i.cfg.StateOwners != nil && i.cfg.LocalShard != "" {
			if owners := i.cfg.StateOwners(k); len(owners) > 0 && owners[0] == i.cfg.LocalShard {
				r = profiled
			}
		}
		total += r
	}
	return total
}

// Residency reports this host's per-function resident state bytes for every
// profiled function (faasmd /status).
func (i *Instance) Residency() map[string]int64 {
	out := map[string]int64{}
	i.profile.mu.Lock()
	fns := make([]string, 0, len(i.profile.fns))
	for fn := range i.profile.fns {
		fns = append(fns, fn)
	}
	i.profile.mu.Unlock()
	for _, fn := range fns {
		if b := i.residentBytes(fn); b > 0 {
			out[fn] = b
		}
	}
	return out
}

// AccessedStateBytes totals the state bytes guests addressed on this host
// (local or remote; the remote share is the tier's Pulled counter).
func (i *Instance) AccessedStateBytes() int64 { return i.profile.accessed.Load() }

// State exposes the instance's local state tier.
func (i *Instance) State() *state.LocalTier { return i.local }

// Scheduler exposes the local scheduler (tests, metrics).
func (i *Instance) Scheduler() *sched.Scheduler { return i.sched }

// Env exposes the Faaslet environment (the cluster harness tweaks it).
func (i *Instance) Env() *core.Env { return i.env }

// RegisterNative deploys a native-guest function.
func (i *Instance) RegisterNative(name string, fn core.NativeGuest) error {
	return i.RegisterDef(core.FuncDef{Name: name, Native: fn})
}

// RegisterModule deploys a validated wavm module under name.
func (i *Instance) RegisterModule(name string, mod *wavm.Module) error {
	if !mod.Validated {
		return errors.New("frt: module must pass code generation before deployment")
	}
	return i.RegisterDef(core.FuncDef{Name: name, Module: mod})
}

// RegisterDef deploys a function definition. The image every cold start of
// def restores — data segments written, start function run — is built
// here, once, so a def that cannot be built (no body, a trapping start
// function) is rejected at deployment rather than on every call. The image
// is def's own; only DeployObject shares one between names.
func (i *Instance) RegisterDef(def core.FuncDef) error {
	def, proto, err := i.build(def)
	if err != nil {
		return err
	}
	i.regMu.Lock()
	defer i.regMu.Unlock()
	i.deploy(def, proto, nil)
	return nil
}

// build runs def's initialisation once and returns the image it leaves.
// The image holds the data segments now, and nothing restored from it
// writes them again: the returned def's module goes without its copy.
func (i *Instance) build(def core.FuncDef) (core.FuncDef, *core.Proto, error) {
	f, err := core.New(def, i.env)
	if err != nil {
		return def, nil, err
	}
	proto := f.Proto()
	f.Close()
	if def.Module != nil && len(def.Module.Data) > 0 {
		mod := *def.Module
		mod.Data = nil
		def.Module = &mod
	}
	return def, proto, nil
}

// DeployObject deploys under name the object file whose content key is key.
// Every name deployed from one key shares one image — the decoded module and
// the Proto-Faaslet built from it — and keeps its own record, pool and queue
// consumer. object supplies the file and is called only when no function
// here holds key's image. A key builds once: a deploy that finds the key
// building waits for that build, without regMu, and takes its image or its
// error. An object that cannot be built files no image, so a later deploy
// of key retries, and name's earlier version keeps serving. The image is
// dropped when the last name deployed from it is redeployed.
func (i *Instance) DeployObject(name, key string, object func() ([]byte, error)) error {
	i.regMu.Lock()
	for {
		img, ok := i.images[key]
		if !ok {
			break
		}
		select {
		case <-img.built:
			defer i.regMu.Unlock()
			i.deploy(core.FuncDef{Name: name, Module: img.mod}, img.proto.For(name), img)
			return nil
		default:
		}
		i.regMu.Unlock()
		<-img.built
		if img.err != nil {
			return img.err
		}
		// Look again: the image may have left the table meanwhile.
		i.regMu.Lock()
	}
	img := &image{key: key, built: make(chan struct{}), err: errBuildAbandoned}
	i.images[key] = img
	i.regMu.Unlock()
	defer func() {
		if img.err != nil {
			i.regMu.Lock()
			delete(i.images, key)
			i.regMu.Unlock()
		}
		close(img.built)
	}()
	obj, err := object()
	if err != nil {
		img.err = err
		return err
	}
	mod, err := wavm.DecodeObject(obj)
	if err != nil {
		img.err = err
		return err
	}
	def, proto, err := i.build(core.FuncDef{Name: name, Module: mod})
	if err != nil {
		img.err = err
		return err
	}
	i.regMu.Lock()
	defer i.regMu.Unlock()
	img.mod, img.proto, img.err = def.Module, proto, nil
	i.deploy(core.FuncDef{Name: name, Module: img.mod}, img.proto.For(name), img)
	return nil
}

// errBuildAbandoned is what waiters on a build get when the build panicked.
var errBuildAbandoned = errors.New("frt: image build abandoned")

// Images reports how many shared images are deployed: one per content key
// that some function here was last deployed from.
func (i *Instance) Images() int {
	i.regMu.Lock()
	defer i.regMu.Unlock()
	n := 0
	for _, img := range i.images {
		if img.refs > 0 {
			n++
		}
	}
	return n
}

// Functions lists deployed function names.
func (i *Instance) Functions() []string {
	var out []string
	i.eachDeployment(func(d *deployment) { out = append(out, d.def.Name) })
	return out
}

// GenerateProto runs a function's initialisation path and snapshots the
// resulting Faaslet as the function's Proto-Faaslet (§5.2). init, when
// non-nil, runs first inside a Faaslet restored from the deployed image,
// through a host-side Ctx (user-defined init code is trusted deployment
// code). The proto is also serialised to the global tier so peers can
// restore it. It fails if the function is redeployed meanwhile. The new
// proto is the function's own: names sharing its image keep restoring that.
func (i *Instance) GenerateProto(function string, init func(ctx *core.Ctx) error) error {
	d, ok := i.deployed(function)
	if !ok {
		return fmt.Errorf("frt: unknown function %q", function)
	}
	f, err := core.NewFromProto(d.def, i.env, d.proto)
	if err != nil {
		return err
	}
	defer f.Close()
	if init != nil {
		if err := init(core.NewCtx(f)); err != nil {
			return fmt.Errorf("frt: proto init for %s: %w", function, err)
		}
	}
	proto, err := f.Snapshot()
	if err != nil {
		return err
	}
	i.regMu.Lock()
	defer i.regMu.Unlock()
	if cur, _ := i.deployed(function); cur != d {
		return fmt.Errorf("frt: %s was redeployed while its proto was generated", function)
	}
	i.deploy(d.def, proto, d.img)
	blob, err := proto.Serialize()
	if err != nil {
		// Protos with shared mappings stay host-local; that is fine.
		return nil
	}
	return i.cfg.Store.Set("proto/"+function, blob)
}

// FetchProto pulls a peer-generated proto from the global tier and deploys
// it as the function's image (cross-host restore).
func (i *Instance) FetchProto(function string) error {
	blob, err := i.cfg.Store.Get("proto/" + function)
	if err != nil {
		return err
	}
	if blob == nil {
		return fmt.Errorf("frt: no proto for %q in global tier", function)
	}
	proto, err := core.DeserializeProto(blob)
	if err != nil {
		return err
	}
	i.regMu.Lock()
	defer i.regMu.Unlock()
	d, ok := i.deployed(function)
	if !ok {
		return fmt.Errorf("frt: unknown function %q", function)
	}
	i.deploy(d.def, proto, d.img)
	return nil
}

// deploy installs def with proto, a new image, as the one its cold starts
// restore, and keeps the function's pool. img is the shared image def's
// module belongs to (nil for a private one); the new record takes a
// reference to it and drops the previous record's, so an image no record
// points at leaves the table. The record is swapped in whole: calls in
// flight keep the one they loaded. Every idle Faaslet is of an older image,
// so it is dropped; acquire and release discard any that were executing or
// resetting meanwhile, so no call that starts after deploy returns runs the
// old body. Callers hold regMu.
func (i *Instance) deploy(def core.FuncDef, proto *core.Proto, img *image) {
	d := &deployment{def: def, proto: proto, pool: newFnPool(), img: img}
	if img != nil {
		img.refs++
	}
	if v, loaded := i.fns.LoadOrStore(def.Name, d); loaded {
		prev := v.(*deployment)
		d.pool = prev.pool
		i.fns.Store(def.Name, d)
		if prev.img != nil {
			if prev.img.refs--; prev.img.refs == 0 {
				delete(i.images, prev.img.key)
			}
		}
	}

	i.dropIdle(def.Name, d.pool)
	// Deploying a function also starts its queue consumers on this host, so
	// every host that can execute fn also drains its queue.
	if i.queue != nil {
		i.queue.EnsureConsumer(def.Name)
	}
}

func (i *Instance) deployed(function string) (*deployment, bool) {
	v, ok := i.fns.Load(function)
	if !ok {
		return nil, false
	}
	return v.(*deployment), true
}

// eachDeployment calls fn with every deployed function's current record.
func (i *Instance) eachDeployment(fn func(*deployment)) {
	i.fns.Range(func(_, v any) bool {
		fn(v.(*deployment))
		return true
	})
}

// Invoke starts an asynchronous call from outside any guest and returns its
// id; Await/Output retrieve the result, which stays readable for the call
// table's retention window. Sampled calls get a trace at creation, so the
// queue wait between dispatch and execution is attributed.
func (i *Instance) Invoke(function string, input []byte) (uint64, error) {
	return i.invoke(function, input, false)
}

// Chain implements core.Chainer: chain_call. The record belongs to the
// calling guest's own call, and executeLocal deletes it when that returns;
// the child runs whether or not the guest ever awaits it.
func (i *Instance) Chain(function string, input []byte) (uint64, error) {
	return i.invoke(function, input, true)
}

func (i *Instance) invoke(function string, input []byte, owned bool) (uint64, error) {
	if _, ok := i.deployed(function); !ok {
		return 0, fmt.Errorf("frt: unknown function %q", function)
	}
	var id uint64
	if owned {
		id = i.calls.CreateOwned(function, input)
	} else {
		id = i.calls.Create(function, input)
	}
	tr := i.tracer.Start(i.cfg.Host, function)
	if tr != nil {
		i.calls.SetTraceID(id, uint64(tr.ID()))
	}
	go i.dispatch(id, tr)
	return id, nil
}

// dispatch runs one asynchronous call on its own goroutine — unless its
// awaiter got to it first.
func (i *Instance) dispatch(id uint64, tr *obsv.Trace) {
	if rec, ok := i.calls.Claim(id); ok {
		i.runClaimed(rec, tr)
	}
}

// runClaimed executes a call this goroutine has claimed and parks the result
// in the table. A record deleted meanwhile (its parent returned without
// awaiting) makes Complete a no-op.
func (i *Instance) runClaimed(rec mbus.CallRecord, tr *obsv.Trace) {
	if tr != nil {
		i.span(tr, "queue.wait", "", tr.Started(), 0, false)
	}
	out, ret, err := i.route(tr, rec.Function, rec.Input)
	i.tracer.Finish(tr)
	i.calls.Complete(rec.ID, out, ret, err)
}

// Await implements core.Chainer: await_call. If nothing has started the call
// yet it is claimed and run here, on the awaiting goroutine, through the same
// route a dispatch goroutine would take — the awaiter never sleeps on work
// nobody has begun, and the dispatch goroutine, finding the call claimed,
// returns without touching it. Children are therefore not guaranteed to run
// concurrently with each other or in chain order, only before their Await
// returns.
func (i *Instance) Await(id uint64) (int32, error) {
	if rec, ok := i.calls.Claim(id); ok {
		// Rejoin the trace Invoke started (nil when the call was unsampled).
		tr, _ := i.tracer.Join(obsv.TraceID(rec.TraceID), i.cfg.Host, rec.Function)
		i.runClaimed(rec, tr)
	}
	return i.calls.Await(id)
}

// Output implements core.Chainer.
func (i *Instance) Output(id uint64) ([]byte, error) { return i.calls.Output(id) }

// Call is the synchronous entry point: schedule and execute inline. When
// the scheduler picks local execution (the warm steady state) the call
// bypasses the dispatch goroutine and the call table entirely — no spawn,
// no record, no wakeup. Unsampled calls (the common case) pay one atomic
// add for the sampling decision and nothing else.
func (i *Instance) Call(function string, input []byte) ([]byte, int32, error) {
	out, ret, _, err := i.CallTraced(function, input)
	return out, ret, err
}

// CallTraced is Call also returning the invocation's trace id (0 when the
// call was sampled out) — the id /invoke hands back in X-Faasm-Trace.
func (i *Instance) CallTraced(function string, input []byte) ([]byte, int32, obsv.TraceID, error) {
	if _, ok := i.deployed(function); !ok {
		return nil, -1, 0, fmt.Errorf("frt: unknown function %q", function)
	}
	tr := i.tracer.Start(i.cfg.Host, function)
	out, ret, err := i.route(tr, function, input)
	i.tracer.Finish(tr)
	return out, ret, tr.ID(), err
}

// route executes one call per the scheduler's decision: forward to a warm
// peer when told to (falling back locally if the peer fails), execute here
// otherwise. Every forward's round-trip is reported back to the scheduler,
// feeding the per-peer latency/load scores that weighted forwarding picks by.
func (i *Instance) route(tr *obsv.Trace, function string, input []byte) ([]byte, int32, error) {
	// A killed host can no more originate calls than serve them: the crash
	// semantics Kill simulates cover both directions.
	if i.killed.Load() {
		return nil, -1, fmt.Errorf("frt: host %s is %w", i.cfg.Host, ErrDown)
	}
	schedStart := i.traceNow(tr)
	decision, err := i.sched.Schedule(function)
	// The span key carries the placement and — when the locality blend ran —
	// the chosen peer's resident fraction and the best-resident alternative,
	// so /traces explains *why* a forward landed where it did; the span's
	// byte count is the state bytes the choice avoided re-pulling.
	spanKey := decision.Placement.String()
	if decision.BestResidentHost != "" {
		spanKey = fmt.Sprintf("%s loc=%.2f to=%s best=%s", spanKey, decision.LocalityFrac, decision.TargetHost, decision.BestResidentHost)
	}
	i.span(tr, "sched.decide", spanKey, schedStart, decision.SavedBytes, err != nil)
	if err != nil {
		return nil, -1, err
	}
	if decision.Placement == sched.PlaceForward && i.cfg.Transport != nil {
		start := i.clock.Now()
		i.sched.ForwardBegin(decision.TargetHost)
		out, ret, err := i.cfg.Transport.ExecuteOn(decision.TargetHost, function, input, tr.ID())
		i.sched.ForwardEnd(decision.TargetHost, i.clock.Now().Sub(start), err == nil)
		if tr != nil {
			tr.RecordSpan(i.cfg.Host, "forward", decision.TargetHost, start, i.clock.Now().Sub(start), int64(len(input)), err != nil)
		}
		if err == nil {
			return out, ret, nil
		}
		// Peer failed: run here. ForwardEnd has sunk the peer's score, and
		// the next beat drops it from the view once its lease is gone.
	}
	return i.executeLocal(tr, function, input)
}

// ExecuteLocal runs a call on this host, acquiring a Faaslet from the warm
// pool or cold-starting one. The response returns as soon as execution
// finishes; the Faaslet's reset happens off this path.
func (i *Instance) ExecuteLocal(function string, input []byte) ([]byte, int32, error) {
	return i.executeLocal(nil, function, input)
}

// ExecuteForwarded is the entry point peers use when sharing work with this
// host: it joins the forwarding host's trace (id 0 = untraced) so the remote
// half of the invocation lands under the same trace id, then executes
// locally. When the join created a local trace record (per-host tracers),
// this host owns its lifecycle and finishes it.
// A draining host refuses forwarded work outright — the caller's route()
// falls back to local execution, so the refusal costs latency, never a
// failed call — while calls already executing here run to completion.
func (i *Instance) ExecuteForwarded(function string, input []byte, trace obsv.TraceID) ([]byte, int32, error) {
	if i.draining.Load() {
		return nil, -1, fmt.Errorf("frt: host %s: %w", i.cfg.Host, ErrDraining)
	}
	tr, created := i.tracer.Join(trace, i.cfg.Host, function)
	out, ret, err := i.executeLocal(tr, function, input)
	if created {
		i.tracer.Finish(tr)
	}
	return out, ret, err
}

func (i *Instance) executeLocal(tr *obsv.Trace, function string, input []byte) ([]byte, int32, error) {
	if i.killed.Load() {
		return nil, -1, fmt.Errorf("frt: host %s is %w", i.cfg.Host, ErrDown)
	}
	d, ok := i.deployed(function)
	if !ok {
		return nil, -1, fmt.Errorf("frt: unknown function %q", function)
	}
	i.sched.Begin()
	defer i.sched.End()
	if i.slots != nil {
		slotStart := i.traceNow(tr)
		i.slots <- struct{}{}
		i.span(tr, "queue.wait", "slots", slotStart, 0, false)
		defer func() { <-i.slots }()
	}

	acqStart := i.traceNow(tr)
	f, cold, err := i.acquire(d)
	if tr != nil {
		name := "pool.acquire"
		if cold {
			name = "cold.start"
		}
		i.span(tr, name, function, acqStart, 0, err != nil)
	}
	if err != nil {
		// A failed cold start must not leave this host advertised as warm:
		// peers would keep forwarding calls here to die the same way.
		i.retreatIfDead(d.pool, function)
		return nil, -1, err
	}
	if tr != nil {
		f.SetTraceSink(i.cfg.Host, tr)
	}
	start := i.clock.Now()
	out, ret, execErr := f.Execute(input)
	dur := i.clock.Now().Sub(start)
	if tr != nil {
		tr.RecordSpan(i.cfg.Host, "exec", function, start, dur, 0, execErr != nil)
		f.SetTraceSink("", nil)
	}
	i.execHist.Observe(int64(dur))
	i.Billable.Add(obsv.KiBMicros(f.Footprint(), dur))
	// The call is over: the records of the calls it chained, awaited or not,
	// have no reader left. A child still running completes into nothing; one
	// nothing has started yet keeps its record until its dispatch goroutine
	// has run it (Delete discards results, never work).
	for _, id := range f.Chained() {
		i.calls.Delete(id)
	}
	i.release(d.pool, function, f, execErr == nil)
	return out, ret, execErr
}

// acquire takes a warm Faaslet of d's image from the pool or creates one,
// reporting whether the call paid a cold start. A pooled Faaslet of an
// older image (d is a redeploy) is discarded, not handed out. If the pool is
// momentarily empty but resets are in flight, it waits for one — the pool
// never hands out a non-reset Faaslet, and a reset restore is never slower
// than a cold start.
func (i *Instance) acquire(d *deployment) (*core.Faaslet, bool, error) {
	fn, p := d.def.Name, d.pool
	p.mu.Lock()
	p.acquires++
	for {
		if n := len(p.idle); n > 0 {
			f := p.idle[n-1]
			p.idle[n-1] = nil
			p.idle = p.idle[:n-1]
			p.mu.Unlock()
			i.sched.NoteEvicted(fn, 1) // it is busy now, not idle-warm
			if f.Proto() != d.proto {
				i.discard(p, fn, f)
				p.mu.Lock()
				continue
			}
			i.WarmStarts.Add(1)
			return f, false, nil
		}
		if p.resetting == 0 {
			break
		}
		p.cond.Wait()
	}
	// Pool-empty miss: this call pays a cold start on its critical path —
	// the demand signal the elastic controller grows ahead of.
	p.misses++
	p.mu.Unlock()
	i.PoolMisses.Add(1)

	if i.cfg.ColdStartDelay > 0 {
		i.clock.Sleep(i.cfg.ColdStartDelay)
	}
	start := i.clock.Now()
	f, err := i.coldStart(d)
	if err != nil {
		return nil, true, err
	}
	i.initHist.Observe(int64(i.clock.Now().Sub(start)))
	i.ColdStarts.Add(1)
	p.mu.Lock()
	p.live++
	p.mu.Unlock()
	i.faasletCount.Add(1)
	return f, true, nil
}

// coldStart restores a new Faaslet from the function's deployed image.
func (i *Instance) coldStart(d *deployment) (*core.Faaslet, error) {
	return core.NewFromProto(d.def, i.env, d.proto)
}

// release returns the Faaslet to the warm pool, handing its reset (§5.2:
// the restore of the Proto-Faaslet that discards all guest residue) to a
// background resetter so the caller's response latency excludes it. The
// Faaslet is committed to the pool — and the host advertised warm — before
// the reset runs; acquire waits for in-flight resets rather than handing
// out a dirty Faaslet.
func (i *Instance) release(p *fnPool, function string, f *core.Faaslet, healthy bool) {
	if d, _ := i.deployed(function); healthy && f.Proto() == d.proto {
		i.shutMu.RLock()
		if !i.closed.Load() {
			p.mu.Lock()
			if len(p.idle)+p.resetting < i.cfg.PoolCap {
				p.resetting++
				p.mu.Unlock()
				i.sched.NoteWarm(function, 1)
				i.resetWG.Add(1)
				i.shutMu.RUnlock()
				go i.resetAndPool(p, function, f)
				return
			}
			p.mu.Unlock()
		}
		i.shutMu.RUnlock()
	}
	// Unhealthy, of a redeployed image, shut down, or the pool is full:
	// discard.
	i.discard(p, function, f)
}

// resetAndPool is the background resetter: restore the Faaslet, then make
// it acquirable. Runs under resetSem so at most ~GOMAXPROCS resets execute
// at once.
func (i *Instance) resetAndPool(p *fnPool, function string, f *core.Faaslet) {
	defer i.resetWG.Done()
	i.resetSem <- struct{}{}
	err := f.Reset()
	<-i.resetSem

	p.mu.Lock()
	p.resetting--
	if err == nil && !i.closed.Load() {
		p.idle = append(p.idle, f)
		p.cond.Broadcast()
		p.mu.Unlock()
		return
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	// Reset failed (or the instance shut down): the pooled slot is gone.
	i.sched.NoteEvicted(function, 1)
	i.discard(p, function, f)
}

// discard closes a live Faaslet and retreats from the global warm set when
// it was the function's last one on this host.
func (i *Instance) discard(p *fnPool, function string, f *core.Faaslet) {
	p.mu.Lock()
	p.live--
	last := p.live == 0
	p.mu.Unlock()
	i.faasletCount.Add(-1)
	f.Close()
	if last {
		i.sched.Retreat(function)
	}
}

// retreatIfDead withdraws the host's warm advertisement for fn when it has
// no live Faaslets backing it (e.g. the advertised cold start failed).
func (i *Instance) retreatIfDead(p *fnPool, function string) {
	p.mu.Lock()
	dead := p.live == 0
	p.mu.Unlock()
	if dead {
		i.sched.Retreat(function)
	}
}

// FaasletCount reports live Faaslets on this instance.
func (i *Instance) FaasletCount() int {
	return int(i.faasletCount.Load())
}

// PoolSize reports warm pool entries for a function: idle Faaslets plus
// those whose background reset is still in flight (they are committed to
// the pool and acquire will wait for them).
func (i *Instance) PoolSize(function string) int {
	d, ok := i.deployed(function)
	if !ok {
		return 0
	}
	d.pool.mu.Lock()
	defer d.pool.mu.Unlock()
	return len(d.pool.idle) + d.pool.resetting
}

// Shutdown closes all pooled Faaslets after draining in-flight resets, and
// stops the background heartbeat and elastic-pool goroutines. The scheduler
// drains (sched.Scheduler.Drain): the host's lease is deleted, so peers
// drop it from their views at their next beat.
func (i *Instance) Shutdown() {
	i.shutMu.Lock()
	if !i.closed.CompareAndSwap(false, true) {
		i.shutMu.Unlock()
		return
	}
	i.shutMu.Unlock()
	i.sched.Drain()
	i.stopElastic()
	if i.queue != nil {
		// Stop queue consumers before tearing pools down; items this host
		// held in flight redeliver elsewhere after lease expiry.
		i.queue.Close()
	}
	if i.elasticDone != nil {
		// Wait the controller out (≤ one tick) so no grow/reclaim pass can
		// race the pool teardown below.
		<-i.elasticDone
	}
	i.resetWG.Wait()
	i.eachDeployment(func(d *deployment) {
		i.dropIdle(d.def.Name, d.pool)
	})
}

// dropIdle closes every idle Faaslet in fn's pool, retreating from fn's warm
// set when that leaves none alive.
func (i *Instance) dropIdle(fn string, p *fnPool) {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.live -= len(idle)
	last := len(idle) > 0 && p.live == 0
	p.mu.Unlock()
	for _, f := range idle {
		f.Close()
	}
	i.faasletCount.Add(int64(-len(idle)))
	i.sched.NoteEvicted(fn, len(idle))
	if last {
		i.sched.Retreat(fn)
	}
}
