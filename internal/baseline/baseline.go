// Package baseline implements the container-based serverless platform the
// paper evaluates against (Knative on Kubernetes, §6.1). It executes the
// same portable guests as FAASM through a container-specific implementation
// of the host interface, preserving the behavioural properties that drive
// every comparison figure:
//
//   - no shared local tier: every container keeps private copies of the
//     state it touches, fetched from the global KVS (data shipping and
//     duplication — Figs 6b/6c);
//   - chaining through the platform's HTTP API rather than direct
//     inter-Faaslet communication (the §6.2 small-dataset experiment);
//   - container cold starts costing seconds and megabytes (Table 3,
//     Figs 7 and 10), modelled with the paper's measured constants;
//   - bounded host memory: containers plus their private data exhaust the
//     host, as Knative does past 30 parallel functions in Fig 6a.
package baseline

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"faasm.dev/faasm/internal/hostapi"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/mbus"
	"faasm.dev/faasm/internal/obsv"
	"faasm.dev/faasm/internal/simnet"
	"faasm.dev/faasm/internal/vtime"
)

// Defaults measured by the paper (Table 3, §6.2, §6.5).
const (
	// DefaultColdStart is Docker's no-op cold start (~2.8 s).
	DefaultColdStart = 2800 * time.Millisecond
	// DefaultContainerOverhead is the per-container memory overhead (8 MB).
	DefaultContainerOverhead = int64(8 << 20)
	// DefaultChainLatency is the per-call overhead of chaining through the
	// platform's HTTP API instead of the message bus.
	DefaultChainLatency = 2 * time.Millisecond
	// DefaultHostMem matches the testbed's 16 GB hosts.
	DefaultHostMem = int64(16) << 30
)

// ErrOOM is returned when a cold start would exceed host memory.
var ErrOOM = errors.New("baseline: host out of memory")

// Router lets chained calls re-enter the platform's front door (the cluster
// harness implements cross-host routing); nil routes to this host.
type Router interface {
	Route(fn string, input []byte) ([]byte, int32, error)
}

// Config configures one host's container platform.
type Config struct {
	Host              string
	Store             kvs.Store
	Clock             vtime.Clock
	Net               *simnet.Network // charges chaining payloads; may be nil
	Router            Router
	ColdStart         time.Duration
	ContainerOverhead int64
	HostMemBytes      int64
	PoolCap           int
	// Capacity bounds concurrently executing calls on this host (0 =
	// unlimited); cold starts hold a slot for their whole boot, which is
	// what drives the Fig 7 queueing knee.
	Capacity int
}

// Platform is one host's container runtime.
type Platform struct {
	cfg   Config
	clock vtime.Clock
	calls *mbus.CallTable
	slots chan struct{}

	mu      sync.Mutex
	defs    map[string]hostapi.Guest
	pool    map[string][]*container
	memUsed int64
	nextID  int64

	// Metrics.
	ColdStarts  obsv.Counter
	WarmStarts  obsv.Counter
	OOMFailures obsv.Counter
	// Billable is the memory billed so far (§6.1), in obsv.KiBMicros units.
	Billable obsv.Counter
}

// New creates a platform host.
func New(cfg Config) *Platform {
	if cfg.Store == nil {
		cfg.Store = kvs.NewEngine()
	}
	if cfg.Clock == nil {
		cfg.Clock = vtime.Real{}
	}
	if cfg.ColdStart == 0 {
		cfg.ColdStart = DefaultColdStart
	}
	if cfg.ContainerOverhead == 0 {
		cfg.ContainerOverhead = DefaultContainerOverhead
	}
	if cfg.HostMemBytes == 0 {
		cfg.HostMemBytes = DefaultHostMem
	}
	if cfg.PoolCap <= 0 {
		cfg.PoolCap = 256
	}
	p := &Platform{
		cfg:   cfg,
		clock: cfg.Clock,
		calls: mbus.NewCallTable(),
		defs:  map[string]hostapi.Guest{},
		pool:  map[string][]*container{},
	}
	if cfg.Capacity > 0 {
		p.slots = make(chan struct{}, cfg.Capacity)
	}
	return p
}

// Register deploys a portable guest.
func (p *Platform) Register(fn string, g hostapi.Guest) {
	p.mu.Lock()
	p.defs[fn] = g
	p.mu.Unlock()
}

// MemUsed reports committed container memory (overheads + private state).
func (p *Platform) MemUsed() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.memUsed
}

// container is one warm pod.
type container struct {
	id int64
	fn string
	// state holds the container's private copies — the duplication the
	// paper attributes to the data-shipping architecture.
	state      map[string][]byte
	stateBytes int64
	// fetched tracks which chunks of each cached value were actually
	// retrieved from the global tier, so sparse caches never serve holes.
	fetched map[string]map[int]bool
}

func (p *Platform) coldStart(fn string) (*container, error) {
	p.mu.Lock()
	if p.memUsed+p.cfg.ContainerOverhead > p.cfg.HostMemBytes {
		p.mu.Unlock()
		p.OOMFailures.Add(1)
		return nil, fmt.Errorf("%w: %s on %s", ErrOOM, fn, p.cfg.Host)
	}
	p.memUsed += p.cfg.ContainerOverhead
	p.nextID++
	id := p.nextID
	p.mu.Unlock()

	p.clock.Sleep(p.cfg.ColdStart)
	p.ColdStarts.Add(1)
	return &container{
		id:      id,
		fn:      fn,
		state:   map[string][]byte{},
		fetched: map[string]map[int]bool{},
	}, nil
}

func (p *Platform) acquire(fn string) (*container, error) {
	p.mu.Lock()
	pool := p.pool[fn]
	if n := len(pool); n > 0 {
		c := pool[n-1]
		p.pool[fn] = pool[:n-1]
		p.mu.Unlock()
		p.WarmStarts.Add(1)
		return c, nil
	}
	p.mu.Unlock()
	return p.coldStart(fn)
}

func (p *Platform) release(c *container) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.pool[c.fn]) < p.cfg.PoolCap {
		// Warm containers keep their private caches (Knative reuses pods).
		p.pool[c.fn] = append(p.pool[c.fn], c)
		return
	}
	p.memUsed -= p.cfg.ContainerOverhead + c.stateBytes
}

// Invoke starts an asynchronous call.
func (p *Platform) Invoke(fn string, input []byte) (uint64, error) {
	p.mu.Lock()
	_, ok := p.defs[fn]
	p.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("baseline: unknown function %q", fn)
	}
	id := p.calls.Create(fn, input)
	go func() {
		p.calls.Start(id)
		out, ret, err := p.Execute(fn, input)
		p.calls.Complete(id, out, ret, err)
	}()
	return id, nil
}

// Await blocks for a call's completion.
func (p *Platform) Await(id uint64) (int32, error) { return p.calls.Await(id) }

// Output fetches a completed call's output.
func (p *Platform) Output(id uint64) ([]byte, error) { return p.calls.Output(id) }

// Call invokes synchronously.
func (p *Platform) Call(fn string, input []byte) ([]byte, int32, error) {
	return p.Execute(fn, input)
}

// Execute runs one call on this host.
func (p *Platform) Execute(fn string, input []byte) ([]byte, int32, error) {
	p.mu.Lock()
	guest, ok := p.defs[fn]
	p.mu.Unlock()
	if !ok {
		return nil, -1, fmt.Errorf("baseline: unknown function %q", fn)
	}
	if p.slots != nil {
		p.slots <- struct{}{}
		defer func() { <-p.slots }()
	}
	c, err := p.acquire(fn)
	if err != nil {
		return nil, -1, err
	}
	api := &containerAPI{p: p, c: c, input: input}
	start := p.clock.Now()
	var ret int32
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("baseline: guest panic: %v", r)
				ret = -1
			}
		}()
		ret, err = guest(api)
	}()
	dur := p.clock.Now().Sub(start)
	p.Billable.Add(obsv.KiBMicros(p.cfg.ContainerOverhead+c.stateBytes, dur))
	p.release(c)
	if err != nil {
		return nil, ret, err
	}
	return api.output, ret, nil
}

// containerAPI implements hostapi.API with container semantics.
type containerAPI struct {
	p      *Platform
	c      *container
	input  []byte
	output []byte
}

func (a *containerAPI) Input() []byte        { return a.input }
func (a *containerAPI) WriteOutput(b []byte) { a.output = append([]byte(nil), b...) }

// Chain goes through the platform's HTTP API: fixed latency plus payload
// bytes on the network, then the router (cross-host) or this host.
func (a *containerAPI) Chain(fn string, input []byte) (uint64, error) {
	p := a.p
	if p.cfg.Net != nil {
		p.cfg.Net.Transfer(p.cfg.Host, int64(len(input))+256, 256)
	}
	p.clock.Sleep(p.cfg.ColdChainLatency())
	if p.cfg.Router != nil {
		id := p.calls.Create(fn, input)
		go func() {
			p.calls.Start(id)
			out, ret, err := p.cfg.Router.Route(fn, input)
			p.calls.Complete(id, out, ret, err)
		}()
		return id, nil
	}
	return p.Invoke(fn, input)
}

// ColdChainLatency returns the HTTP chaining overhead.
func (c *Config) ColdChainLatency() time.Duration {
	return DefaultChainLatency
}

func (a *containerAPI) Await(id uint64) (int32, error) { return a.p.calls.Await(id) }

func (a *containerAPI) OutputOf(id uint64) ([]byte, error) {
	out, err := a.p.calls.Output(id)
	if err != nil {
		return nil, err
	}
	if a.p.cfg.Net != nil {
		a.p.cfg.Net.Transfer(a.p.cfg.Host, 256, int64(len(out)))
	}
	return out, nil
}

// cacheChunk is the fetched-range tracking granularity.
const cacheChunk = 4096

// haveChunks reports whether every chunk covering [off, off+n) was fetched.
func (c *container) haveChunks(key string, off, n int) bool {
	m, ok := c.fetched[key]
	if !ok {
		return false
	}
	if m[-1] { // whole value fetched
		return true
	}
	for ch := off / cacheChunk; ch <= (off+n-1)/cacheChunk; ch++ {
		if !m[ch] {
			return false
		}
	}
	return true
}

func (c *container) markChunks(key string, off, n int, whole bool) {
	m, ok := c.fetched[key]
	if !ok {
		m = map[int]bool{}
		c.fetched[key] = m
	}
	if whole {
		m[-1] = true
		return
	}
	// Only chunks fully covered by the fetched range may be marked;
	// partially covered boundary chunks would otherwise serve holes.
	first := (off + cacheChunk - 1) / cacheChunk
	last := (off + n) / cacheChunk
	for ch := first; ch < last; ch++ {
		m[ch] = true
	}
}

// fetch pulls a private copy of [off,n) (or the whole value when n < 0)
// from the global tier into the container, honouring which ranges were
// actually retrieved before (a sparse cache must never serve holes).
func (a *containerAPI) fetch(key string, off, n int) ([]byte, error) {
	if v, ok := a.c.state[key]; ok {
		if n < 0 && a.c.haveChunks(key, 0, len(v)) {
			return v, nil
		}
		if n >= 0 && off+n <= len(v) && (n == 0 || a.c.haveChunks(key, off, n)) {
			return v[off : off+n], nil
		}
	}
	var data []byte
	var err error
	if n < 0 {
		data, err = a.p.cfg.Store.Get(key)
	} else {
		// Containers fetch whole values even for partial access unless the
		// application explicitly ranges; we honour the range here (the
		// Knative host-interface port does), the duplication cost remains.
		data, err = a.p.cfg.Store.GetRange(key, off, n)
	}
	if err != nil {
		return nil, err
	}
	if n < 0 {
		a.cache(key, data)
		a.c.markChunks(key, 0, len(data), true)
		return data, nil
	}
	// Range fetch: cache as a sparse private copy.
	full := a.c.state[key]
	if need := off + n; need > len(full) {
		grown := make([]byte, need)
		copy(grown, full)
		full = grown
	}
	copy(full[off:], data)
	a.cache(key, full)
	a.c.markChunks(key, off, n, false)
	return full[off : off+n], nil
}

func (a *containerAPI) cache(key string, data []byte) {
	old := int64(len(a.c.state[key]))
	a.c.state[key] = data
	delta := int64(len(data)) - old
	a.c.stateBytes += delta
	a.p.mu.Lock()
	a.p.memUsed += delta
	a.p.mu.Unlock()
}

func (a *containerAPI) StateView(key string, size int) ([]byte, error) {
	if size >= 0 {
		if v, ok := a.c.state[key]; ok && len(v) == size && a.c.haveChunks(key, 0, size) {
			return v, nil
		}
		if n, _ := a.p.cfg.Store.Len(key); n == 0 {
			// Fresh value: allocate privately; push creates it globally.
			buf := make([]byte, size)
			a.cache(key, buf)
			a.c.markChunks(key, 0, size, true)
			return buf, nil
		}
	}
	return a.fetch(key, 0, -1)
}

func (a *containerAPI) StateViewChunk(key string, off, n int) ([]byte, error) {
	return a.fetch(key, off, n)
}

func (a *containerAPI) StatePush(key string) error {
	v, ok := a.c.state[key]
	if !ok {
		return fmt.Errorf("baseline: push of unfetched key %s", key)
	}
	return a.p.cfg.Store.SetRange(key, 0, v)
}

func (a *containerAPI) StatePushChunk(key string, off, n int) error {
	v, ok := a.c.state[key]
	if !ok || off+n > len(v) {
		return fmt.Errorf("baseline: push chunk of unfetched key %s", key)
	}
	return a.p.cfg.Store.SetRange(key, off, v[off:off+n])
}

func (a *containerAPI) StatePull(key string) error {
	_, err := a.fetch(key, 0, -1)
	if err != nil {
		return err
	}
	// Force refresh: drop and re-fetch.
	data, err := a.p.cfg.Store.Get(key)
	if err != nil {
		return err
	}
	a.cache(key, data)
	a.c.markChunks(key, 0, len(data), true)
	return nil
}

func (a *containerAPI) StateAppend(key string, data []byte) error {
	_, err := a.p.cfg.Store.Append(key, data)
	return err
}

func (a *containerAPI) StateReadAll(key string) ([]byte, error) {
	return a.p.cfg.Store.Get(key)
}

var _ hostapi.API = (*containerAPI)(nil)
