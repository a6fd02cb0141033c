// Package core implements the Faaslet (§3): the paper's lightweight
// isolation abstraction. A Faaslet binds one function — a wavm module
// (software-fault-isolated secure IR) or a native guest constrained to the
// same host interface — to:
//
//   - a linear memory with private and shared regions (internal/wamem);
//   - the minimal host interface of Table 2 (chained calls, two-tier state,
//     a POSIX subset for memory, files, network, timing and randomness);
//   - resource isolation: a CPU cgroup charged with executed work and a
//     virtual network interface with namespace policy and traffic shaping;
//   - a lifecycle with Proto-Faaslet snapshots (§5.2): ahead-of-time
//     initialisation, sub-millisecond copy-on-write restores, and a reset
//     after every call that provably discards all guest-visible residue.
//
// Every Faaslet has a reset image (a Proto): the one it was restored from or
// had installed, or else one New captures — copy-free, by aliasing pages —
// once data segments are written and the start function has run. Reset
// restores that image into the live memory and the live VM instance; nothing
// is rebuilt, and its cost is the page table walk plus the pages the call
// made private (see wamem.Memory.RestoreFrom, wavm.Instance.Reset).
//
// Linking binds nothing per Faaslet. The host interface is one immutable
// table built at package init (hostiface.go) and shared by every Faaslet and
// every dlopen'd library; a host function finds its Faaslet as the owner of
// the instance that called it (wavm.WithOwner). Native guests reach the same
// Faaslet methods through Ctx. What New and NewFromProto still allocate is
// the Faaslet's own: its shell (id, file and network views, two small maps),
// its memory and page table, and the VM instance with the options that
// configure it — about 20 allocations and 1.3 KB for the no-op module.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"faasm.dev/faasm/internal/cgroup"
	"faasm.dev/faasm/internal/netns"
	"faasm.dev/faasm/internal/state"
	"faasm.dev/faasm/internal/vfs"
	"faasm.dev/faasm/internal/vtime"
	"faasm.dev/faasm/internal/wamem"
	"faasm.dev/faasm/internal/wavm"
)

// Chainer is the runtime surface Faaslets use for function chaining
// (chain_call / await_call / get_call_output). The FAASM runtime implements
// it; tests may supply fakes.
type Chainer interface {
	Chain(function string, input []byte) (uint64, error)
	Await(id uint64) (int32, error)
	Output(id uint64) ([]byte, error)
}

// TraceSink receives timing spans recorded inside a Faaslet's host interface
// (state pulls/pushes with byte counts, global-tier reads). The runtime
// attaches one per sampled call via SetTraceSink; obsv.Trace implements it.
// core deliberately depends only on this interface, not on the obsv package.
type TraceSink interface {
	RecordSpan(host, name, key string, start time.Time, dur time.Duration, bytes int64, fail bool)
}

// StateAccess observes guest state reads (key + bytes addressed) so the
// runtime can maintain per-function access profiles for locality-aware
// scheduling. core depends only on this interface, mirroring TraceSink.
type StateAccess interface {
	NoteStateAccess(fn, key string, n int64)
}

// NativeGuest is a function "compiled" to run inside a Faaslet without the
// VM: it may only touch the outside world through the Ctx handle, which is
// the same host interface the VM thunks expose. The returned int32 is the
// function's return code.
type NativeGuest func(ctx *Ctx) (int32, error)

// FuncDef describes a deployable function.
type FuncDef struct {
	Name string
	// Module is the validated wavm module (nil for native guests).
	Module *wavm.Module
	// Native is the native guest body (nil for wavm guests).
	Native NativeGuest
	// MemLimitPages is the per-function memory limit (§3.2); 0 means the
	// default of 1024 pages (64 MiB).
	MemLimitPages int
	// InitialPages sizes fresh memories for native guests (wavm guests use
	// the module's declaration).
	InitialPages int
	// Fuel bounds guest instructions per call, 0 = unmetered.
	Fuel int64
}

// DefaultMemLimitPages bounds function memory when FuncDef doesn't.
const DefaultMemLimitPages = 1024

// Env carries the per-host substrates a Faaslet plugs into.
type Env struct {
	State  *state.LocalTier
	Files  vfs.GlobalStore
	CGroup *cgroup.Controller
	Clock  vtime.Clock
	Chain  Chainer
	// NetPolicy configures each Faaslet's virtual interface.
	NetPolicy netns.Policy
	// NetDialer overrides host dialing (tests, simulator).
	NetDialer netns.Dialer
	// RandSeed seeds the per-Faaslet PRNG behind getrandom; 0 derives one
	// from the Faaslet id, keeping runs reproducible.
	RandSeed int64
	// Access, when non-nil, observes guest state reads for the per-function
	// access profiles behind locality-aware scheduling.
	Access StateAccess
}

func (e *Env) clock() vtime.Clock {
	if e.Clock == nil {
		return vtime.Real{}
	}
	return e.Clock
}

// ErrNoFunction is returned when a FuncDef has neither module nor native.
var ErrNoFunction = errors.New("core: function has no body")

var (
	errNoChainer = errors.New("core: no chainer configured")
	errNoState   = errors.New("core: no state tier configured")
)

var faasletIDs atomic.Uint64

// Faaslet is one isolated function execution context.
type Faaslet struct {
	id   string
	def  FuncDef
	env  *Env
	mem  *wamem.Memory
	inst *wavm.Instance // nil for native guests
	// entry is the guest entry point's function index ("main", else
	// "_start"), resolved when the instance is linked; -1 if the module
	// exports neither.
	entry int
	fs    *vfs.FS
	net   *netns.Interface
	// rng is the PRNG behind getrandom, held by value: 16 bytes of state,
	// seeded without allocating.
	rng rand.PCG

	// birth anchors the per-user monotonic clock (gettime host call).
	birth time.Time

	// Call state.
	input  []byte
	output []byte

	// mapped tracks state segments spliced into the linear address space:
	// key → guest base offset.
	mapped map[string]uint32

	// globalLockTokens holds live global lock leases per key.
	globalLockTokens map[string]uint64

	// libs are dlopen'd modules.
	libs []*library

	// chained lists the calls this call has chained (Chained).
	chained []uint64

	// proto is the reset image: what Reset restores. Never nil once the
	// Faaslet is built.
	proto *Proto

	// trace is the current call's span sink (nil when the call is not
	// sampled); traceHost labels its spans.
	trace     TraceSink
	traceHost string

	// Steps mirrors the VM's executed-instruction counter at last call.
	Steps uint64

	// Cold reports whether the Faaslet has ever executed (scheduling).
	executed bool
}

// New creates a Faaslet for def. For wavm guests this performs the "linking"
// phase: the module's imports resolve against the shared host table, with
// the Faaslet as the instance's owner. The Faaslet's state once it is built —
// data segments written, start function run — is captured as its reset image.
func New(def FuncDef, env *Env) (*Faaslet, error) {
	if def.Module == nil && def.Native == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoFunction, def.Name)
	}
	f := newShell(def, env)
	limit := def.MemLimitPages
	if limit <= 0 {
		limit = DefaultMemLimitPages
	}
	initial := def.InitialPages
	if def.Module != nil {
		initial = def.Module.MemMin
	}
	mem, err := wamem.New(maxInt(initial, 1), limit)
	if err != nil {
		return nil, err
	}
	f.mem = mem
	if def.Module != nil {
		for _, d := range def.Module.Data {
			if err := mem.WriteBytes(d.Offset, d.Bytes); err != nil {
				return nil, fmt.Errorf("core: data segment: %w", err)
			}
		}
		if err := f.link(); err != nil {
			return nil, err
		}
	}
	if _, err := f.Snapshot(); err != nil {
		return nil, err
	}
	return f, nil
}

// link instantiates the function's module over f.mem, resolving its imports
// against hostTable with f as the owner, and resolves the guest entry point.
// It runs once per Faaslet; resets reuse the instance.
func (f *Faaslet) link(opts ...wavm.InstanceOption) error {
	opts = append(opts, wavm.WithMemory(f.mem), wavm.WithFuel(fuelOrUnlimited(f.def.Fuel)), wavm.WithOwner(f))
	inst, err := wavm.Instantiate(f.def.Module, hostTable, opts...)
	if err != nil {
		return fmt.Errorf("core: link %s: %w", f.def.Name, err)
	}
	f.inst = inst
	f.entry = -1
	for _, name := range []string{"main", "_start"} {
		if idx, ok := f.def.Module.ExportedFunc(name); ok {
			f.entry = idx
			break
		}
	}
	return nil
}

// newShell builds a Faaslet's host-side shell: everything except its memory
// and VM instance (which New builds fresh and NewFromProto restores).
func newShell(def FuncDef, env *Env) *Faaslet {
	if env == nil {
		env = &Env{}
	}
	n := faasletIDs.Add(1)
	id := fmt.Sprintf("%s-%d", def.Name, n)
	f := &Faaslet{
		id:               id,
		def:              def,
		env:              env,
		fs:               vfs.New(env.Files),
		birth:            env.clock().Now(),
		mapped:           map[string]uint32{},
		globalLockTokens: map[string]uint64{},
	}
	seed := uint64(env.RandSeed)
	if seed == 0 {
		seed = n * 2654435761
	}
	f.rng.Seed(seed, 0)
	f.net = netns.New(env.NetPolicy, env.NetDialer, env.clock())
	if env.CGroup != nil {
		env.CGroup.Create(id)
	}
	return f
}

func fuelOrUnlimited(fuel int64) int64 {
	if fuel <= 0 {
		return -1
	}
	return fuel
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Memory exposes the linear memory (tests, snapshots).
func (f *Faaslet) Memory() *wamem.Memory { return f.mem }

// FS exposes the Faaslet's filesystem view.
func (f *Faaslet) FS() *vfs.FS { return f.fs }

// Net exposes the Faaslet's virtual network interface.
func (f *Faaslet) Net() *netns.Interface { return f.net }

// Warm reports whether this Faaslet has executed at least once.
func (f *Faaslet) Warm() bool { return f.executed }

// SetTraceSink attaches (sink non-nil) or detaches (nil) the current call's
// trace; host labels the spans recorded through it. Only sampled calls attach
// a sink, so the untraced host-interface path never reads the clock.
func (f *Faaslet) SetTraceSink(host string, sink TraceSink) {
	f.trace = sink
	f.traceHost = host
}

// Footprint estimates the Faaslet's private memory consumption: materialised
// private pages, the local file tier, and fixed bookkeeping. Shared state
// segments are deliberately excluded — they are counted once per host by the
// local tier, which is what makes Faaslet density an order of magnitude
// better than containers (Table 3).
func (f *Faaslet) Footprint() int64 {
	const bookkeeping = 2048 // structs, fd table, page table
	return f.mem.Footprint() + f.fs.LocalBytes() + bookkeeping
}

// Execute runs one function call: input in, output + return code out. Guest
// traps and host-interface violations surface as errors; the Faaslet itself
// remains usable (the runtime resets it before reuse).
func (f *Faaslet) Execute(input []byte) ([]byte, int32, error) {
	f.input = input
	f.output = nil
	f.executed = true
	start := f.env.clock().Now()

	var ret int32
	var err error
	if f.inst != nil {
		stepsBefore := f.inst.Steps
		ret, err = f.callWavmEntry()
		f.Steps = f.inst.Steps - stepsBefore
	} else {
		ctx := &Ctx{f: f}
		func() {
			defer func() {
				if r := recover(); r != nil {
					// A native guest escaping through panic is contained at
					// the Faaslet boundary, like an SFI trap.
					err = fmt.Errorf("core: native guest panic: %v", r)
					ret = -1
				}
			}()
			ret, err = f.def.Native(ctx)
		}()
		// Native guests are charged wall time as a cycle proxy.
		f.Steps = uint64(f.env.clock().Now().Sub(start) / time.Microsecond)
	}
	if f.env.CGroup != nil {
		f.env.CGroup.Charge(f.id, int64(f.Steps))
	}
	if err != nil {
		return nil, ret, err
	}
	return f.output, ret, nil
}

// callWavmEntry invokes the guest entry point, whose signature is ()->i32
// or ()->().
func (f *Faaslet) callWavmEntry() (int32, error) {
	if f.entry < 0 {
		return -1, fmt.Errorf("core: module %s exports no main/_start", f.def.Name)
	}
	res, err := f.inst.CallIndex(f.entry)
	if err != nil {
		return -1, err
	}
	if len(res) == 1 {
		return wavm.DecodeI32(res[0]), nil
	}
	return 0, nil
}

// mapState splices a state value's shared segment into the linear address
// space (once per key), returning the guest base offset of the value.
func (f *Faaslet) mapState(v *state.Value) (uint32, error) {
	if base, ok := f.mapped[v.Key()]; ok {
		return base, nil
	}
	base, err := f.mem.MapShared(v.Segment())
	if err != nil {
		return 0, fmt.Errorf("core: map state %s: %w", v.Key(), err)
	}
	f.mapped[v.Key()] = base
	return base, nil
}

// releaseGlobalLocks drops any leaked global lock leases (guest forgot to
// unlock, or trapped while holding them).
func (f *Faaslet) releaseGlobalLocks() {
	if f.env.State == nil {
		return
	}
	if len(f.globalLockTokens) == 0 {
		return
	}
	for key, tok := range f.globalLockTokens {
		f.env.State.UnlockGlobal(key, tok)
	}
	clear(f.globalLockTokens)
}

// Reset returns the Faaslet to its pristine state between calls (§5.2):
// memory and VM instance restored in place from the reset image, file
// descriptors and local files dropped, sockets closed, state mappings and
// lock leases released. After Reset, nothing written by the previous call is
// observable — the multi-tenant reuse guarantee.
func (f *Faaslet) Reset() error {
	f.releaseGlobalLocks()
	f.fs.Reset()
	f.net.Reset()
	clear(f.mapped)
	f.input = nil
	f.output = nil
	f.libs = nil
	f.chained = f.chained[:0]
	return f.restore()
}

// restore returns memory and instance to the reset image.
func (f *Faaslet) restore() error {
	f.mem.RestoreFrom(f.proto.mem)
	if f.inst != nil {
		return f.inst.Reset(f.proto.globals)
	}
	return nil
}

// Chained lists the ids of the calls chained during the current call, in
// order. The runtime owns their records and discards them when the call
// returns; Reset empties the list.
func (f *Faaslet) Chained() []uint64 { return f.chained }

// chain is chain_call for both guest kinds: it starts the call and records
// its id against this one.
func (f *Faaslet) chain(function string, input []byte) (uint64, error) {
	if f.env.Chain == nil {
		return 0, errNoChainer
	}
	id, err := f.env.Chain.Chain(function, input)
	if err != nil {
		return 0, err
	}
	f.chained = append(f.chained, id)
	return id, nil
}

// await is await_call for both guest kinds.
func (f *Faaslet) await(id uint64) (int32, error) {
	if f.env.Chain == nil {
		return -1, errNoChainer
	}
	return f.env.Chain.Await(id)
}

// callOutput is get_call_output for both guest kinds.
func (f *Faaslet) callOutput(id uint64) ([]byte, error) {
	if f.env.Chain == nil {
		return nil, errNoChainer
	}
	return f.env.Chain.Output(id)
}

// lockGlobal takes a global lock for both guest kinds, keeping its lease so
// unlockGlobal, or the next reset if the guest leaks it, can release it.
func (f *Faaslet) lockGlobal(key string, write bool) error {
	if f.env.State == nil {
		return errNoState
	}
	tok, err := f.env.State.LockGlobal(key, write)
	if err != nil {
		return err
	}
	f.globalLockTokens[key] = tok
	return nil
}

// unlockGlobal releases a global lock this Faaslet holds.
func (f *Faaslet) unlockGlobal(key string) error {
	tok, ok := f.globalLockTokens[key]
	if !ok {
		return fmt.Errorf("core: no global lock held on %s", key)
	}
	delete(f.globalLockTokens, key)
	return f.env.State.UnlockGlobal(key, tok)
}

// The state calls of Table 2, one method each for both guest kinds. Each
// resolves the value, moves the bytes, records a state.* span with its byte
// count on a sampled call, and notes the bytes a read addressed in the
// access profile; the wasm thunks add only argument decoding and mapState.

// value resolves key's local replica; size < 0 discovers the size.
func (f *Faaslet) value(key string, size int) (*state.Value, error) {
	if f.env.State == nil {
		return nil, errNoState
	}
	return f.env.State.Value(key, size)
}

// getState is get_state: it pulls whatever of the value is not yet local.
func (f *Faaslet) getState(key string, size int) (*state.Value, error) {
	v, err := f.value(key, size)
	if err != nil {
		return nil, err
	}
	return v, f.ensurePulled(v, 0, v.Size())
}

// getStateChunk is get_state_offset and pull_state_offset: it pulls only the
// missing chunks covering [off, off+n).
func (f *Faaslet) getStateChunk(key string, off, n int) (*state.Value, error) {
	v, err := f.value(key, -1)
	if err != nil {
		return nil, err
	}
	return v, f.ensurePulled(v, off, n)
}

// ensurePulled pulls the missing chunks of [off, off+n) of v.
func (f *Faaslet) ensurePulled(v *state.Value, off, n int) error {
	start := f.traceStart()
	pulled, err := v.EnsurePulledN(off, n)
	f.traceSpan("state.pull", v.Key(), start, pulled, err)
	f.noteStateAccess(v.Key(), int64(n))
	return err
}

// pullState is pull_state: it refreshes the whole replica.
func (f *Faaslet) pullState(key string) error {
	v, err := f.value(key, -1)
	if err != nil {
		return err
	}
	start := f.traceStart()
	pulled, err := v.PullN()
	f.traceSpan("state.pull", key, start, pulled, err)
	f.noteStateAccess(key, int64(v.Size()))
	return err
}

// pushState is push_state.
func (f *Faaslet) pushState(key string) error {
	v, err := f.value(key, -1)
	if err != nil {
		return err
	}
	start := f.traceStart()
	err = v.Push()
	f.traceSpan("state.push", key, start, int64(v.Size()), err)
	return err
}

// pushStateChunk is push_state_offset.
func (f *Faaslet) pushStateChunk(key string, off, n int) error {
	v, err := f.value(key, -1)
	if err != nil {
		return err
	}
	start := f.traceStart()
	err = v.PushChunk(off, n)
	f.traceSpan("state.push", key, start, int64(n), err)
	return err
}

// appendState is append_state.
func (f *Faaslet) appendState(key string, data []byte) error {
	if f.env.State == nil {
		return errNoState
	}
	start := f.traceStart()
	err := f.env.State.Append(key, data)
	f.traceSpan("state.append", key, start, int64(len(data)), err)
	return err
}

// noteStateAccess feeds one guest state read (key, bytes addressed) into
// the environment's access observer; a no-op when none is attached or the
// read touched nothing.
func (f *Faaslet) noteStateAccess(key string, n int64) {
	if f.env.Access == nil || n <= 0 {
		return
	}
	f.env.Access.NoteStateAccess(f.def.Name, key, n)
}

// traceStart returns the clock reading to pass to traceSpan, or the zero
// Time when this call carries no trace — untraced calls skip the clock read.
func (f *Faaslet) traceStart() time.Time {
	if f.trace == nil {
		return time.Time{}
	}
	return f.env.clock().Now()
}

// traceSpan records one host-interface span on the call's trace sink. A zero
// start (untraced call) makes it a no-op, so call sites instrument
// unconditionally.
func (f *Faaslet) traceSpan(name, key string, start time.Time, bytes int64, err error) {
	if f.trace == nil || start.IsZero() {
		return
	}
	now := f.env.clock().Now()
	f.trace.RecordSpan(f.traceHost, name, key, start, now.Sub(start), bytes, err != nil)
}

// fillRandom fills b from the Faaslet's PRNG (getrandom for both guest
// kinds), eight bytes per draw, little-endian.
func (f *Faaslet) fillRandom(b []byte) {
	var w [8]byte
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(w[:], f.rng.Uint64())
		copy(b[i:], w[:])
	}
}

// Close releases host resources (cgroup, sockets).
func (f *Faaslet) Close() {
	f.releaseGlobalLocks()
	f.net.Reset()
	if f.env.CGroup != nil {
		f.env.CGroup.Remove(f.id)
	}
}

// Ctx is the native-guest host interface: the same surface as Table 2,
// expressed as Go methods over the Faaslet methods the wasm thunks call, so
// both guest kinds record the same spans and access profile. It is also the
// portable hostapi.API. Native guests must treat it as their only door to
// the outside world.
type Ctx struct {
	f *Faaslet
}

// NewCtx builds a host-side Ctx for trusted deployment-time code (e.g.
// Proto-Faaslet initialisation). Guests never construct Ctx values.
func NewCtx(f *Faaslet) *Ctx { return &Ctx{f: f} }

// Input returns the call's input byte array (read_call_input).
func (c *Ctx) Input() []byte { return c.f.input }

// WriteOutput sets the call's output byte array (write_call_output).
func (c *Ctx) WriteOutput(b []byte) {
	c.f.output = append([]byte(nil), b...)
}

// Chain invokes another function (chain_call), returning its call id.
func (c *Ctx) Chain(function string, input []byte) (uint64, error) {
	return c.f.chain(function, input)
}

// Await blocks until a chained call finishes (await_call).
func (c *Ctx) Await(id uint64) (int32, error) { return c.f.await(id) }

// OutputOf fetches a finished chained call's output (get_call_output).
func (c *Ctx) OutputOf(id uint64) ([]byte, error) { return c.f.callOutput(id) }

// StateView maps the value's shared segment into the Faaslet's linear memory
// and returns a zero-copy byte view of the value (get_state). size < 0
// discovers the size.
func (c *Ctx) StateView(key string, size int) ([]byte, error) {
	v, err := c.f.getState(key, size)
	if err == nil {
		_, err = c.f.mapState(v)
	}
	if err != nil {
		return nil, err
	}
	return v.Bytes(), nil
}

// StateViewChunk pulls only the chunks covering [off, off+n) and returns that
// window of the replica in place (get_state_offset).
func (c *Ctx) StateViewChunk(key string, off, n int) ([]byte, error) {
	v, err := c.f.getStateChunk(key, off, n)
	if err != nil {
		return nil, err
	}
	return v.Bytes()[off : off+n], nil
}

// StatePull refreshes the replica from the global tier (pull_state).
func (c *Ctx) StatePull(key string) error { return c.f.pullState(key) }

// StatePush writes the replica to the global tier (push_state).
func (c *Ctx) StatePush(key string) error { return c.f.pushState(key) }

// StatePushChunk writes [off, off+n) of the replica to the global tier
// (push_state_offset).
func (c *Ctx) StatePushChunk(key string, off, n int) error {
	return c.f.pushStateChunk(key, off, n)
}

// StateAppend appends to the global value (append_state).
func (c *Ctx) StateAppend(key string, data []byte) error { return c.f.appendState(key, data) }

// StateReadAll fetches the authoritative global value. Wasm guests have no
// such call, so its one implementation is here.
func (c *Ctx) StateReadAll(key string) ([]byte, error) {
	f := c.f
	if f.env.State == nil {
		return nil, errNoState
	}
	start := f.traceStart()
	b, err := f.env.State.ReadAll(key)
	f.traceSpan("state.read_all", key, start, int64(len(b)), err)
	f.noteStateAccess(key, int64(len(b)))
	return b, err
}

// LockGlobal acquires a global lock (lock_state_global_read/write); the
// lease is tracked and auto-released at reset if leaked.
func (c *Ctx) LockGlobal(key string, write bool) error { return c.f.lockGlobal(key, write) }

// UnlockGlobal releases a global lock taken by this Faaslet.
func (c *Ctx) UnlockGlobal(key string) error { return c.f.unlockGlobal(key) }

// FS exposes the read-global write-local filesystem.
func (c *Ctx) FS() *vfs.FS { return c.f.fs }

// Memory exposes the Faaslet's linear memory.
func (c *Ctx) Memory() *wamem.Memory { return c.f.mem }

// Now returns the per-user monotonic clock (gettime): time since the
// Faaslet's creation, never the wall clock.
func (c *Ctx) Now() time.Duration {
	return c.f.env.clock().Now().Sub(c.f.birth)
}

// Random fills b from the Faaslet's seeded PRNG (getrandom).
func (c *Ctx) Random(b []byte) { c.f.fillRandom(b) }
