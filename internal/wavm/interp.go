package wavm

import (
	"errors"
	"fmt"
	"math"

	"faasm.dev/faasm/internal/wamem"
)

// HostFunc is a host-interface thunk: the trusted implementation injected
// into the guest's import space during the linking phase (Fig 3). Arguments
// and results use the VM's raw 64-bit value encoding (see EncodeF64 etc.).
// A non-nil error aborts the guest with a TrapHostError.
type HostFunc func(inst *Instance, args []uint64) ([]uint64, error)

// HostModule groups host functions under an import module name.
type HostModule map[string]HostFunc

// DefaultMaxCallDepth bounds guest recursion; exceeding it raises
// TrapStackOverflow rather than exhausting the Go stack.
const DefaultMaxCallDepth = 512

// Instance is an executable Faaslet function: a validated module linked with
// its host interface and bound to a linear memory.
type Instance struct {
	mod     *Module
	low     *lowered // mod's executable form, shared with its other instances
	mem     *wamem.Memory
	globals []uint64
	table   []int32
	hosts   []HostFunc

	// Steps counts executed source instructions, the VM-level analogue of the
	// CPU cycle accounting in Table 3; the cgroup layer charges from it. It is
	// charged a basic block at a time, on entry: exact for every run that does
	// not trap, and on a trap at most one block (less the trapping
	// instruction) ahead of the instruction that trapped.
	Steps uint64
	// Fuel, when ≥ 0, is the remaining instruction budget; exhaustion traps.
	// It implements the CPU quota half of resource isolation. A block is
	// entered only if the budget covers all of it, so the trap comes at most
	// one block early, never late.
	Fuel int64

	// regs is the register file: one contiguous run of frames, each a window
	// that starts at its caller's argument registers. It is allocated at the
	// entry function's frame size on the first call and grows on demand; its
	// length is the deepest any call since the last Reset has reached.
	regs []uint64
	// sp is the first register free for a new entry frame: 0 at rest, and
	// above the live frames while a host function runs, so a host function
	// that calls back into the instance cannot clobber them.
	sp int
	// frames is the stack of suspended guest callers.
	frames []lframe

	maxDepth  int
	skipStart bool
	// fuelBudget is the budget WithFuel configured; Reset refills Fuel to it.
	fuelBudget int64
	// owner is the embedder's value behind this instance (WithOwner): host
	// functions shared by many instances find their per-instance context
	// through it. Last, so the fields the execution loop touches keep their
	// offsets.
	owner any
}

// InstanceOption configures instantiation.
type InstanceOption func(*Instance)

// WithMemory binds an existing memory (e.g. one restored from a
// Proto-Faaslet snapshot) instead of allocating a fresh one. Data segments
// are not re-applied to restored memories.
func WithMemory(m *wamem.Memory) InstanceOption {
	return func(i *Instance) { i.mem = m }
}

// WithFuel enables CPU metering with the given instruction budget.
func WithFuel(fuel int64) InstanceOption {
	return func(i *Instance) { i.Fuel = fuel }
}

// WithMaxCallDepth overrides the guest recursion bound.
func WithMaxCallDepth(d int) InstanceOption {
	return func(i *Instance) { i.maxDepth = d }
}

// WithOwner attaches an opaque owner that host functions read back through
// Instance.Owner, so one immutable import table can serve every instance.
// It is set before the start function runs and kept across Reset.
func WithOwner(owner any) InstanceOption {
	return func(i *Instance) { i.owner = owner }
}

// WithSkipStart suppresses the module's start function. Used when resuming
// from a Proto-Faaslet snapshot, whose memory already reflects
// initialisation.
func WithSkipStart() InstanceOption {
	return func(i *Instance) { i.skipStart = true }
}

// Instantiate links a validated module against its host imports and
// prepares it for execution. Unvalidated modules are refused: code must
// pass the trusted code-generation phase first.
func Instantiate(mod *Module, imports map[string]HostModule, opts ...InstanceOption) (*Instance, error) {
	if !mod.Validated {
		return nil, errors.New("wavm: refusing to instantiate unvalidated module")
	}
	if mod.low == nil {
		// The flag was set by hand: Validate and DecodeObject, the only two
		// places that lower, both attach the result.
		return nil, errors.New("wavm: refusing to instantiate a module Validate or DecodeObject did not produce")
	}
	inst := &Instance{mod: mod, low: mod.low, Fuel: -1, maxDepth: DefaultMaxCallDepth}
	for _, o := range opts {
		o(inst)
	}
	inst.fuelBudget = inst.Fuel
	if inst.mem == nil && mod.MemMin > 0 {
		mem, err := wamem.New(mod.MemMin, mod.MemMax)
		if err != nil {
			return nil, err
		}
		inst.mem = mem
		for _, d := range mod.Data {
			if err := mem.WriteBytes(d.Offset, d.Bytes); err != nil {
				return nil, fmt.Errorf("wavm: data segment at %d: %w", d.Offset, err)
			}
		}
	}
	inst.globals = make([]uint64, len(mod.Globals))
	for i, g := range mod.Globals {
		inst.globals[i] = rawGlobal(g)
	}
	inst.table = append([]int32(nil), mod.Table...)
	inst.hosts = make([]HostFunc, len(mod.Imports))
	for i, imp := range mod.Imports {
		hm, ok := imports[imp.Module]
		if !ok {
			return nil, fmt.Errorf("wavm: unresolved import module %q", imp.Module)
		}
		fn, ok := hm[imp.Name]
		if !ok {
			return nil, fmt.Errorf("wavm: unresolved import %s.%s", imp.Module, imp.Name)
		}
		inst.hosts[i] = fn
	}
	if mod.Start >= 0 && !inst.skipStart {
		if _, err := inst.CallIndex(mod.Start); err != nil {
			return nil, fmt.Errorf("wavm: start function: %w", err)
		}
	}
	return inst, nil
}

func rawGlobal(g Global) uint64 {
	switch g.Type {
	case I32:
		return uint64(uint32(g.Init))
	case F32:
		return uint64(uint32(g.Init))
	default:
		return uint64(g.Init)
	}
}

// Memory returns the instance's linear memory (nil if the module has none).
func (i *Instance) Memory() *wamem.Memory { return i.mem }

// Owner returns the value WithOwner attached (nil if none).
func (i *Instance) Owner() any { return i.owner }

// Globals returns a copy of all global raw values.
func (i *Instance) Globals() []uint64 { return append([]uint64(nil), i.globals...) }

// Reset returns the instance, in place, to the state of a freshly linked one
// whose globals hold the given raw values (a Proto-Faaslet's): the per-call
// reset of §5.2. Globals, the indirect-call table, the fuel budget, the step
// counter, the call stack and every register a call may have written are
// restored; the host bindings, the lowered code, the memory binding and the
// register file's storage are kept, so nothing is allocated. The memory's
// contents are the caller's to restore (wamem.Memory.RestoreFrom). It must
// not be called while a call is in progress.
func (i *Instance) Reset(globals []uint64) error {
	if len(globals) != len(i.globals) {
		return fmt.Errorf("wavm: reset with %d globals, instance has %d", len(globals), len(i.globals))
	}
	copy(i.globals, globals)
	copy(i.table, i.mod.Table)
	i.Fuel, i.Steps = i.fuelBudget, 0
	i.frames, i.sp = i.frames[:0], 0
	// The file's length is the high-water mark (growRegs): clearing that
	// prefix clears every register the previous call wrote.
	clear(i.regs)
	i.regs = i.regs[:0]
	return nil
}

// Call invokes the exported function name with raw-encoded arguments.
func (i *Instance) Call(name string, args ...uint64) ([]uint64, error) {
	idx, ok := i.mod.ExportedFunc(name)
	if !ok {
		return nil, fmt.Errorf("wavm: no exported function %q", name)
	}
	return i.CallIndex(idx, args...)
}

// CallIndex invokes a function by absolute index.
func (i *Instance) CallIndex(idx int, args ...uint64) ([]uint64, error) {
	ft, err := i.mod.FuncTypeAt(idx)
	if err != nil {
		return nil, err
	}
	if len(args) != len(ft.Params) {
		return nil, fmt.Errorf("wavm: function %d wants %d args, got %d", idx, len(ft.Params), len(args))
	}
	if idx < len(i.low.imports) {
		return i.callHost(idx, args)
	}
	fn := &i.low.funcs[idx-len(i.low.imports)]
	base := i.sp
	if need := base + fn.nregs; need > len(i.regs) && !i.growRegs(need) {
		return nil, trap(TrapStackOverflow, idx)
	}
	fr := i.regs[base : base+fn.nregs]
	copy(fr, args)
	clear(fr[fn.nparams:fn.nlocals])
	if err := i.run(fn, base); err != nil {
		return nil, err
	}
	if len(ft.Results) == 0 {
		return nil, nil
	}
	return []uint64{i.regs[base]}, nil
}

// Raw value encoding helpers, shared with host-interface thunks.

// EncodeI32 encodes an int32 as a raw VM value.
func EncodeI32(v int32) uint64 { return uint64(uint32(v)) }

// DecodeI32 decodes a raw VM value as int32.
func DecodeI32(v uint64) int32 { return int32(uint32(v)) }

// EncodeF64 encodes a float64 as a raw VM value.
func EncodeF64(v float64) uint64 { return math.Float64bits(v) }

// DecodeF64 decodes a raw VM value as float64.
func DecodeF64(v uint64) float64 { return math.Float64frombits(v) }

// EncodeF32 encodes a float32 as a raw VM value.
func EncodeF32(v float32) uint64 { return uint64(math.Float32bits(v)) }

// wasmMin implements the wasm min semantics: NaN-propagating, -0 < +0.
func wasmMin(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	if a == b {
		if math.Signbit(a) {
			return a
		}
		return b
	}
	if a < b {
		return a
	}
	return b
}

// wasmMax implements the wasm max semantics: NaN-propagating, +0 > -0.
func wasmMax(a, b float64) float64 {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.NaN()
	}
	if a == b {
		if !math.Signbit(a) {
			return a
		}
		return b
	}
	if a > b {
		return a
	}
	return b
}
