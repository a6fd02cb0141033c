// Package wavm implements the secure intermediate representation that
// Faaslets execute: a from-scratch virtual machine with the WebAssembly
// execution model. Functions are compiled (from the wat-like text format or
// the fcc toolchain) into modules, validated exactly once in the trusted
// code-generation phase (Fig 3 of the paper), linked against host-interface
// thunks, and executed with full software-fault isolation: every memory
// access is bounds-checked against the instance's linear memory and every
// violation raises a Trap.
//
// The paper uses WAVM (an LLVM-based WebAssembly JIT); Go cannot emit
// machine code from the standard library, so the code-generation phase
// stops one step short of it. Validate (validate.go) type-checks the stack
// code and resolves its control flow; lower (lower.go) then rewrites each
// function, once, into register-form code — stack slots become frame
// registers, local.get/const fold into their consumers, block structure
// disappears, the hot pairs fuse — and Instance.exec (exec.go) is a single
// switch loop over that code, on one register file per instance, charging
// Steps and Fuel a basic block at a time. That is the only engine: lowering
// happens wherever a module becomes Validated (Validate, DecodeObject), its
// result is shared by all instances of the module and never serialised, and
// the stack interpreter it replaced survives only in this package's test
// files as the reference of the differential tests and FuzzLowerVsRef. See
// "Execution tier" in docs/ARCHITECTURE.md for the frame layout and the
// Steps/Fuel contract.
//
// The isolation semantics — validated modules, linear memory, typed
// function tables, traps — are the paper's, and the evaluation reproduces
// its *relative* overheads by comparing wavm execution against native
// execution of identical kernels.
package wavm

import "fmt"

// ValueType is a wasm value type.
type ValueType byte

// Value types.
const (
	I32 ValueType = iota
	I64
	F32
	F64
)

func (v ValueType) String() string {
	switch v {
	case I32:
		return "i32"
	case I64:
		return "i64"
	case F32:
		return "f32"
	case F64:
		return "f64"
	default:
		return fmt.Sprintf("valuetype(%d)", byte(v))
	}
}

// FuncType is a function signature. At most one result, as in the wasm MVP.
type FuncType struct {
	Params  []ValueType
	Results []ValueType
}

// Equal reports signature equality (used by call_indirect type checks).
func (t FuncType) Equal(o FuncType) bool {
	if len(t.Params) != len(o.Params) || len(t.Results) != len(o.Results) {
		return false
	}
	for i := range t.Params {
		if t.Params[i] != o.Params[i] {
			return false
		}
	}
	for i := range t.Results {
		if t.Results[i] != o.Results[i] {
			return false
		}
	}
	return true
}

func (t FuncType) String() string {
	s := "(func"
	if len(t.Params) > 0 {
		s += " (param"
		for _, p := range t.Params {
			s += " " + p.String()
		}
		s += ")"
	}
	if len(t.Results) > 0 {
		s += " (result"
		for _, r := range t.Results {
			s += " " + r.String()
		}
		s += ")"
	}
	return s + ")"
}

// TrapKind enumerates the SFI runtime traps (§2.2: bounds violations and
// invalid function references are implemented as runtime traps).
type TrapKind byte

// Trap kinds.
const (
	TrapUnreachable TrapKind = iota
	TrapOutOfBounds
	TrapDivByZero
	TrapIntOverflow
	TrapInvalidConversion
	TrapUndefinedElement
	TrapIndirectTypeMismatch
	TrapStackOverflow
	TrapFuelExhausted
	TrapHostError
	TrapMemoryLimit
)

func (k TrapKind) String() string {
	switch k {
	case TrapUnreachable:
		return "unreachable"
	case TrapOutOfBounds:
		return "out of bounds memory access"
	case TrapDivByZero:
		return "integer divide by zero"
	case TrapIntOverflow:
		return "integer overflow"
	case TrapInvalidConversion:
		return "invalid conversion to integer"
	case TrapUndefinedElement:
		return "undefined table element"
	case TrapIndirectTypeMismatch:
		return "indirect call type mismatch"
	case TrapStackOverflow:
		return "call stack exhausted"
	case TrapFuelExhausted:
		return "fuel exhausted"
	case TrapHostError:
		return "host function error"
	case TrapMemoryLimit:
		return "memory limit exceeded"
	default:
		return fmt.Sprintf("trap(%d)", byte(k))
	}
}

// Trap is the error raised when a guest violates its isolation constraints
// or executes an illegal operation. Faaslets surface traps as failed calls.
type Trap struct {
	Kind TrapKind
	// Func is the index of the function that trapped, -1 if unknown.
	Func int
	// Wrapped is the underlying cause for host-error traps.
	Wrapped error
}

func (t *Trap) Error() string {
	if t.Wrapped != nil {
		return fmt.Sprintf("wavm: trap in func %d: %s: %v", t.Func, t.Kind, t.Wrapped)
	}
	return fmt.Sprintf("wavm: trap in func %d: %s", t.Func, t.Kind)
}

// Unwrap exposes the cause of host-error traps.
func (t *Trap) Unwrap() error { return t.Wrapped }

func trap(kind TrapKind, fn int) *Trap { return &Trap{Kind: kind, Func: fn} }
