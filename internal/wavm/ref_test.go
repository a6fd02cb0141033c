package wavm

// The reference engine: the stack interpreter this package executed modules
// with before validated code was lowered to register form (lower.go,
// exec.go). It runs validated Function.Code directly — one dispatch, one
// Steps bump and one Fuel test per source instruction — and is kept, in
// test files only, as the oracle the lowered engine is differentially
// tested and fuzzed against. No non-test code can reach it.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"faasm.dev/faasm/internal/wamem"
)

// refInstantiate is Instantiate for an instance the reference engine will
// drive: the start function, if any, runs on the reference engine too.
func refInstantiate(mod *Module, imports map[string]HostModule, opts ...InstanceOption) (*Instance, error) {
	var probe Instance
	for _, o := range opts {
		o(&probe)
	}
	inst, err := Instantiate(mod, imports, append(opts[:len(opts):len(opts)], WithSkipStart())...)
	if err != nil {
		return nil, err
	}
	inst.skipStart = probe.skipStart
	if mod.Start >= 0 && !inst.skipStart {
		if _, err := inst.refCallIndex(mod.Start); err != nil {
			return nil, fmt.Errorf("wavm: start function: %w", err)
		}
	}
	return inst, nil
}

// refCall is Call on the reference engine.
func (i *Instance) refCall(name string, args ...uint64) ([]uint64, error) {
	idx, ok := i.mod.ExportedFunc(name)
	if !ok {
		return nil, fmt.Errorf("wavm: no exported function %q", name)
	}
	return i.refCallIndex(idx, args...)
}

// refCallIndex is CallIndex on the reference engine.
func (i *Instance) refCallIndex(idx int, args ...uint64) ([]uint64, error) {
	ft, err := i.mod.FuncTypeAt(idx)
	if err != nil {
		return nil, err
	}
	if len(args) != len(ft.Params) {
		return nil, fmt.Errorf("wavm: function %d wants %d args, got %d", idx, len(ft.Params), len(args))
	}
	return i.refInvoke(idx, args, 0)
}

func (i *Instance) refInvoke(fidx int, args []uint64, depth int) ([]uint64, error) {
	if depth > i.maxDepth {
		return nil, trap(TrapStackOverflow, fidx)
	}
	if fidx < len(i.mod.Imports) {
		res, err := i.hosts[fidx](i, args)
		if err != nil {
			var t *Trap
			if errors.As(err, &t) {
				return nil, err
			}
			return nil, &Trap{Kind: TrapHostError, Func: fidx, Wrapped: err}
		}
		if ft, _ := i.mod.FuncTypeAt(fidx); len(res) != len(ft.Results) {
			return nil, &Trap{Kind: TrapHostError, Func: fidx, Wrapped: errors.New("wrong result count")}
		}
		return res, nil
	}
	fn := &i.mod.Funcs[fidx-len(i.mod.Imports)]
	ft := i.mod.Types[fn.Type]
	locals := make([]uint64, len(ft.Params)+len(fn.Locals))
	copy(locals, args)
	return i.refExec(fidx, fn, ft, locals, depth)
}

// refExec runs one function body on an explicit operand stack, one source
// instruction per dispatch, bumping Steps and Fuel on each.
func (i *Instance) refExec(fidx int, fn *Function, ft FuncType, locals []uint64, depth int) ([]uint64, error) {
	stack := make([]uint64, 0, 16)
	code := fn.Code
	mem := i.mem
	pc := 0

	push := func(v uint64) { stack = append(stack, v) }
	pop := func() uint64 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}

	for pc < len(code) {
		in := &code[pc]
		i.Steps++
		if i.Fuel >= 0 {
			if i.Fuel == 0 {
				return nil, trap(TrapFuelExhausted, fidx)
			}
			i.Fuel--
		}
		switch in.Op {
		case OpNop, OpBlock, OpLoop, OpEnd:
			// Structure resolved at validation; nothing to do at runtime.

		case OpUnreachable:
			return nil, trap(TrapUnreachable, fidx)

		case OpIf:
			if pop() == 0 {
				pc = int(in.A)
				continue
			}
		case OpElse:
			pc = int(in.A)
			continue

		case OpBr:
			stack = refBranchAdjust(stack, int(in.B), int(in.C))
			pc = int(in.A)
			continue
		case OpBrIf:
			if pop() != 0 {
				stack = refBranchAdjust(stack, int(in.B), int(in.C))
				pc = int(in.A)
				continue
			}
		case OpBrTable:
			targets := fn.BrTables[in.A]
			idx := int(uint32(pop()))
			if idx >= len(targets)-1 {
				idx = len(targets) - 1 // final entry is the default
			}
			t := targets[idx]
			stack = refBranchAdjust(stack, int(t.Arity), int(t.Height))
			pc = int(t.PC)
			continue

		case OpReturn:
			if len(ft.Results) == 1 {
				return []uint64{pop()}, nil
			}
			return nil, nil

		case OpCall:
			callee := int(in.A)
			cft, err := i.mod.FuncTypeAt(callee)
			if err != nil {
				return nil, err
			}
			n := len(cft.Params)
			args := make([]uint64, n)
			copy(args, stack[len(stack)-n:])
			stack = stack[:len(stack)-n]
			res, err := i.refInvoke(callee, args, depth+1)
			if err != nil {
				return nil, err
			}
			stack = append(stack, res...)

		case OpCallIndirect:
			want := i.mod.Types[in.A]
			elem := int(uint32(pop()))
			if elem >= len(i.table) {
				return nil, trap(TrapUndefinedElement, fidx)
			}
			callee := int(i.table[elem])
			if callee < 0 {
				return nil, trap(TrapUndefinedElement, fidx)
			}
			cft, err := i.mod.FuncTypeAt(callee)
			if err != nil {
				return nil, err
			}
			if !cft.Equal(want) {
				return nil, trap(TrapIndirectTypeMismatch, fidx)
			}
			n := len(cft.Params)
			args := make([]uint64, n)
			copy(args, stack[len(stack)-n:])
			stack = stack[:len(stack)-n]
			res, err := i.refInvoke(callee, args, depth+1)
			if err != nil {
				return nil, err
			}
			stack = append(stack, res...)

		case OpDrop:
			pop()
		case OpSelect:
			c := pop()
			b := pop()
			a := pop()
			if c != 0 {
				push(a)
			} else {
				push(b)
			}

		case OpLocalGet:
			push(locals[in.A])
		case OpLocalSet:
			locals[in.A] = pop()
		case OpLocalTee:
			locals[in.A] = stack[len(stack)-1]
		case OpGlobalGet:
			push(i.globals[in.A])
		case OpGlobalSet:
			i.globals[in.A] = pop()

		case OpI32Const, OpF32Const:
			push(uint64(uint32(in.C)))
		case OpI64Const, OpF64Const:
			push(uint64(in.C))

		case OpMemorySize:
			push(uint64(uint32(mem.Pages())))
		case OpMemoryGrow:
			delta := int(int32(uint32(pop())))
			prev, err := mem.Grow(delta)
			if err != nil {
				push(uint64(uint32(0xffffffff))) // -1 on failure
			} else {
				push(uint64(uint32(prev)))
			}
		case OpMemoryCopy:
			n := int(uint32(pop()))
			src := uint32(pop())
			dst := uint32(pop())
			if end := uint64(mem.Pages()) * wamem.PageSize; uint64(src)+uint64(n) > end || uint64(dst)+uint64(n) > end {
				return nil, trap(TrapOutOfBounds, fidx)
			}
			b, err := mem.ReadBytes(src, n)
			if err != nil {
				return nil, trap(TrapOutOfBounds, fidx)
			}
			if err := mem.WriteBytes(dst, b); err != nil {
				return nil, trap(TrapOutOfBounds, fidx)
			}
		case OpMemoryFill:
			n := int(uint32(pop()))
			val := byte(uint32(pop()))
			dst := uint32(pop())
			if uint64(dst)+uint64(n) > uint64(mem.Pages())*wamem.PageSize {
				return nil, trap(TrapOutOfBounds, fidx)
			}
			if err := mem.WriteBytes(dst, bytes.Repeat([]byte{val}, n)); err != nil {
				return nil, trap(TrapOutOfBounds, fidx)
			}

		default:
			if in.Op >= OpI32Load && in.Op <= OpI64Store32 {
				if err := i.refMemAccess(in, &stack, fidx); err != nil {
					return nil, err
				}
			} else if err := i.refNumeric(in, &stack, fidx); err != nil {
				return nil, err
			}
		}
		pc++
	}
	if len(ft.Results) == 1 {
		return []uint64{stack[len(stack)-1]}, nil
	}
	return nil, nil
}

// refBranchAdjust implements the wasm branch stack discipline: keep the top
// arity values, cut the stack back to the label's entry height.
func refBranchAdjust(stack []uint64, arity, height int) []uint64 {
	if arity > 0 {
		copy(stack[height:], stack[len(stack)-arity:])
	}
	return stack[:height+arity]
}

func (i *Instance) refEffAddr(in *Instr, dyn uint64, size int) (uint32, error) {
	ea := dyn + uint64(uint32(in.A))
	if ea+uint64(size) > uint64(i.mem.Pages())*wamem.PageSize {
		return 0, wamem.ErrOutOfBounds
	}
	return uint32(ea), nil
}

func (i *Instance) refMemAccess(in *Instr, stackp *[]uint64, fidx int) error {
	stack := *stackp
	oob := func() error { return trap(TrapOutOfBounds, fidx) }
	switch in.Op {
	case OpI32Load, OpF32Load:
		addr, err := i.refEffAddr(in, uint64(uint32(stack[len(stack)-1])), 4)
		if err != nil {
			return oob()
		}
		v, err := i.mem.ReadU32(addr)
		if err != nil {
			return oob()
		}
		stack[len(stack)-1] = uint64(v)
	case OpI64Load, OpF64Load:
		addr, err := i.refEffAddr(in, uint64(uint32(stack[len(stack)-1])), 8)
		if err != nil {
			return oob()
		}
		v, err := i.mem.ReadU64(addr)
		if err != nil {
			return oob()
		}
		stack[len(stack)-1] = v
	case OpI32Load8U, OpI32Load8S:
		addr, err := i.refEffAddr(in, uint64(uint32(stack[len(stack)-1])), 1)
		if err != nil {
			return oob()
		}
		v, err := i.mem.ReadU8(addr)
		if err != nil {
			return oob()
		}
		if in.Op == OpI32Load8S {
			stack[len(stack)-1] = uint64(uint32(int32(int8(v))))
		} else {
			stack[len(stack)-1] = uint64(v)
		}
	case OpI32Load16U, OpI32Load16S:
		addr, err := i.refEffAddr(in, uint64(uint32(stack[len(stack)-1])), 2)
		if err != nil {
			return oob()
		}
		v, err := i.mem.ReadU16(addr)
		if err != nil {
			return oob()
		}
		if in.Op == OpI32Load16S {
			stack[len(stack)-1] = uint64(uint32(int32(int16(v))))
		} else {
			stack[len(stack)-1] = uint64(v)
		}
	case OpI64Load32U, OpI64Load32S:
		addr, err := i.refEffAddr(in, uint64(uint32(stack[len(stack)-1])), 4)
		if err != nil {
			return oob()
		}
		v, err := i.mem.ReadU32(addr)
		if err != nil {
			return oob()
		}
		if in.Op == OpI64Load32S {
			stack[len(stack)-1] = uint64(int64(int32(v)))
		} else {
			stack[len(stack)-1] = uint64(v)
		}

	case OpI32Store, OpF32Store:
		val := uint32(stack[len(stack)-1])
		addr, err := i.refEffAddr(in, uint64(uint32(stack[len(stack)-2])), 4)
		*stackp = stack[:len(stack)-2]
		if err != nil {
			return oob()
		}
		if err := i.mem.WriteU32(addr, val); err != nil {
			return oob()
		}
		return nil
	case OpI64Store, OpF64Store:
		val := stack[len(stack)-1]
		addr, err := i.refEffAddr(in, uint64(uint32(stack[len(stack)-2])), 8)
		*stackp = stack[:len(stack)-2]
		if err != nil {
			return oob()
		}
		if err := i.mem.WriteU64(addr, val); err != nil {
			return oob()
		}
		return nil
	case OpI32Store8:
		val := byte(stack[len(stack)-1])
		addr, err := i.refEffAddr(in, uint64(uint32(stack[len(stack)-2])), 1)
		*stackp = stack[:len(stack)-2]
		if err != nil {
			return oob()
		}
		if err := i.mem.WriteU8(addr, val); err != nil {
			return oob()
		}
		return nil
	case OpI32Store16:
		val := uint16(stack[len(stack)-1])
		addr, err := i.refEffAddr(in, uint64(uint32(stack[len(stack)-2])), 2)
		*stackp = stack[:len(stack)-2]
		if err != nil {
			return oob()
		}
		if err := i.mem.WriteU16(addr, val); err != nil {
			return oob()
		}
		return nil
	case OpI64Store32:
		val := uint32(stack[len(stack)-1])
		addr, err := i.refEffAddr(in, uint64(uint32(stack[len(stack)-2])), 4)
		*stackp = stack[:len(stack)-2]
		if err != nil {
			return oob()
		}
		if err := i.mem.WriteU32(addr, val); err != nil {
			return oob()
		}
		return nil
	}
	return nil
}

func (i *Instance) refNumeric(in *Instr, stackp *[]uint64, fidx int) error {
	stack := *stackp
	top := len(stack) - 1
	pushBool := func(b bool) {
		if b {
			stack[top-1] = 1
		} else {
			stack[top-1] = 0
		}
		*stackp = stack[:top]
	}
	pushBool1 := func(b bool) {
		if b {
			stack[top] = 1
		} else {
			stack[top] = 0
		}
	}
	bin := func(v uint64) {
		stack[top-1] = v
		*stackp = stack[:top]
	}

	switch in.Op {
	// --- i32 ---
	case OpI32Eqz:
		pushBool1(uint32(stack[top]) == 0)
	case OpI32Eq:
		pushBool(uint32(stack[top-1]) == uint32(stack[top]))
	case OpI32Ne:
		pushBool(uint32(stack[top-1]) != uint32(stack[top]))
	case OpI32LtS:
		pushBool(int32(stack[top-1]) < int32(stack[top]))
	case OpI32LtU:
		pushBool(uint32(stack[top-1]) < uint32(stack[top]))
	case OpI32GtS:
		pushBool(int32(stack[top-1]) > int32(stack[top]))
	case OpI32GtU:
		pushBool(uint32(stack[top-1]) > uint32(stack[top]))
	case OpI32LeS:
		pushBool(int32(stack[top-1]) <= int32(stack[top]))
	case OpI32LeU:
		pushBool(uint32(stack[top-1]) <= uint32(stack[top]))
	case OpI32GeS:
		pushBool(int32(stack[top-1]) >= int32(stack[top]))
	case OpI32GeU:
		pushBool(uint32(stack[top-1]) >= uint32(stack[top]))
	case OpI32Clz:
		stack[top] = uint64(uint32(bits.LeadingZeros32(uint32(stack[top]))))
	case OpI32Ctz:
		stack[top] = uint64(uint32(bits.TrailingZeros32(uint32(stack[top]))))
	case OpI32Popcnt:
		stack[top] = uint64(uint32(bits.OnesCount32(uint32(stack[top]))))
	case OpI32Add:
		bin(uint64(uint32(stack[top-1]) + uint32(stack[top])))
	case OpI32Sub:
		bin(uint64(uint32(stack[top-1]) - uint32(stack[top])))
	case OpI32Mul:
		bin(uint64(uint32(stack[top-1]) * uint32(stack[top])))
	case OpI32DivS:
		d := int32(stack[top])
		n := int32(stack[top-1])
		if d == 0 {
			return trap(TrapDivByZero, fidx)
		}
		if n == math.MinInt32 && d == -1 {
			return trap(TrapIntOverflow, fidx)
		}
		bin(uint64(uint32(n / d)))
	case OpI32DivU:
		d := uint32(stack[top])
		if d == 0 {
			return trap(TrapDivByZero, fidx)
		}
		bin(uint64(uint32(stack[top-1]) / d))
	case OpI32RemS:
		d := int32(stack[top])
		n := int32(stack[top-1])
		if d == 0 {
			return trap(TrapDivByZero, fidx)
		}
		if n == math.MinInt32 && d == -1 {
			bin(0)
		} else {
			bin(uint64(uint32(n % d)))
		}
	case OpI32RemU:
		d := uint32(stack[top])
		if d == 0 {
			return trap(TrapDivByZero, fidx)
		}
		bin(uint64(uint32(stack[top-1]) % d))
	case OpI32And:
		bin(uint64(uint32(stack[top-1]) & uint32(stack[top])))
	case OpI32Or:
		bin(uint64(uint32(stack[top-1]) | uint32(stack[top])))
	case OpI32Xor:
		bin(uint64(uint32(stack[top-1]) ^ uint32(stack[top])))
	case OpI32Shl:
		bin(uint64(uint32(stack[top-1]) << (uint32(stack[top]) & 31)))
	case OpI32ShrS:
		bin(uint64(uint32(int32(stack[top-1]) >> (uint32(stack[top]) & 31))))
	case OpI32ShrU:
		bin(uint64(uint32(stack[top-1]) >> (uint32(stack[top]) & 31)))
	case OpI32Rotl:
		bin(uint64(bits.RotateLeft32(uint32(stack[top-1]), int(uint32(stack[top])&31))))
	case OpI32Rotr:
		bin(uint64(bits.RotateLeft32(uint32(stack[top-1]), -int(uint32(stack[top])&31))))

	// --- i64 ---
	case OpI64Eqz:
		pushBool1(stack[top] == 0)
	case OpI64Eq:
		pushBool(stack[top-1] == stack[top])
	case OpI64Ne:
		pushBool(stack[top-1] != stack[top])
	case OpI64LtS:
		pushBool(int64(stack[top-1]) < int64(stack[top]))
	case OpI64LtU:
		pushBool(stack[top-1] < stack[top])
	case OpI64GtS:
		pushBool(int64(stack[top-1]) > int64(stack[top]))
	case OpI64GtU:
		pushBool(stack[top-1] > stack[top])
	case OpI64LeS:
		pushBool(int64(stack[top-1]) <= int64(stack[top]))
	case OpI64LeU:
		pushBool(stack[top-1] <= stack[top])
	case OpI64GeS:
		pushBool(int64(stack[top-1]) >= int64(stack[top]))
	case OpI64GeU:
		pushBool(stack[top-1] >= stack[top])
	case OpI64Clz:
		stack[top] = uint64(bits.LeadingZeros64(stack[top]))
	case OpI64Ctz:
		stack[top] = uint64(bits.TrailingZeros64(stack[top]))
	case OpI64Popcnt:
		stack[top] = uint64(bits.OnesCount64(stack[top]))
	case OpI64Add:
		bin(stack[top-1] + stack[top])
	case OpI64Sub:
		bin(stack[top-1] - stack[top])
	case OpI64Mul:
		bin(stack[top-1] * stack[top])
	case OpI64DivS:
		d := int64(stack[top])
		n := int64(stack[top-1])
		if d == 0 {
			return trap(TrapDivByZero, fidx)
		}
		if n == math.MinInt64 && d == -1 {
			return trap(TrapIntOverflow, fidx)
		}
		bin(uint64(n / d))
	case OpI64DivU:
		if stack[top] == 0 {
			return trap(TrapDivByZero, fidx)
		}
		bin(stack[top-1] / stack[top])
	case OpI64RemS:
		d := int64(stack[top])
		n := int64(stack[top-1])
		if d == 0 {
			return trap(TrapDivByZero, fidx)
		}
		if n == math.MinInt64 && d == -1 {
			bin(0)
		} else {
			bin(uint64(n % d))
		}
	case OpI64RemU:
		if stack[top] == 0 {
			return trap(TrapDivByZero, fidx)
		}
		bin(stack[top-1] % stack[top])
	case OpI64And:
		bin(stack[top-1] & stack[top])
	case OpI64Or:
		bin(stack[top-1] | stack[top])
	case OpI64Xor:
		bin(stack[top-1] ^ stack[top])
	case OpI64Shl:
		bin(stack[top-1] << (stack[top] & 63))
	case OpI64ShrS:
		bin(uint64(int64(stack[top-1]) >> (stack[top] & 63)))
	case OpI64ShrU:
		bin(stack[top-1] >> (stack[top] & 63))
	case OpI64Rotl:
		bin(bits.RotateLeft64(stack[top-1], int(stack[top]&63)))
	case OpI64Rotr:
		bin(bits.RotateLeft64(stack[top-1], -int(stack[top]&63)))

	// --- f64 ---
	case OpF64Eq:
		pushBool(DecodeF64(stack[top-1]) == DecodeF64(stack[top]))
	case OpF64Ne:
		pushBool(DecodeF64(stack[top-1]) != DecodeF64(stack[top]))
	case OpF64Lt:
		pushBool(DecodeF64(stack[top-1]) < DecodeF64(stack[top]))
	case OpF64Gt:
		pushBool(DecodeF64(stack[top-1]) > DecodeF64(stack[top]))
	case OpF64Le:
		pushBool(DecodeF64(stack[top-1]) <= DecodeF64(stack[top]))
	case OpF64Ge:
		pushBool(DecodeF64(stack[top-1]) >= DecodeF64(stack[top]))
	case OpF64Abs:
		stack[top] = EncodeF64(math.Abs(DecodeF64(stack[top])))
	case OpF64Neg:
		stack[top] = stack[top] ^ (1 << 63)
	case OpF64Ceil:
		stack[top] = EncodeF64(math.Ceil(DecodeF64(stack[top])))
	case OpF64Floor:
		stack[top] = EncodeF64(math.Floor(DecodeF64(stack[top])))
	case OpF64Trunc:
		stack[top] = EncodeF64(math.Trunc(DecodeF64(stack[top])))
	case OpF64Nearest:
		stack[top] = EncodeF64(math.RoundToEven(DecodeF64(stack[top])))
	case OpF64Sqrt:
		stack[top] = EncodeF64(math.Sqrt(DecodeF64(stack[top])))
	case OpF64Add:
		bin(EncodeF64(DecodeF64(stack[top-1]) + DecodeF64(stack[top])))
	case OpF64Sub:
		bin(EncodeF64(DecodeF64(stack[top-1]) - DecodeF64(stack[top])))
	case OpF64Mul:
		bin(EncodeF64(DecodeF64(stack[top-1]) * DecodeF64(stack[top])))
	case OpF64Div:
		bin(EncodeF64(DecodeF64(stack[top-1]) / DecodeF64(stack[top])))
	case OpF64Min:
		bin(EncodeF64(wasmMin(DecodeF64(stack[top-1]), DecodeF64(stack[top]))))
	case OpF64Max:
		bin(EncodeF64(wasmMax(DecodeF64(stack[top-1]), DecodeF64(stack[top]))))
	case OpF64Copysign:
		bin(EncodeF64(math.Copysign(DecodeF64(stack[top-1]), DecodeF64(stack[top]))))

	// --- f32 ---
	case OpF32Eq:
		pushBool(decodeF32(stack[top-1]) == decodeF32(stack[top]))
	case OpF32Ne:
		pushBool(decodeF32(stack[top-1]) != decodeF32(stack[top]))
	case OpF32Lt:
		pushBool(decodeF32(stack[top-1]) < decodeF32(stack[top]))
	case OpF32Gt:
		pushBool(decodeF32(stack[top-1]) > decodeF32(stack[top]))
	case OpF32Le:
		pushBool(decodeF32(stack[top-1]) <= decodeF32(stack[top]))
	case OpF32Ge:
		pushBool(decodeF32(stack[top-1]) >= decodeF32(stack[top]))
	case OpF32Abs:
		stack[top] = EncodeF32(float32(math.Abs(float64(decodeF32(stack[top])))))
	case OpF32Neg:
		stack[top] = uint64(uint32(stack[top]) ^ (1 << 31))
	case OpF32Sqrt:
		stack[top] = EncodeF32(float32(math.Sqrt(float64(decodeF32(stack[top])))))
	case OpF32Add:
		bin(EncodeF32(decodeF32(stack[top-1]) + decodeF32(stack[top])))
	case OpF32Sub:
		bin(EncodeF32(decodeF32(stack[top-1]) - decodeF32(stack[top])))
	case OpF32Mul:
		bin(EncodeF32(decodeF32(stack[top-1]) * decodeF32(stack[top])))
	case OpF32Div:
		bin(EncodeF32(decodeF32(stack[top-1]) / decodeF32(stack[top])))
	case OpF32Min:
		bin(EncodeF32(float32(wasmMin(float64(decodeF32(stack[top-1])), float64(decodeF32(stack[top]))))))
	case OpF32Max:
		bin(EncodeF32(float32(wasmMax(float64(decodeF32(stack[top-1])), float64(decodeF32(stack[top]))))))

	// --- conversions ---
	case OpI32WrapI64:
		stack[top] = uint64(uint32(stack[top]))
	case OpI64ExtendI32S:
		stack[top] = uint64(int64(int32(stack[top])))
	case OpI64ExtendI32U:
		stack[top] = uint64(uint32(stack[top]))
	case OpI32TruncF64S:
		f := DecodeF64(stack[top])
		if math.IsNaN(f) || f >= 2147483648 || f < -2147483649 {
			return trap(TrapInvalidConversion, fidx)
		}
		stack[top] = uint64(uint32(int32(f)))
	case OpI32TruncF64U:
		f := DecodeF64(stack[top])
		if math.IsNaN(f) || f >= 4294967296 || f <= -1 {
			return trap(TrapInvalidConversion, fidx)
		}
		stack[top] = uint64(uint32(f))
	case OpI64TruncF64S:
		f := DecodeF64(stack[top])
		if math.IsNaN(f) || f >= 9.223372036854776e18 || f < -9.223372036854776e18 {
			return trap(TrapInvalidConversion, fidx)
		}
		stack[top] = uint64(int64(f))
	case OpI64TruncF64U:
		f := DecodeF64(stack[top])
		if math.IsNaN(f) || f >= 1.8446744073709552e19 || f <= -1 {
			return trap(TrapInvalidConversion, fidx)
		}
		stack[top] = uint64(f)
	case OpI32TruncF32S:
		f := float64(decodeF32(stack[top]))
		if math.IsNaN(f) || f >= 2147483648 || f < -2147483649 {
			return trap(TrapInvalidConversion, fidx)
		}
		stack[top] = uint64(uint32(int32(f)))
	case OpI32TruncF32U:
		f := float64(decodeF32(stack[top]))
		if math.IsNaN(f) || f >= 4294967296 || f <= -1 {
			return trap(TrapInvalidConversion, fidx)
		}
		stack[top] = uint64(uint32(f))
	case OpF64ConvertI32S:
		stack[top] = EncodeF64(float64(int32(stack[top])))
	case OpF64ConvertI32U:
		stack[top] = EncodeF64(float64(uint32(stack[top])))
	case OpF64ConvertI64S:
		stack[top] = EncodeF64(float64(int64(stack[top])))
	case OpF64ConvertI64U:
		stack[top] = EncodeF64(float64(stack[top]))
	case OpF32ConvertI32S:
		stack[top] = EncodeF32(float32(int32(stack[top])))
	case OpF32ConvertI64S:
		stack[top] = EncodeF32(float32(int64(stack[top])))
	case OpF64PromoteF32:
		stack[top] = EncodeF64(float64(decodeF32(stack[top])))
	case OpF32DemoteF64:
		stack[top] = EncodeF32(float32(DecodeF64(stack[top])))
	case OpI32ReinterpretF32, OpF32ReinterpretI32:
		stack[top] = uint64(uint32(stack[top]))
	case OpI64ReinterpretF64, OpF64ReinterpretI64:
		// Raw encoding is already the reinterpretation.

	default:
		return fmt.Errorf("wavm: unimplemented opcode %s", in.Op)
	}
	return nil
}

// decodeF32 decodes a raw VM value as float32.
func decodeF32(v uint64) float32 { return math.Float32frombits(uint32(v)) }
