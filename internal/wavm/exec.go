package wavm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// lframe is a suspended caller: where to resume when its callee returns.
type lframe struct {
	fn       *lfunc
	pc, base int
}

// maxRegisters bounds the register file (32 MiB of frames); a call that
// would grow it further traps with TrapStackOverflow, as deep recursion
// does.
const maxRegisters = 1 << 22

// growRegs extends the register file to hold at least need registers. Its
// length is the high-water mark of the calls since the last Reset — all that
// Reset has to clear — and its capacity the storage kept across resets, so
// the callers' one length check finds both a new mark and a full file.
func (i *Instance) growRegs(need int) bool {
	if need > maxRegisters {
		return false
	}
	if need > cap(i.regs) {
		grown := make([]uint64, len(i.regs), min(max(need, 2*cap(i.regs)), maxRegisters))
		copy(grown, i.regs)
		i.regs = grown
	}
	i.regs = i.regs[:need]
	return true
}

// callHost runs import idx on args, converting its failure into a trap.
func (i *Instance) callHost(idx int, args []uint64) ([]uint64, error) {
	res, err := i.hosts[idx](i, args)
	if err != nil {
		var t *Trap
		if errors.As(err, &t) {
			return nil, err
		}
		return nil, &Trap{Kind: TrapHostError, Func: idx, Wrapped: err}
	}
	if want := i.low.imports[idx].nresults; len(res) != want {
		return nil, &Trap{Kind: TrapHostError, Func: idx,
			Wrapped: fmt.Errorf("host function returned %d results, want %d", len(res), want)}
	}
	return res, nil
}

// run executes fn in the frame at register base and leaves its result, if
// any, in that frame's first register. Whatever happens, the call stack and
// the free-register mark are as it found them when it returns.
func (i *Instance) run(fn *lfunc, base int) error {
	// The entry frame has no caller to resume, but it occupies a level of the
	// call stack all the same: a host function that re-enters the instance
	// nests entry frames, and those must run into maxDepth like any other.
	if len(i.frames) > i.maxDepth {
		return trap(TrapStackOverflow, fn.idx)
	}
	i.frames = append(i.frames, lframe{})
	floor, sp := len(i.frames), i.sp
	err := i.exec(fn, base, floor)
	i.frames, i.sp = i.frames[:floor-1], sp
	return err
}

// exec is the interpreter: one switch over lowered code. It works a basic
// block at a time — the outer loop charges the block's steps and fuel at its
// lCharge header, the inner loop dispatches its instructions — so the
// per-instruction path has no accounting in it. Control transfers continue
// the outer loop at a header; only straight-line fall-through into a branch
// target dispatches a header as an instruction.
//
// Guest-to-guest calls do not recurse: the callee's frame is a window of
// the same register file that starts at the caller's argument registers
// (so arguments are passed by position, not copied), and the caller is
// pushed on i.frames.
func (i *Instance) exec(fn *lfunc, base, floor int) error {
	low, mem, globals := i.low, i.mem, i.globals
	regs := i.regs
	fr := regs[base : base+fn.nregs]
	code := fn.code
	pc := 0

blocks:
	for {
		// code[pc] is an lCharge.
		n := code[pc].imm
		pc++
		if i.Fuel >= 0 {
			if uint64(i.Fuel) < n {
				// The reference would have run i.Fuel more instructions and
				// trapped on the next.
				i.Steps += uint64(i.Fuel) + 1
				i.Fuel = 0
				return trap(TrapFuelExhausted, fn.idx)
			}
			i.Fuel -= int64(n)
		}
		i.Steps += n

		for {
			in := &code[pc]
			switch in.op {
			case lCharge:
				continue blocks

			case lMov:
				fr[in.a] = fr[in.b]
			case lConst:
				fr[in.a] = in.imm
			case lop(OpSelect):
				if fr[in.imm] != 0 {
					fr[in.a] = fr[in.b]
				} else {
					fr[in.a] = fr[in.c]
				}
			case lop(OpGlobalGet):
				fr[in.a] = globals[in.imm]
			case lop(OpGlobalSet):
				globals[in.imm] = fr[in.b]

			case lop(OpUnreachable):
				return trap(TrapUnreachable, fn.idx)

			case lop(OpBr):
				pc = int(in.imm)
				continue blocks
			case lBrZ:
				if fr[in.a] == 0 {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks
			case lBrNZ:
				if fr[in.a] != 0 {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks
			case lop(OpBrTable):
				table := fn.tables[in.imm]
				t := table[len(table)-1] // the final entry is the default
				if idx := uint32(fr[in.a]); uint64(idx) < uint64(len(table)-1) {
					t = table[idx]
				}
				if in.c != 0 {
					fr[t.dst] = fr[in.b]
				}
				pc = int(t.pc)
				continue blocks

			case lop(OpCall), lop(OpCallIndirect):
				callee := int(in.imm) // absolute function index, imports first
				if in.op == lop(OpCallIndirect) {
					elem := uint32(fr[in.b])
					if uint64(elem) >= uint64(len(i.table)) {
						return trap(TrapUndefinedElement, fn.idx)
					}
					callee = int(i.table[elem])
					if callee < 0 || callee >= len(low.imports)+len(low.funcs) {
						return trap(TrapUndefinedElement, fn.idx)
					}
					if low.typeOf(callee) != int(in.imm) {
						return trap(TrapIndirectTypeMismatch, fn.idx)
					}
				}
				if len(i.frames) > i.maxDepth {
					return trap(TrapStackOverflow, callee)
				}
				if callee < len(low.imports) {
					// A host function may call back into this instance: its
					// frames go above everything live here.
					i.sp = base + fn.nregs
					imp := low.imports[callee]
					res, err := i.callHost(callee, fr[in.a:int(in.a)+imp.nparams])
					if err != nil {
						return err
					}
					regs = i.regs
					fr = regs[base : base+fn.nregs]
					if imp.nresults == 1 {
						fr[in.a] = res[0]
					}
					pc++
					continue blocks
				}
				i.frames = append(i.frames, lframe{fn, pc + 1, base})
				fn = &low.funcs[callee-len(low.imports)]
				base += int(in.a)
				if need := base + fn.nregs; need > len(regs) {
					if !i.growRegs(need) {
						return trap(TrapStackOverflow, callee)
					}
					regs = i.regs
				}
				fr = regs[base : base+fn.nregs]
				clear(fr[fn.nparams:fn.nlocals])
				code, pc = fn.code, 0
				continue blocks

			case lop(OpReturn):
				if in.c != 0 {
					fr[0] = fr[in.b]
				}
				if len(i.frames) == floor {
					return nil
				}
				top := i.frames[len(i.frames)-1]
				i.frames = i.frames[:len(i.frames)-1]
				fn, pc, base = top.fn, top.pc, top.base
				fr = regs[base : base+fn.nregs]
				code = fn.code
				continue blocks

			case lop(OpMemorySize):
				fr[in.a] = uint64(uint32(mem.Pages()))
			case lop(OpMemoryGrow):
				prev, err := mem.Grow(int(int32(uint32(fr[in.b]))))
				if err != nil {
					prev = -1
				}
				fr[in.a] = uint64(uint32(prev))
			case lop(OpMemoryCopy):
				if mem.Copy(uint32(fr[in.a]), uint32(fr[in.b]), int(uint32(fr[in.c]))) != nil {
					return trap(TrapOutOfBounds, fn.idx)
				}
			case lop(OpMemoryFill):
				if mem.Fill(uint32(fr[in.a]), byte(fr[in.b]), int(uint32(fr[in.c]))) != nil {
					return trap(TrapOutOfBounds, fn.idx)
				}

			case lI32MulAdd:
				fr[in.a] = uint64(uint32(fr[in.b])*uint32(fr[in.c]) + uint32(fr[in.imm]))
			case lF64AddMul:
				// The conversion forces the product to round on its own, as the
				// two source instructions did.
				fr[in.a] = EncodeF64(f64(fr[in.imm]) + float64(f64(fr[in.b])*f64(fr[in.c])))

			case lop(OpI32Add):
				x, y := uint32(fr[in.b]), uint32(fr[in.c])
				fr[in.a] = uint64(x + y)
			case lop(OpI32Sub):
				x, y := uint32(fr[in.b]), uint32(fr[in.c])
				fr[in.a] = uint64(x - y)
			case lop(OpI32Mul):
				x, y := uint32(fr[in.b]), uint32(fr[in.c])
				fr[in.a] = uint64(x * y)
			case lop(OpI32And):
				x, y := uint32(fr[in.b]), uint32(fr[in.c])
				fr[in.a] = uint64(x & y)
			case lop(OpI32Or):
				x, y := uint32(fr[in.b]), uint32(fr[in.c])
				fr[in.a] = uint64(x | y)
			case lop(OpI32Xor):
				x, y := uint32(fr[in.b]), uint32(fr[in.c])
				fr[in.a] = uint64(x ^ y)
			case lop(OpI32Shl):
				x, y := uint32(fr[in.b]), uint32(fr[in.c])
				fr[in.a] = uint64(x << (y & 31))
			case lop(OpI32ShrS):
				x, y := uint32(fr[in.b]), uint32(fr[in.c])
				fr[in.a] = uint64(uint32(int32(x) >> (y & 31)))
			case lop(OpI32ShrU):
				x, y := uint32(fr[in.b]), uint32(fr[in.c])
				fr[in.a] = uint64(x >> (y & 31))
			case lop(OpI32Rotl):
				x, y := uint32(fr[in.b]), uint32(fr[in.c])
				fr[in.a] = uint64(bits.RotateLeft32(x, int(y&31)))
			case lop(OpI32Rotr):
				x, y := uint32(fr[in.b]), uint32(fr[in.c])
				fr[in.a] = uint64(bits.RotateLeft32(x, -int(y&31)))
			case lI32AddI:
				x, y := uint32(fr[in.b]), uint32(in.imm)
				fr[in.a] = uint64(x + y)
			case lI32MulI:
				x, y := uint32(fr[in.b]), uint32(in.imm)
				fr[in.a] = uint64(x * y)
			case lI32AndI:
				x, y := uint32(fr[in.b]), uint32(in.imm)
				fr[in.a] = uint64(x & y)
			case lop(OpI64Add):
				x, y := fr[in.b], fr[in.c]
				fr[in.a] = x + y
			case lop(OpI64Sub):
				x, y := fr[in.b], fr[in.c]
				fr[in.a] = x - y
			case lop(OpI64Mul):
				x, y := fr[in.b], fr[in.c]
				fr[in.a] = x * y
			case lop(OpI64And):
				x, y := fr[in.b], fr[in.c]
				fr[in.a] = x & y
			case lop(OpI64Or):
				x, y := fr[in.b], fr[in.c]
				fr[in.a] = x | y
			case lop(OpI64Xor):
				x, y := fr[in.b], fr[in.c]
				fr[in.a] = x ^ y
			case lop(OpI64Shl):
				x, y := fr[in.b], fr[in.c]
				fr[in.a] = x << (y & 63)
			case lop(OpI64ShrS):
				x, y := fr[in.b], fr[in.c]
				fr[in.a] = uint64(int64(x) >> (y & 63))
			case lop(OpI64ShrU):
				x, y := fr[in.b], fr[in.c]
				fr[in.a] = x >> (y & 63)
			case lop(OpI64Rotl):
				x, y := fr[in.b], fr[in.c]
				fr[in.a] = bits.RotateLeft64(x, int(y&63))
			case lop(OpI64Rotr):
				x, y := fr[in.b], fr[in.c]
				fr[in.a] = bits.RotateLeft64(x, -int(y&63))
			case lop(OpI32DivS):
				n, d := int32(fr[in.b]), int32(fr[in.c])
				if d == 0 {
					return trap(TrapDivByZero, fn.idx)
				}
				if n == math.MinInt32 && d == -1 {
					return trap(TrapIntOverflow, fn.idx)
				}
				fr[in.a] = uint64(uint32(n / d))
			case lop(OpI32DivU):
				n, d := uint32(fr[in.b]), uint32(fr[in.c])
				if d == 0 {
					return trap(TrapDivByZero, fn.idx)
				}
				fr[in.a] = uint64(n / d)
			case lop(OpI32RemS):
				n, d := int32(fr[in.b]), int32(fr[in.c])
				if d == 0 {
					return trap(TrapDivByZero, fn.idx)
				}
				if d == -1 {
					fr[in.a] = 0 // also the MinInt32 case, which Go's % would panic on
				} else {
					fr[in.a] = uint64(uint32(n % d))
				}
			case lop(OpI32RemU):
				n, d := uint32(fr[in.b]), uint32(fr[in.c])
				if d == 0 {
					return trap(TrapDivByZero, fn.idx)
				}
				fr[in.a] = uint64(n % d)
			case lop(OpI64DivS):
				n, d := int64(fr[in.b]), int64(fr[in.c])
				if d == 0 {
					return trap(TrapDivByZero, fn.idx)
				}
				if n == math.MinInt64 && d == -1 {
					return trap(TrapIntOverflow, fn.idx)
				}
				fr[in.a] = uint64(n / d)
			case lop(OpI64DivU):
				n, d := fr[in.b], fr[in.c]
				if d == 0 {
					return trap(TrapDivByZero, fn.idx)
				}
				fr[in.a] = n / d
			case lop(OpI64RemS):
				n, d := int64(fr[in.b]), int64(fr[in.c])
				if d == 0 {
					return trap(TrapDivByZero, fn.idx)
				}
				if d == -1 {
					fr[in.a] = 0
				} else {
					fr[in.a] = uint64(n % d)
				}
			case lop(OpI64RemU):
				n, d := fr[in.b], fr[in.c]
				if d == 0 {
					return trap(TrapDivByZero, fn.idx)
				}
				fr[in.a] = n % d
			case lop(OpI32Eq):
				fr[in.a] = b2u(uint32(fr[in.b]) == uint32(fr[in.c]))
			case lop(OpI64Eq):
				fr[in.a] = b2u(uint64(fr[in.b]) == uint64(fr[in.c]))
			case lBrI32 + 0:
				if uint32(fr[in.a]) == uint32(fr[in.b]) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks // i32.Eq
			case lBrI32I + 0:
				if uint32(fr[in.a]) == uint32(in.c) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks
			case lop(OpI32Ne):
				fr[in.a] = b2u(uint32(fr[in.b]) != uint32(fr[in.c]))
			case lop(OpI64Ne):
				fr[in.a] = b2u(uint64(fr[in.b]) != uint64(fr[in.c]))
			case lBrI32 + 1:
				if uint32(fr[in.a]) != uint32(fr[in.b]) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks // i32.Ne
			case lBrI32I + 1:
				if uint32(fr[in.a]) != uint32(in.c) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks
			case lop(OpI32LtS):
				fr[in.a] = b2u(int32(fr[in.b]) < int32(fr[in.c]))
			case lop(OpI64LtS):
				fr[in.a] = b2u(int64(fr[in.b]) < int64(fr[in.c]))
			case lBrI32 + 2:
				if int32(fr[in.a]) < int32(fr[in.b]) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks // i32.LtS
			case lBrI32I + 2:
				if int32(fr[in.a]) < int32(in.c) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks
			case lop(OpI32LtU):
				fr[in.a] = b2u(uint32(fr[in.b]) < uint32(fr[in.c]))
			case lop(OpI64LtU):
				fr[in.a] = b2u(uint64(fr[in.b]) < uint64(fr[in.c]))
			case lBrI32 + 3:
				if uint32(fr[in.a]) < uint32(fr[in.b]) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks // i32.LtU
			case lBrI32I + 3:
				if uint32(fr[in.a]) < uint32(in.c) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks
			case lop(OpI32GtS):
				fr[in.a] = b2u(int32(fr[in.b]) > int32(fr[in.c]))
			case lop(OpI64GtS):
				fr[in.a] = b2u(int64(fr[in.b]) > int64(fr[in.c]))
			case lBrI32 + 4:
				if int32(fr[in.a]) > int32(fr[in.b]) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks // i32.GtS
			case lBrI32I + 4:
				if int32(fr[in.a]) > int32(in.c) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks
			case lop(OpI32GtU):
				fr[in.a] = b2u(uint32(fr[in.b]) > uint32(fr[in.c]))
			case lop(OpI64GtU):
				fr[in.a] = b2u(uint64(fr[in.b]) > uint64(fr[in.c]))
			case lBrI32 + 5:
				if uint32(fr[in.a]) > uint32(fr[in.b]) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks // i32.GtU
			case lBrI32I + 5:
				if uint32(fr[in.a]) > uint32(in.c) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks
			case lop(OpI32LeS):
				fr[in.a] = b2u(int32(fr[in.b]) <= int32(fr[in.c]))
			case lop(OpI64LeS):
				fr[in.a] = b2u(int64(fr[in.b]) <= int64(fr[in.c]))
			case lBrI32 + 6:
				if int32(fr[in.a]) <= int32(fr[in.b]) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks // i32.LeS
			case lBrI32I + 6:
				if int32(fr[in.a]) <= int32(in.c) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks
			case lop(OpI32LeU):
				fr[in.a] = b2u(uint32(fr[in.b]) <= uint32(fr[in.c]))
			case lop(OpI64LeU):
				fr[in.a] = b2u(uint64(fr[in.b]) <= uint64(fr[in.c]))
			case lBrI32 + 7:
				if uint32(fr[in.a]) <= uint32(fr[in.b]) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks // i32.LeU
			case lBrI32I + 7:
				if uint32(fr[in.a]) <= uint32(in.c) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks
			case lop(OpI32GeS):
				fr[in.a] = b2u(int32(fr[in.b]) >= int32(fr[in.c]))
			case lop(OpI64GeS):
				fr[in.a] = b2u(int64(fr[in.b]) >= int64(fr[in.c]))
			case lBrI32 + 8:
				if int32(fr[in.a]) >= int32(fr[in.b]) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks // i32.GeS
			case lBrI32I + 8:
				if int32(fr[in.a]) >= int32(in.c) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks
			case lop(OpI32GeU):
				fr[in.a] = b2u(uint32(fr[in.b]) >= uint32(fr[in.c]))
			case lop(OpI64GeU):
				fr[in.a] = b2u(uint64(fr[in.b]) >= uint64(fr[in.c]))
			case lBrI32 + 9:
				if uint32(fr[in.a]) >= uint32(fr[in.b]) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks // i32.GeU
			case lBrI32I + 9:
				if uint32(fr[in.a]) >= uint32(in.c) {
					pc = int(in.imm)
				} else {
					pc++
				}
				continue blocks
			case lop(OpF64Eq):
				fr[in.a] = b2u(f64(fr[in.b]) == f64(fr[in.c]))
			case lop(OpF32Eq):
				fr[in.a] = b2u(f32(fr[in.b]) == f32(fr[in.c]))
			case lop(OpF64Ne):
				fr[in.a] = b2u(f64(fr[in.b]) != f64(fr[in.c]))
			case lop(OpF32Ne):
				fr[in.a] = b2u(f32(fr[in.b]) != f32(fr[in.c]))
			case lop(OpF64Lt):
				fr[in.a] = b2u(f64(fr[in.b]) < f64(fr[in.c]))
			case lop(OpF32Lt):
				fr[in.a] = b2u(f32(fr[in.b]) < f32(fr[in.c]))
			case lop(OpF64Gt):
				fr[in.a] = b2u(f64(fr[in.b]) > f64(fr[in.c]))
			case lop(OpF32Gt):
				fr[in.a] = b2u(f32(fr[in.b]) > f32(fr[in.c]))
			case lop(OpF64Le):
				fr[in.a] = b2u(f64(fr[in.b]) <= f64(fr[in.c]))
			case lop(OpF32Le):
				fr[in.a] = b2u(f32(fr[in.b]) <= f32(fr[in.c]))
			case lop(OpF64Ge):
				fr[in.a] = b2u(f64(fr[in.b]) >= f64(fr[in.c]))
			case lop(OpF32Ge):
				fr[in.a] = b2u(f32(fr[in.b]) >= f32(fr[in.c]))
			case lop(OpI32Eqz):
				fr[in.a] = b2u(uint32(fr[in.b]) == 0)
			case lop(OpI64Eqz):
				fr[in.a] = b2u(fr[in.b] == 0)
			case lop(OpI32Clz):
				fr[in.a] = uint64(bits.LeadingZeros32(uint32(fr[in.b])))
			case lop(OpI32Ctz):
				fr[in.a] = uint64(bits.TrailingZeros32(uint32(fr[in.b])))
			case lop(OpI32Popcnt):
				fr[in.a] = uint64(bits.OnesCount32(uint32(fr[in.b])))
			case lop(OpI64Clz):
				fr[in.a] = uint64(bits.LeadingZeros64(fr[in.b]))
			case lop(OpI64Ctz):
				fr[in.a] = uint64(bits.TrailingZeros64(fr[in.b]))
			case lop(OpI64Popcnt):
				fr[in.a] = uint64(bits.OnesCount64(fr[in.b]))
			case lop(OpF64Add):
				x, y := f64(fr[in.b]), f64(fr[in.c])
				fr[in.a] = EncodeF64(x + y)
			case lF64AddI:
				x, y := f64(fr[in.b]), f64(in.imm)
				fr[in.a] = EncodeF64(x + y)
			case lop(OpF32Add):
				x, y := f32(fr[in.b]), f32(fr[in.c])
				fr[in.a] = EncodeF32(x + y)
			case lop(OpF64Sub):
				x, y := f64(fr[in.b]), f64(fr[in.c])
				fr[in.a] = EncodeF64(x - y)
			case lop(OpF32Sub):
				x, y := f32(fr[in.b]), f32(fr[in.c])
				fr[in.a] = EncodeF32(x - y)
			case lop(OpF64Mul):
				x, y := f64(fr[in.b]), f64(fr[in.c])
				fr[in.a] = EncodeF64(x * y)
			case lF64MulI:
				x, y := f64(fr[in.b]), f64(in.imm)
				fr[in.a] = EncodeF64(x * y)
			case lop(OpF32Mul):
				x, y := f32(fr[in.b]), f32(fr[in.c])
				fr[in.a] = EncodeF32(x * y)
			case lop(OpF64Div):
				x, y := f64(fr[in.b]), f64(fr[in.c])
				fr[in.a] = EncodeF64(x / y)
			case lF64DivI:
				x, y := f64(fr[in.b]), f64(in.imm)
				fr[in.a] = EncodeF64(x / y)
			case lop(OpF32Div):
				x, y := f32(fr[in.b]), f32(fr[in.c])
				fr[in.a] = EncodeF32(x / y)
			case lop(OpF64Min):
				fr[in.a] = EncodeF64(wasmMin(f64(fr[in.b]), f64(fr[in.c])))
			case lop(OpF64Max):
				fr[in.a] = EncodeF64(wasmMax(f64(fr[in.b]), f64(fr[in.c])))
			case lop(OpF64Copysign):
				fr[in.a] = EncodeF64(math.Copysign(f64(fr[in.b]), f64(fr[in.c])))
			case lop(OpF32Min):
				fr[in.a] = EncodeF32(float32(wasmMin(float64(f32(fr[in.b])), float64(f32(fr[in.c])))))
			case lop(OpF32Max):
				fr[in.a] = EncodeF32(float32(wasmMax(float64(f32(fr[in.b])), float64(f32(fr[in.c])))))
			case lop(OpF64Abs):
				fr[in.a] = EncodeF64(math.Abs(f64(fr[in.b])))
			case lop(OpF64Ceil):
				fr[in.a] = EncodeF64(math.Ceil(f64(fr[in.b])))
			case lop(OpF64Floor):
				fr[in.a] = EncodeF64(math.Floor(f64(fr[in.b])))
			case lop(OpF64Trunc):
				fr[in.a] = EncodeF64(math.Trunc(f64(fr[in.b])))
			case lop(OpF64Nearest):
				fr[in.a] = EncodeF64(math.RoundToEven(f64(fr[in.b])))
			case lop(OpF64Sqrt):
				fr[in.a] = EncodeF64(math.Sqrt(f64(fr[in.b])))
			case lop(OpF64Neg):
				fr[in.a] = fr[in.b] ^ (1 << 63)
			case lop(OpF32Abs):
				fr[in.a] = EncodeF32(float32(math.Abs(float64(f32(fr[in.b])))))
			case lop(OpF32Neg):
				fr[in.a] = uint64(uint32(fr[in.b]) ^ (1 << 31))
			case lop(OpF32Sqrt):
				fr[in.a] = EncodeF32(float32(math.Sqrt(float64(f32(fr[in.b])))))
			case lop(OpI32WrapI64), lop(OpI64ExtendI32U), lop(OpI32ReinterpretF32), lop(OpF32ReinterpretI32):
				fr[in.a] = uint64(uint32(fr[in.b]))
			case lop(OpI64ExtendI32S):
				fr[in.a] = uint64(int64(int32(fr[in.b])))
			case lop(OpI32TruncF64S):
				f := f64(fr[in.b])
				if math.IsNaN(f) || f >= 2147483648 || f < -2147483649 {
					return trap(TrapInvalidConversion, fn.idx)
				}
				fr[in.a] = uint64(uint32(int32(f)))
			case lop(OpI32TruncF64U):
				f := f64(fr[in.b])
				if math.IsNaN(f) || f >= 4294967296 || f <= -1 {
					return trap(TrapInvalidConversion, fn.idx)
				}
				fr[in.a] = uint64(uint32(f))
			case lop(OpI64TruncF64S):
				f := f64(fr[in.b])
				if math.IsNaN(f) || f >= 9.223372036854776e18 || f < -9.223372036854776e18 {
					return trap(TrapInvalidConversion, fn.idx)
				}
				fr[in.a] = uint64(int64(f))
			case lop(OpI64TruncF64U):
				f := f64(fr[in.b])
				if math.IsNaN(f) || f >= 1.8446744073709552e19 || f <= -1 {
					return trap(TrapInvalidConversion, fn.idx)
				}
				fr[in.a] = uint64(f)
			case lop(OpI32TruncF32S):
				f := float64(f32(fr[in.b]))
				if math.IsNaN(f) || f >= 2147483648 || f < -2147483649 {
					return trap(TrapInvalidConversion, fn.idx)
				}
				fr[in.a] = uint64(uint32(int32(f)))
			case lop(OpI32TruncF32U):
				f := float64(f32(fr[in.b]))
				if math.IsNaN(f) || f >= 4294967296 || f <= -1 {
					return trap(TrapInvalidConversion, fn.idx)
				}
				fr[in.a] = uint64(uint32(f))
			case lop(OpF64ConvertI32S):
				fr[in.a] = EncodeF64(float64(int32(fr[in.b])))
			case lop(OpF64ConvertI32U):
				fr[in.a] = EncodeF64(float64(uint32(fr[in.b])))
			case lop(OpF64ConvertI64S):
				fr[in.a] = EncodeF64(float64(int64(fr[in.b])))
			case lop(OpF64ConvertI64U):
				fr[in.a] = EncodeF64(float64(fr[in.b]))
			case lop(OpF32ConvertI32S):
				fr[in.a] = EncodeF32(float32(int32(fr[in.b])))
			case lop(OpF32ConvertI64S):
				fr[in.a] = EncodeF32(float32(int64(fr[in.b])))
			case lop(OpF64PromoteF32):
				fr[in.a] = EncodeF64(float64(f32(fr[in.b])))
			case lop(OpF32DemoteF64):
				fr[in.a] = EncodeF32(float32(f64(fr[in.b])))
			// The 8-byte accesses are the ones in the kernels' inner loops: they
			// go straight to the page here. Narrower ones share loadNarrow and
			// storeNarrow.
			case lop(OpI64Load):
				ea := uint64(uint32(fr[in.b])) + in.imm
				pg := mem.ReadablePage(ea >> 16)
				v, ok := uint64(0), true
				if po := ea & 0xffff; po+8 <= uint64(len(pg)) {
					v = binary.LittleEndian.Uint64(pg[po : po+8])
				} else if v, ok = i.loadSlow(ea, 8); !ok {
					return trap(TrapOutOfBounds, fn.idx)
				}
				fr[in.a] = v
			case lI64LoadIdx:
				ea := uint64(uint32(fr[in.b])+uint32(fr[in.c])<<(in.imm>>32)) + in.imm&0xffffffff
				pg := mem.ReadablePage(ea >> 16)
				v, ok := uint64(0), true
				if po := ea & 0xffff; po+8 <= uint64(len(pg)) {
					v = binary.LittleEndian.Uint64(pg[po : po+8])
				} else if v, ok = i.loadSlow(ea, 8); !ok {
					return trap(TrapOutOfBounds, fn.idx)
				}
				fr[in.a] = v
			case lop(OpI64Store):
				ea := uint64(uint32(fr[in.a])) + in.imm
				pg := mem.WritablePage(ea >> 16)
				if po := ea & 0xffff; po+8 <= uint64(len(pg)) {
					binary.LittleEndian.PutUint64(pg[po:po+8], fr[in.b])
				} else if !i.storeSlow(ea, 8, fr[in.b]) {
					return trap(TrapOutOfBounds, fn.idx)
				}
			case lop(OpI32Load):
				v, ok := i.loadNarrow(uint64(uint32(fr[in.b]))+in.imm, 4)
				if !ok {
					return trap(TrapOutOfBounds, fn.idx)
				}
				fr[in.a] = v
			case lop(OpI32Load8U):
				v, ok := i.loadNarrow(uint64(uint32(fr[in.b]))+in.imm, 1)
				if !ok {
					return trap(TrapOutOfBounds, fn.idx)
				}
				fr[in.a] = v
			case lop(OpI32Load16U):
				v, ok := i.loadNarrow(uint64(uint32(fr[in.b]))+in.imm, 2)
				if !ok {
					return trap(TrapOutOfBounds, fn.idx)
				}
				fr[in.a] = v
			case lop(OpI32Load8S):
				v, ok := i.loadNarrow(uint64(uint32(fr[in.b]))+in.imm, 1)
				if !ok {
					return trap(TrapOutOfBounds, fn.idx)
				}
				fr[in.a] = uint64(uint32(int32(int8(v))))
			case lop(OpI32Load16S):
				v, ok := i.loadNarrow(uint64(uint32(fr[in.b]))+in.imm, 2)
				if !ok {
					return trap(TrapOutOfBounds, fn.idx)
				}
				fr[in.a] = uint64(uint32(int32(int16(v))))
			case lop(OpI64Load32S):
				v, ok := i.loadNarrow(uint64(uint32(fr[in.b]))+in.imm, 4)
				if !ok {
					return trap(TrapOutOfBounds, fn.idx)
				}
				fr[in.a] = uint64(int64(int32(v)))
			case lop(OpI32Store):
				if !i.storeNarrow(uint64(uint32(fr[in.a]))+in.imm, 4, fr[in.b]) {
					return trap(TrapOutOfBounds, fn.idx)
				}
			case lop(OpI32Store8):
				if !i.storeNarrow(uint64(uint32(fr[in.a]))+in.imm, 1, fr[in.b]) {
					return trap(TrapOutOfBounds, fn.idx)
				}
			case lop(OpI32Store16):
				if !i.storeNarrow(uint64(uint32(fr[in.a]))+in.imm, 2, fr[in.b]) {
					return trap(TrapOutOfBounds, fn.idx)
				}

			default:
				return fmt.Errorf("wavm: unimplemented lowered opcode %d", in.op)
			}
			pc++
		}
	}
}

// loadNarrow reads the 1, 2 or 4 bytes at effective address ea,
// zero-extended; ok is false for an address outside memory.
func (i *Instance) loadNarrow(ea uint64, size int) (v uint64, ok bool) {
	pg := i.mem.ReadablePage(ea >> 16)
	po := ea & 0xffff
	if po+uint64(size) > uint64(len(pg)) {
		return i.loadSlow(ea, size)
	}
	switch b := pg[po:]; size {
	case 1:
		return uint64(b[0]), true
	case 2:
		return uint64(binary.LittleEndian.Uint16(b)), true
	default:
		return uint64(binary.LittleEndian.Uint32(b)), true
	}
}

// storeNarrow writes the low 1, 2 or 4 bytes of v at effective address ea,
// and reports false for an address outside memory.
func (i *Instance) storeNarrow(ea uint64, size int, v uint64) bool {
	pg := i.mem.WritablePage(ea >> 16)
	po := ea & 0xffff
	if po+uint64(size) > uint64(len(pg)) {
		return i.storeSlow(ea, size, v)
	}
	switch b := pg[po:]; size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	default:
		binary.LittleEndian.PutUint32(b, uint32(v))
	}
	return true
}

// loadSlow is the load path for what a direct page access cannot serve: an
// untouched zero page, an access that straddles two pages, or an address
// outside memory (ok is false). The value is zero-extended.
func (i *Instance) loadSlow(ea uint64, size int) (v uint64, ok bool) {
	if ea > math.MaxUint32 {
		return 0, false
	}
	var err error
	switch off := uint32(ea); size {
	case 1:
		var b byte
		b, err = i.mem.ReadU8(off)
		v = uint64(b)
	case 2:
		var h uint16
		h, err = i.mem.ReadU16(off)
		v = uint64(h)
	case 4:
		var w uint32
		w, err = i.mem.ReadU32(off)
		v = uint64(w)
	default:
		v, err = i.mem.ReadU64(off)
	}
	return v, err == nil
}

// storeSlow is the store path for untouched, copy-on-write and straddled
// pages; it reports false for an address outside memory.
func (i *Instance) storeSlow(ea uint64, size int, v uint64) bool {
	if ea > math.MaxUint32 {
		return false
	}
	var err error
	switch off := uint32(ea); size {
	case 1:
		err = i.mem.WriteU8(off, byte(v))
	case 2:
		err = i.mem.WriteU16(off, uint16(v))
	case 4:
		err = i.mem.WriteU32(off, uint32(v))
	default:
		err = i.mem.WriteU64(off, v)
	}
	return err == nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func f64(v uint64) float64 { return math.Float64frombits(v) }
func f32(v uint64) float32 { return math.Float32frombits(uint32(v)) }
