package wavm

import (
	"fmt"
	"math/bits"
)

// This file is the second half of the trusted code-generation phase: one
// linear pass per function that turns validated stack code into the
// register-form code Instance.run executes. The operand stack disappears:
// the value at stack height h lives in frame register nlocals+h, so
// local.get and constants become operands of the instruction that consumes
// them, local.set becomes the destination of the instruction that produced
// the value, and block/loop/end/nop vanish. Branches carry lowered PCs, and
// the pairs the FC compiler emits on every loop iteration are fused.
//
// The pass trusts nothing it can check: it re-derives every stack height
// from the code itself and range-checks every index, so a module whose
// Validated flag was set by hand lowers to an error or to code that stays
// inside its frame — never to an out-of-range access in the executor.

// lop is a lowered opcode. Values below 256 are the source opcodes that
// survive one-to-one in three-address form (numeric operations, loads,
// stores, select, calls, ...); the values from 256 up exist only in lowered
// code.
type lop uint16

// linstr is one lowered instruction. a is the destination register unless
// noted otherwise; b and c are source registers; imm is an immediate, an
// address offset or a branch target, depending on op.
type linstr struct {
	op      lop
	a, b, c uint32
	imm     uint64
}

const (
	// lCharge heads every basic block: imm is the number of source
	// instructions the block stands for, charged to Steps and Fuel on entry.
	// Every branch target, and the instruction after every conditional
	// branch and call, is an lCharge.
	lCharge     lop = 256 + iota
	lMov            // a = b
	lConst          // a = imm
	lBrZ            // if a == 0 goto imm (64-bit test: i64.eqz, `if`)
	lBrNZ           // if a != 0 goto imm (br_if on a plain value)
	lI64LoadIdx     // a = mem64[b + c<<shift + off]; imm = off | shift<<32
	lI32MulAdd      // a = b*c + reg[imm]
	lF64AddMul      // a = reg[imm] + b*c (two roundings, operand order kept)

	// Immediate forms, a = b op imm, of the binary operations whose constant
	// operands the FC compiler puts in loops: index arithmetic and scaling.
	lI32AddI
	lI32MulI
	lI32AndI
	lF64AddI
	lF64MulI
	lF64DivI
)

// Compare-and-branch on i32, the test of every counted loop: if a <cmp> b
// goto imm. Each family is indexed by the comparison's offset from OpI32Eq
// (eq ne lt_s lt_u gt_s gt_u le_s le_u ge_s ge_u); the I form compares
// register a with the 32-bit immediate in c. A negated comparison is the
// inverse member. i64 and float comparisons compute a flag and branch on it.
//
// Every fused form here has sites in the hot loops of the kernels suite (the
// census is in the Execution tier section of docs/ARCHITECTURE.md); a form
// is added when a workload shows it, not before.
const (
	lBrI32  lop = 360
	lBrI32I lop = 370
)

// ltarget is one lowered br_table destination: the lowered PC and the
// register that receives the branch value when the table's arity is 1.
type ltarget struct{ pc, dst uint32 }

// lfunc is one lowered function body.
type lfunc struct {
	code   []linstr
	tables [][]ltarget
	idx    int // absolute function index, for Trap.Func
	typ    int // canonical type id, for call_indirect
	// A frame is nregs registers: the parameters, then the declared locals
	// (zeroed on entry), then one register per operand-stack height.
	nparams, nlocals, nregs int
}

// lowered is the executable form of a module, shared read-only by all of
// its instances. It is derived state: it is never serialised, and a decoded
// object file lowers again.
type lowered struct {
	funcs []lfunc
	// typeID maps a type index to the lowest index of a structurally equal
	// type, so call_indirect compares two ints.
	typeID []int
	// imports holds what a call needs to know about each host import.
	imports []limport
}

type limport struct{ typ, nparams, nresults int }

// typeOf returns the canonical type id of absolute function index idx.
func (l *lowered) typeOf(idx int) int {
	if idx < len(l.imports) {
		return l.imports[idx].typ
	}
	return l.funcs[idx-len(l.imports)].typ
}

// lower builds the lowered form of m. It reports an error, rather than
// producing code that could misbehave, for anything Validate would have
// refused.
func lower(m *Module) (*lowered, error) {
	l := &lowered{
		funcs:   make([]lfunc, len(m.Funcs)),
		typeID:  make([]int, len(m.Types)),
		imports: make([]limport, len(m.Imports)),
	}
	for i, t := range m.Types {
		if len(t.Results) > 1 {
			return nil, fmt.Errorf("wavm: lower: type %d has %d results", i, len(t.Results))
		}
		l.typeID[i] = i
		for j := 0; j < i; j++ {
			if m.Types[j].Equal(t) {
				l.typeID[i] = j
				break
			}
		}
	}
	for i, imp := range m.Imports {
		if imp.Type < 0 || imp.Type >= len(m.Types) {
			return nil, fmt.Errorf("wavm: lower: import %d has invalid type index %d", i, imp.Type)
		}
		t := m.Types[imp.Type]
		l.imports[i] = limport{typ: l.typeID[imp.Type], nparams: len(t.Params), nresults: len(t.Results)}
	}
	for fi := range m.Funcs {
		if err := lowerFunc(m, l, fi); err != nil {
			return nil, fmt.Errorf("wavm: lower: func %d (%s): %w", fi+len(m.Imports), m.Funcs[fi].Name, err)
		}
	}
	return l, nil
}

// slot describes where the value at one operand-stack height currently is.
type slot struct {
	kind slotKind
	// def is, for inReg slots, the index of the lowered instruction whose
	// field a produced the value, or -1 when no single instruction did. While
	// that instruction is still the last one emitted, a following local.set
	// may simply retarget it.
	def   int
	local uint32 // isLocal: the local the value is a pending read of
	val   uint64 // isConst: the constant
	cmp   Op     // isCmp: the comparison (or eqz) not yet emitted ...
	neg   bool   // ... whether its result is negated ...
	l, r  operand
}

type slotKind uint8

const (
	inReg   slotKind = iota // in the slot's own register, nlocals+height
	isLocal                 // a local.get whose read has not been emitted
	isConst                 // a constant not yet emitted
	// isCmp is a comparison held back so that a following eqz, br_if or if can
	// fuse with it. Only the top slot can be one, and only until the next
	// source instruction.
	isCmp
)

// operand is a resolved source: a register or a constant.
type operand struct {
	isConst bool
	reg     uint32
	val     uint64
}

type fixup struct {
	instr        int // index into code, or -1 for a table entry
	table, entry int
	target       int // source PC
}

type lowerer struct {
	m       *Module
	l       *lowered
	fn      *Function
	src     []Instr
	pc      int // the source instruction being lowered
	nlocals int
	results int

	code      []linstr
	tables    [][]ltarget
	stack     []slot
	maxHeight int
	live      bool // false while skipping code no live edge reaches
	hdr       int  // index of the open block's lCharge, -1 when none is open
	steps     uint64

	isTarget []bool  // per source PC (len(src) is the function's end)
	height   []int32 // operand-stack height on entry to a target, -1 unknown
	lpc      []int32 // lowered PC of a target's lCharge, -1 until emitted
	fixups   []fixup
}

func lowerFunc(m *Module, l *lowered, fi int) error {
	fn := &m.Funcs[fi]
	if fn.Type < 0 || fn.Type >= len(m.Types) {
		return fmt.Errorf("invalid type index %d", fn.Type)
	}
	ft := m.Types[fn.Type]
	lw := &lowerer{
		m: m, l: l, fn: fn, src: fn.Code,
		nlocals: len(ft.Params) + len(fn.Locals),
		results: len(ft.Results),
		live:    true,
		hdr:     -1,
	}
	if err := lw.markTargets(); err != nil {
		return err
	}
	for pc := 0; pc <= len(lw.src); pc++ {
		if lw.isTarget[pc] {
			if err := lw.join(pc); err != nil {
				return fmt.Errorf("pc %d: %w", pc, err)
			}
		}
		if pc == len(lw.src) || !lw.live {
			continue
		}
		lw.pc = pc
		if err := lw.step(); err != nil {
			return fmt.Errorf("pc %d (%s): %w", pc, lw.src[pc].Op, err)
		}
	}
	if lw.live {
		// Falling off the end is a return, and costs no step.
		if len(lw.stack) != lw.results {
			return fmt.Errorf("function leaves %d values on the stack, wants %d", len(lw.stack), lw.results)
		}
		lw.settle()
		lw.openBlock()
		if err := lw.emitReturn(); err != nil {
			return err
		}
	}
	lw.closeBlock()
	for _, f := range lw.fixups {
		t := lw.lpc[f.target]
		if t < 0 {
			return fmt.Errorf("branch to pc %d, which nothing reaches", f.target)
		}
		if f.instr >= 0 {
			lw.code[f.instr].imm = uint64(t)
		} else {
			lw.tables[f.table][f.entry].pc = uint32(t)
		}
	}
	l.funcs[fi] = lfunc{
		code:    lw.code,
		tables:  lw.tables,
		idx:     fi + len(m.Imports),
		typ:     l.typeID[fn.Type],
		nparams: len(ft.Params),
		nlocals: lw.nlocals,
		nregs:   lw.nlocals + lw.maxHeight,
	}
	return nil
}

// markTargets records every PC a branch can land on, so that fusion never
// swallows one and every one gets an lCharge. A branch the validator
// resolved lands in one of three places — backwards on the first
// instruction of a loop, forwards on the end that closes its block (or the
// end of the function), or, for an if, just past its else — and anything
// else is refused here.
func (lw *lowerer) markTargets() error {
	fn, n := lw.fn, len(lw.src)
	lw.isTarget = make([]bool, n+1)
	lw.height = make([]int32, n+1)
	lw.lpc = make([]int32, n+1)
	for i := range lw.height {
		lw.height[i], lw.lpc[i] = -1, -1
	}
	mark := func(from int, op Op, to int32) error {
		t := int(to)
		switch {
		case t < 0 || t > n:
		case t > from && (t == n || lw.src[t].Op == OpEnd),
			t > from && op == OpIf && lw.src[t-1].Op == OpElse,
			t <= from && t > 0 && op != OpIf && op != OpElse && lw.src[t-1].Op == OpLoop:
			lw.isTarget[t] = true
			return nil
		}
		return fmt.Errorf("pc %d: %s target %d is not one the validator produces", from, op, to)
	}
	for pc, in := range lw.src {
		switch in.Op {
		case OpIf, OpElse, OpBr, OpBrIf:
			if err := mark(pc, in.Op, in.A); err != nil {
				return err
			}
		case OpBrTable:
			if in.A < 0 || int(in.A) >= len(fn.BrTables) || len(fn.BrTables[in.A]) == 0 {
				return fmt.Errorf("pc %d: invalid br_table index %d", pc, in.A)
			}
			for _, t := range fn.BrTables[in.A] {
				if err := mark(pc, in.Op, t.PC); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// --- blocks and emission ---

func (lw *lowerer) openBlock() {
	if lw.hdr < 0 {
		lw.hdr = len(lw.code)
		lw.code = append(lw.code, linstr{op: lCharge})
		lw.steps = 0
	}
}

func (lw *lowerer) closeBlock() {
	if lw.hdr >= 0 {
		lw.code[lw.hdr].imm = lw.steps
		lw.hdr = -1
	}
}

// emit appends an instruction to the open block (opening one if a call or a
// conditional branch has just closed the last) and returns its index.
func (lw *lowerer) emit(in linstr) int {
	lw.openBlock()
	lw.code = append(lw.code, in)
	return len(lw.code) - 1
}

func (lw *lowerer) home(pos int) uint32 { return uint32(lw.nlocals + pos) }

// --- the abstract operand stack ---

func (lw *lowerer) push(s slot) {
	lw.stack = append(lw.stack, s)
	if len(lw.stack) > lw.maxHeight {
		lw.maxHeight = len(lw.stack)
	}
}

// pushReg records that instruction def left its result in the new top slot.
func (lw *lowerer) pushReg(def int) { lw.push(slot{kind: inReg, def: def}) }

func (lw *lowerer) pop() (slot, error) {
	if len(lw.stack) == 0 {
		return slot{}, fmt.Errorf("operand stack underflow")
	}
	s := lw.stack[len(lw.stack)-1]
	lw.stack = lw.stack[:len(lw.stack)-1]
	return s, nil
}

// operandAt resolves the slot at pos without emitting anything. The slot
// must not be a pending comparison.
func (lw *lowerer) operandAt(pos int, s slot) operand {
	switch s.kind {
	case isLocal:
		return operand{reg: s.local}
	case isConst:
		return operand{isConst: true, val: s.val}
	}
	return operand{reg: lw.home(pos)}
}

// reg returns a register holding o, loading a constant into the register
// of stack position pos (which must be free for it) when o is one.
func (lw *lowerer) reg(o operand, pos int) uint32 {
	if !o.isConst {
		return o.reg
	}
	lw.moveTo(lw.home(pos), o)
	return lw.home(pos)
}

// moveTo emits dst = o.
func (lw *lowerer) moveTo(dst uint32, o operand) int {
	if o.isConst {
		return lw.emit(linstr{op: lConst, a: dst, imm: o.val})
	}
	return lw.emit(linstr{op: lMov, a: dst, b: o.reg})
}

// popRegs3 pops the top three slots into registers, deepest first.
func (lw *lowerer) popRegs3() (r [3]uint32, err error) {
	pos := len(lw.stack) - 3
	if pos < 0 {
		return r, fmt.Errorf("operand stack underflow")
	}
	for i := 2; i >= 0; i-- {
		r[i] = lw.reg(lw.operandAt(pos+i, lw.stack[pos+i]), pos+i)
	}
	lw.stack = lw.stack[:pos]
	return r, nil
}

// popReg pops the top slot into a register.
func (lw *lowerer) popReg() (uint32, error) {
	s, err := lw.pop()
	if err != nil {
		return 0, err
	}
	pos := len(lw.stack)
	return lw.reg(lw.operandAt(pos, s), pos), nil
}

// materialise makes the slot at pos an inReg slot.
func (lw *lowerer) materialise(pos int) {
	s := &lw.stack[pos]
	switch s.kind {
	case isLocal, isConst:
		s.def = lw.moveTo(lw.home(pos), lw.operandAt(pos, *s))
	case isCmp:
		s.def = lw.emitCmp(pos, *s)
	}
	s.kind = inReg
}

// flushBelow materialises every slot under height h: what a branch target
// that keeps h values is entitled to find in their registers.
func (lw *lowerer) flushBelow(h int) {
	for pos := 0; pos < h && pos < len(lw.stack); pos++ {
		lw.materialise(pos)
	}
}

// flushLocal materialises pending reads of local x before x is overwritten.
func (lw *lowerer) flushLocal(x uint32) {
	for pos := range lw.stack {
		if s := &lw.stack[pos]; s.kind == isLocal && s.local == x {
			lw.materialise(pos)
		}
	}
}

func (lw *lowerer) readsLocal(x uint32) bool {
	for _, s := range lw.stack {
		if s.kind == isLocal && s.local == x {
			return true
		}
	}
	return false
}

// settle emits a comparison that was held back for fusion and found no
// taker.
func (lw *lowerer) settle() {
	if n := len(lw.stack); n > 0 && lw.stack[n-1].kind == isCmp {
		lw.materialise(n - 1)
	}
}

// --- control flow ---

// join handles arriving at a branch target: whatever falls into it settles
// its stack into registers, and a new block starts.
func (lw *lowerer) join(pc int) error {
	switch {
	case lw.live:
		lw.settle()
		lw.flushBelow(len(lw.stack))
		if h := lw.height[pc]; h >= 0 && int(h) != len(lw.stack) {
			return fmt.Errorf("stack height %d falls into a target entered with %d", len(lw.stack), h)
		}
		lw.height[pc] = int32(len(lw.stack))
	case lw.height[pc] >= 0:
		lw.live = true
		lw.stack = lw.stack[:0]
		for i := 0; i < int(lw.height[pc]); i++ {
			lw.pushReg(-1)
		}
	default:
		return nil // only dead code branches here
	}
	lw.closeBlock()
	lw.openBlock()
	lw.lpc[pc] = int32(lw.hdr)
	return nil
}

// target resolves a branch from the current state to source PC pc, which
// must be entered with stack height h. It returns the lowered PC if known;
// otherwise the caller records a fixup.
func (lw *lowerer) target(pc, h int) (lowered int32, err error) {
	if lw.height[pc] >= 0 && int(lw.height[pc]) != h {
		return 0, fmt.Errorf("branch carries stack height %d to pc %d, entered with %d", h, pc, lw.height[pc])
	}
	if pc <= lw.pc && lw.lpc[pc] < 0 {
		// A backward branch to a target that was passed while dead.
		return 0, fmt.Errorf("branch to pc %d, which nothing reaches", pc)
	}
	lw.height[pc] = int32(h)
	return lw.lpc[pc], nil
}

// emitBranch emits the branch instruction in to source PC pc.
func (lw *lowerer) emitBranch(in linstr, pc, h int) error {
	t, err := lw.target(pc, h)
	if err != nil {
		return err
	}
	idx := lw.emit(in)
	if t >= 0 {
		lw.code[idx].imm = uint64(t)
	} else {
		lw.fixups = append(lw.fixups, fixup{instr: idx, target: pc})
	}
	return nil
}

// labelOf validates a branch's label immediates (arity b, entry height c)
// against a stack of have values.
func labelOf(b int32, c int64, have int) (arity, height int, err error) {
	if b < 0 || b > 1 || c < 0 || c+int64(b) > int64(have) {
		return 0, 0, fmt.Errorf("branch label (arity %d, height %d) does not fit a stack of %d", b, c, have)
	}
	return int(b), int(c), nil
}

// carry moves the branch value (the top slot) into the register of height
// h, where the target expects it.
func (lw *lowerer) carry(h int) {
	top := len(lw.stack) - 1
	if top == h {
		lw.materialise(top)
	} else {
		lw.moveTo(lw.home(h), lw.operandAt(top, lw.stack[top]))
	}
}

// condBranch pops the condition and emits "if cond (xor negate) goto pc",
// fusing with a pending comparison when the condition is one.
func (lw *lowerer) condBranch(negate bool, pc, h int) error {
	cond, err := lw.pop()
	if err != nil {
		return err
	}
	pos := len(lw.stack)
	if cond.kind != isCmp {
		op := lBrNZ
		if negate {
			op = lBrZ
		}
		return lw.emitBranch(linstr{op: op, a: lw.reg(lw.operandAt(pos, cond), pos)}, pc, h)
	}
	return lw.emitBranch(lw.cmpBranch(cond, cond.neg != negate, pos), pc, h)
}

// cmpBranch builds the compare-and-branch for pending comparison s, whose
// operands sat at stack positions pos and pos+1.
func (lw *lowerer) cmpBranch(s slot, negate bool, pos int) linstr {
	l, r := s.l, s.r
	switch {
	case s.cmp == OpI32Eqz:
		op := lBrI32I + lop(OpI32Eq-OpI32Eq)
		if negate {
			op = lBrI32I + lop(OpI32Ne-OpI32Eq)
		}
		return linstr{op: op, a: lw.reg(l, pos)}
	case s.cmp == OpI64Eqz:
		op := lBrZ
		if negate {
			op = lBrNZ
		}
		return linstr{op: op, a: lw.reg(l, pos)}
	case s.cmp >= OpI32Eq && s.cmp <= OpI32GeU:
		kind := s.cmp - OpI32Eq
		if negate {
			kind = intCmpInverse[kind]
		}
		if l.isConst && !r.isConst {
			l, r, kind = r, l, intCmpSwap[kind]
		}
		if r.isConst {
			return linstr{op: lBrI32I + lop(kind), a: lw.reg(l, pos), c: uint32(r.val)}
		}
		return linstr{op: lBrI32 + lop(kind), a: l.reg, b: r.reg}
	}
	// i64 and float comparisons have no fused form: compute the flag, branch
	// on it.
	s.neg = false
	flag := lw.home(pos)
	lw.emitCmp(pos, s)
	if negate {
		return linstr{op: lBrZ, a: flag}
	}
	return linstr{op: lBrNZ, a: flag}
}

// Integer comparison kinds, as offsets from the type's eq opcode:
// eq ne lt_s lt_u gt_s gt_u le_s le_u ge_s ge_u.
var (
	intCmpInverse = [10]Op{1, 0, 8, 9, 6, 7, 4, 5, 2, 3} // !(a op b)
	intCmpSwap    = [10]Op{0, 1, 4, 5, 2, 3, 8, 9, 6, 7} // b op' a
)

// emitCmp emits pending comparison s as a value into the register of
// position pos and returns the index of the defining instruction.
func (lw *lowerer) emitCmp(pos int, s slot) int {
	dst, op := lw.home(pos), s.cmp
	switch {
	case !s.neg:
	case op >= OpI32Eq && op <= OpI32GeU:
		op, s.neg = OpI32Eq+intCmpInverse[op-OpI32Eq], false
	case op >= OpI64Eq && op <= OpI64GeU:
		op, s.neg = OpI64Eq+intCmpInverse[op-OpI64Eq], false
	}
	out := linstr{op: lop(op), a: dst, b: lw.reg(s.l, pos)}
	if op != OpI32Eqz && op != OpI64Eqz {
		out.c = lw.reg(s.r, pos+1)
	}
	idx := lw.emit(out)
	if s.neg { // an eqz, or a float comparison: NaN makes those uninvertible
		idx = lw.emit(linstr{op: lop(OpI32Eqz), a: dst, b: dst})
	}
	return idx
}

func (lw *lowerer) emitReturn() error {
	in := linstr{op: lop(OpReturn), c: uint32(lw.results)}
	if lw.results == 1 {
		r, err := lw.popReg()
		if err != nil {
			return err
		}
		in.b = r
	}
	lw.emit(in)
	lw.live = false
	return nil
}

// --- one source instruction ---

func (lw *lowerer) step() error {
	in := &lw.src[lw.pc]
	switch in.Op {
	case OpI32Eqz, OpI64Eqz, OpBrIf, OpIf:
		// These can take a pending comparison as it is.
	default:
		lw.settle()
	}
	lw.openBlock()
	lw.steps++

	switch in.Op {
	case OpNop, OpBlock, OpLoop, OpEnd:
		return nil

	case OpUnreachable:
		lw.emit(linstr{op: lop(OpUnreachable)})
		lw.live = false
		return nil

	case OpIf:
		// The false edge finds the whole stack in registers.
		h := len(lw.stack) - 1
		lw.flushBelow(h)
		if err := lw.condBranch(true, int(in.A), h); err != nil {
			return err
		}
		lw.closeBlock()
		return nil

	case OpElse:
		// Reached by falling out of the then arm: skip the else arm.
		lw.flushBelow(len(lw.stack))
		if err := lw.emitBranch(linstr{op: lop(OpBr)}, int(in.A), len(lw.stack)); err != nil {
			return err
		}
		lw.live = false
		return nil

	case OpBr:
		arity, height, err := labelOf(in.B, in.C, len(lw.stack))
		if err != nil {
			return err
		}
		if int(in.A) == len(lw.src) {
			return lw.emitReturn() // a branch out of the function body
		}
		lw.flushBelow(height)
		if arity == 1 {
			lw.carry(height)
		}
		if err := lw.emitBranch(linstr{op: lop(OpBr)}, int(in.A), height+arity); err != nil {
			return err
		}
		lw.live = false
		return nil

	case OpBrIf:
		if len(lw.stack) == 0 {
			return fmt.Errorf("operand stack underflow")
		}
		cond := lw.stack[len(lw.stack)-1]
		arity, height, err := labelOf(in.B, in.C, len(lw.stack)-1)
		if err != nil {
			return err
		}
		top := len(lw.stack) - 2 // the branch value, when there is one
		if arity == 0 || top == height {
			// The taken edge needs nothing moved.
			lw.flushBelow(height + arity)
			if err := lw.condBranch(false, int(in.A), height+arity); err != nil {
				return err
			}
			lw.closeBlock()
			return nil
		}
		// The value must move down, but only if the branch is taken: branch
		// around a block that moves it and jumps.
		lw.flushBelow(top + 1)
		skip := linstr{op: lBrZ}
		if cond.kind == isCmp {
			lw.stack = lw.stack[:len(lw.stack)-1]
			skip = lw.cmpBranch(cond, !cond.neg, len(lw.stack))
		} else if skip.a, err = lw.popReg(); err != nil {
			return err
		}
		skipAt := lw.emit(skip)
		lw.closeBlock()
		lw.emit(linstr{op: lMov, a: lw.home(height), b: lw.home(top)})
		if err := lw.emitBranch(linstr{op: lop(OpBr)}, int(in.A), height+arity); err != nil {
			return err
		}
		lw.closeBlock()
		lw.openBlock()
		lw.code[skipAt].imm = uint64(lw.hdr)
		return nil

	case OpBrTable:
		idx, err := lw.popReg()
		if err != nil {
			return err
		}
		targets := lw.fn.BrTables[in.A]
		arity := int(targets[0].Arity)
		out := linstr{op: lop(OpBrTable), a: idx, c: uint32(arity), imm: uint64(len(lw.tables))}
		if arity == 1 {
			if len(lw.stack) == 0 {
				return fmt.Errorf("operand stack underflow")
			}
			top := len(lw.stack) - 1
			lw.flushBelow(top)
			out.b = lw.reg(lw.operandAt(top, lw.stack[top]), top)
		} else {
			lw.flushBelow(len(lw.stack))
		}
		table := make([]ltarget, len(targets))
		for ei, t := range targets {
			if int(t.Arity) != arity {
				return fmt.Errorf("br_table labels have mismatched arities")
			}
			_, height, err := labelOf(t.Arity, int64(t.Height), len(lw.stack))
			if err != nil {
				return err
			}
			table[ei].dst = lw.home(height)
			lp, err := lw.target(int(t.PC), height+arity)
			if err != nil {
				return err
			}
			if lp >= 0 {
				table[ei].pc = uint32(lp)
			} else {
				lw.fixups = append(lw.fixups, fixup{instr: -1, table: len(lw.tables), entry: ei, target: int(t.PC)})
			}
		}
		lw.tables = append(lw.tables, table)
		lw.emit(out)
		lw.live = false
		return nil

	case OpReturn:
		return lw.emitReturn()

	case OpCall:
		callee := int(in.A)
		ft, err := lw.m.FuncTypeAt(callee)
		if err != nil {
			return err
		}
		return lw.emitCall(linstr{op: lop(OpCall), imm: uint64(callee)}, ft)

	case OpCallIndirect:
		if lw.m.Table == nil {
			return fmt.Errorf("call_indirect without a table")
		}
		if in.A < 0 || int(in.A) >= len(lw.m.Types) {
			return fmt.Errorf("call_indirect references invalid type %d", in.A)
		}
		elem, err := lw.popReg()
		if err != nil {
			return err
		}
		out := linstr{op: lop(OpCallIndirect), b: elem, imm: uint64(lw.l.typeID[in.A])}
		return lw.emitCall(out, lw.m.Types[in.A])

	case OpDrop:
		_, err := lw.pop()
		return err

	case OpSelect:
		r, err := lw.popRegs3() // v1, v2, cond
		if err != nil {
			return err
		}
		lw.pushReg(lw.emit(linstr{op: lop(OpSelect), a: lw.home(len(lw.stack)), b: r[0], c: r[1], imm: uint64(r[2])}))
		return nil

	case OpLocalGet:
		x, err := lw.local(in.A)
		if err != nil {
			return err
		}
		lw.push(slot{kind: isLocal, local: x})
		return nil

	case OpLocalSet, OpLocalTee:
		x, err := lw.local(in.A)
		if err != nil {
			return err
		}
		top, err := lw.pop()
		if err != nil {
			return err
		}
		switch {
		case top.kind == isLocal && top.local == x:
			// x = x
		case top.kind == inReg && top.def == len(lw.code)-1 && !lw.readsLocal(x):
			// The producer writes the local directly.
			lw.code[top.def].a = x
		default:
			lw.flushLocal(x)
			lw.moveTo(x, lw.operandAt(len(lw.stack), top))
		}
		if in.Op == OpLocalTee {
			if top.kind == isConst {
				lw.push(top)
			} else {
				lw.push(slot{kind: isLocal, local: x})
			}
		}
		return nil

	case OpGlobalGet:
		if err := lw.global(in.A); err != nil {
			return err
		}
		lw.pushReg(lw.emit(linstr{op: lop(OpGlobalGet), a: lw.home(len(lw.stack)), imm: uint64(in.A)}))
		return nil

	case OpGlobalSet:
		if err := lw.global(in.A); err != nil {
			return err
		}
		r, err := lw.popReg()
		if err != nil {
			return err
		}
		lw.emit(linstr{op: lop(OpGlobalSet), b: r, imm: uint64(in.A)})
		return nil

	case OpI32Const, OpF32Const:
		lw.push(slot{kind: isConst, val: uint64(uint32(in.C))})
		return nil
	case OpI64Const, OpF64Const:
		lw.push(slot{kind: isConst, val: uint64(in.C)})
		return nil

	case OpMemorySize:
		if err := lw.needMemory(); err != nil {
			return err
		}
		lw.pushReg(lw.emit(linstr{op: lop(OpMemorySize), a: lw.home(len(lw.stack))}))
		return nil

	case OpMemoryGrow:
		if err := lw.needMemory(); err != nil {
			return err
		}
		r, err := lw.popReg()
		if err != nil {
			return err
		}
		lw.pushReg(lw.emit(linstr{op: lop(OpMemoryGrow), a: lw.home(len(lw.stack)), b: r}))
		return nil

	case OpMemoryCopy, OpMemoryFill:
		if err := lw.needMemory(); err != nil {
			return err
		}
		r, err := lw.popRegs3() // copy: dst, src, n; fill: dst, value, n
		if err != nil {
			return err
		}
		lw.emit(linstr{op: lop(in.Op), a: r[0], b: r[1], c: r[2]})
		return nil

	case OpI32Eqz, OpI64Eqz:
		top, err := lw.pop()
		if err != nil {
			return err
		}
		if top.kind == isCmp && in.Op == OpI32Eqz {
			top.neg = !top.neg
			lw.push(top)
			return nil
		}
		if top.kind == isCmp { // i64.eqz of an i32 flag: only a forged module
			lw.push(top)
			lw.settle()
			top, _ = lw.pop()
		}
		lw.push(slot{kind: isCmp, cmp: in.Op, l: lw.operandAt(len(lw.stack), top)})
		return nil

	case OpI64ReinterpretF64, OpF64ReinterpretI64:
		// The raw encoding is already the reinterpretation.
		if len(lw.stack) == 0 {
			return fmt.Errorf("operand stack underflow")
		}
		return nil
	}

	if isMemoryAccess(in.Op) {
		if err := lw.needMemory(); err != nil {
			return err
		}
		if _, ok := loadType(in.Op); ok {
			return lw.lowerLoad(in)
		}
		val, err := lw.pop()
		if err != nil {
			return err
		}
		addr, err := lw.pop()
		if err != nil {
			return err
		}
		pos := len(lw.stack)
		op := in.Op
		switch op {
		case OpF32Store, OpI64Store32:
			op = OpI32Store
		case OpF64Store:
			op = OpI64Store
		}
		a := lw.reg(lw.operandAt(pos, addr), pos)
		lw.emit(linstr{op: lop(op), a: a, b: lw.reg(lw.operandAt(pos+1, val), pos+1), imm: uint64(uint32(in.A))})
		return nil
	}

	sig, ok := opSignatures[in.Op]
	if !ok {
		return fmt.Errorf("unknown opcode %d", in.Op)
	}
	switch len(sig.in) {
	case 1:
		r, err := lw.popReg()
		if err != nil {
			return err
		}
		lw.pushReg(lw.emit(linstr{op: lop(in.Op), a: lw.home(len(lw.stack)), b: r}))
		return nil
	case 2:
		return lw.lowerBinary(in.Op)
	}
	return fmt.Errorf("unknown opcode %d", in.Op)
}

// emitCall flushes the arguments into consecutive registers — they become
// the callee's first locals, its frame starting where they start — and
// ends the block, so that the callee's steps are charged after the call's.
func (lw *lowerer) emitCall(out linstr, ft FuncType) error {
	n := len(ft.Params)
	if len(ft.Results) > 1 || n > len(lw.stack) {
		return fmt.Errorf("call of %s does not fit a stack of %d", ft, len(lw.stack))
	}
	base := len(lw.stack) - n
	for pos := base; pos < len(lw.stack); pos++ {
		lw.materialise(pos)
	}
	lw.stack = lw.stack[:base]
	out.a = lw.home(base)
	lw.emit(out)
	lw.closeBlock()
	if len(ft.Results) == 1 {
		lw.pushReg(-1)
	}
	return nil
}

func (lw *lowerer) local(i int32) (uint32, error) {
	if i < 0 || int(i) >= lw.nlocals {
		return 0, fmt.Errorf("local %d out of range (have %d)", i, lw.nlocals)
	}
	return uint32(i), nil
}

func (lw *lowerer) global(i int32) error {
	if i < 0 || int(i) >= len(lw.m.Globals) {
		return fmt.Errorf("global %d out of range", i)
	}
	return nil
}

func (lw *lowerer) needMemory() error {
	if lw.m.MemMin == 0 {
		return fmt.Errorf("instruction requires a memory")
	}
	return nil
}

// lowerLoad emits a load, folding the address arithmetic the FC compiler
// produces for a[i] on an 8-byte element — base + i*8, as a multiply by a
// power of two then an add — into one indexed load.
func (lw *lowerer) lowerLoad(in *Instr) error {
	addr, err := lw.pop()
	if err != nil {
		return err
	}
	pos := len(lw.stack)
	op := in.Op
	switch op {
	case OpF32Load, OpI64Load32U:
		op = OpI32Load
	case OpF64Load:
		op = OpI64Load
	}
	off := uint64(uint32(in.A))
	if op == OpI64Load && addr.kind == inReg && addr.def == len(lw.code)-1 {
		if add := lw.code[addr.def]; add.op == lop(OpI32Add) {
			base, index, shift := add.b, add.c, uint64(0)
			lw.code = lw.code[:addr.def]
			// A scaled index is a stack temporary computed just before the add.
			for _, swap := range []bool{false, true} {
				if swap {
					base, index = index, base
				}
				last := len(lw.code) - 1
				if last < 0 || index < uint32(lw.nlocals) || lw.code[last].a != index || base == index {
					continue
				}
				if mul := lw.code[last]; mul.op == lI32MulI && bits.OnesCount32(uint32(mul.imm)) == 1 {
					index, shift = mul.b, uint64(bits.TrailingZeros32(uint32(mul.imm)))
					lw.code = lw.code[:last]
					break
				}
			}
			lw.pushReg(lw.emit(linstr{op: lI64LoadIdx, a: lw.home(pos), b: base, c: index, imm: off | shift<<32}))
			return nil
		}
	}
	lw.pushReg(lw.emit(linstr{op: lop(op), a: lw.home(pos), b: lw.reg(lw.operandAt(pos, addr), pos), imm: off}))
	return nil
}

// immForm reports the immediate form of binary operation op, if it has one.
func immForm(op Op) (lop, bool) {
	switch op {
	case OpI32Add:
		return lI32AddI, true
	case OpI32Mul:
		return lI32MulI, true
	case OpI32And:
		return lI32AndI, true
	case OpF64Add:
		return lF64AddI, true
	case OpF64Mul:
		return lF64MulI, true
	case OpF64Div:
		return lF64DivI, true
	}
	return 0, false
}

func isCompare(op Op) bool {
	return op >= OpI32Eq && op <= OpI32GeU || op >= OpI64Eq && op <= OpI64GeU ||
		op >= OpF64Eq && op <= OpF64Ge || op >= OpF32Eq && op <= OpF32Ge
}

func (lw *lowerer) lowerBinary(op Op) error {
	rs, err := lw.pop()
	if err != nil {
		return err
	}
	ls, err := lw.pop()
	if err != nil {
		return err
	}
	pos := len(lw.stack)
	l, r := lw.operandAt(pos, ls), lw.operandAt(pos+1, rs)
	dst := lw.home(pos)
	if isCompare(op) {
		lw.push(slot{kind: isCmp, cmp: op, l: l, r: r})
		return nil
	}

	if op == OpI32Sub && r.isConst {
		// x - k is x + (-k) in two's complement.
		op, r.val = OpI32Add, uint64(-uint32(r.val))
	}
	if l.isConst && !r.isConst && (op == OpI32Add || op == OpI32Mul || op == OpI32And) {
		l, r = r, l // commutative, and with an immediate form
	}
	if imm, ok := immForm(op); ok && r.isConst {
		lw.pushReg(lw.emit(linstr{op: imm, a: dst, b: lw.reg(l, pos), imm: r.val}))
		return nil
	}

	// a*b + c and c + a*b, with the product a stack temporary computed by the
	// last instruction, become one multiply-add.
	last := len(lw.code) - 1
	switch {
	case op == OpI32Add && !l.isConst && !r.isConst:
		prod, addend := ls, r
		if !(prod.kind == inReg && prod.def == last) {
			prod, addend = rs, l
		}
		if prod.kind == inReg && prod.def == last && lw.code[last].op == lop(OpI32Mul) {
			lw.code[last].op, lw.code[last].a, lw.code[last].imm = lI32MulAdd, dst, uint64(addend.reg)
			lw.pushReg(last)
			return nil
		}
	case op == OpF64Add && !l.isConst && rs.kind == inReg && rs.def == last && lw.code[last].op == lop(OpF64Mul):
		lw.code[last].op, lw.code[last].a, lw.code[last].imm = lF64AddMul, dst, uint64(l.reg)
		lw.pushReg(last)
		return nil
	}

	lw.pushReg(lw.emit(linstr{op: lop(op), a: dst, b: lw.reg(l, pos), c: lw.reg(r, pos+1)}))
	return nil
}
