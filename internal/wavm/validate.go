package wavm

import (
	"fmt"

	"faasm.dev/faasm/internal/wamem"
)

// Validate type-checks every function body against the WebAssembly typing
// rules (operand-stack discipline, branch label arities, local/global/memory
// constraints) and resolves structured control flow into absolute branch
// targets. It corresponds to the trusted "code generation" phase of Fig 3:
// binaries arriving from untrusted user toolchains must pass here before
// they can ever execute.
//
// On success the module is marked Validated, its branch instructions carry
// (target PC, arity, stack height) immediates, and its executable
// register-form code has been built from them (lower.go): validation and
// lowering are the two halves of the one trusted step.
func Validate(m *Module) error {
	if m.Validated {
		return nil
	}
	if m.MemMax != 0 && m.MemMax < m.MemMin {
		return fmt.Errorf("wavm: memory max %d < min %d", m.MemMax, m.MemMin)
	}
	for i, imp := range m.Imports {
		if imp.Type < 0 || imp.Type >= len(m.Types) {
			return fmt.Errorf("wavm: import %d (%s.%s) has invalid type index", i, imp.Module, imp.Name)
		}
	}
	for i, g := range m.Globals {
		if g.Type > F64 {
			return fmt.Errorf("wavm: global %d has invalid type", i)
		}
	}
	numFuncs := len(m.Imports) + len(m.Funcs)
	for i, t := range m.Table {
		if t < -1 || int(t) >= numFuncs {
			return fmt.Errorf("wavm: table element %d references invalid function %d", i, t)
		}
	}
	for i, d := range m.Data {
		end := int64(d.Offset) + int64(len(d.Bytes))
		if end > int64(m.MemMin)*wamem.PageSize {
			return fmt.Errorf("wavm: data segment %d [%d,%d) outside initial memory", i, d.Offset, end)
		}
	}
	if m.Start >= 0 {
		ft, err := m.FuncTypeAt(m.Start)
		if err != nil {
			return err
		}
		if len(ft.Params) != 0 || len(ft.Results) != 0 {
			return fmt.Errorf("wavm: start function must have empty signature, has %s", ft)
		}
	}
	for _, e := range m.Exports {
		if e.Kind == ExportFunc && (e.Index < 0 || e.Index >= numFuncs) {
			return fmt.Errorf("wavm: export %q references invalid function %d", e.Name, e.Index)
		}
	}
	for fi := range m.Funcs {
		if err := validateFunc(m, fi); err != nil {
			return fmt.Errorf("wavm: func %d (%s): %w", fi+len(m.Imports), m.Funcs[fi].Name, err)
		}
	}
	m.Validated = true
	return lowerInto(m)
}

// lowerInto attaches m's executable form (see lower.go).
func lowerInto(m *Module) error {
	low, err := lower(m)
	if err != nil {
		return err
	}
	m.low = low
	return nil
}

// unknownType is the polymorphic type used in unreachable code.
const unknownType ValueType = 0xff

// ctrlFrame tracks one structured-control scope during validation.
type ctrlFrame struct {
	op          Op // OpBlock, OpLoop, OpIf, or OpNop for the function frame
	startHeight int
	arity       int       // result arity (0 or 1)
	resultType  ValueType // valid when arity == 1
	unreachable bool
	hasElse     bool
	// loopStart is the branch target for loops (backward, known at entry).
	loopStart int32
	// Forward patches filled in when End is reached.
	patchInstrs []int // Br/BrIf/If/Else instruction indices whose A awaits end PC
	patchTables []tablePatch
	ifPC        int // PC of the If instruction, for else patching
}

type tablePatch struct{ table, entry int }

type validator struct {
	m      *Module
	fn     *Function
	locals []ValueType
	stack  []ValueType
	ctrl   []ctrlFrame
}

func validateFunc(m *Module, fi int) error {
	fn := &m.Funcs[fi]
	if fn.Type < 0 || fn.Type >= len(m.Types) {
		return fmt.Errorf("invalid type index %d", fn.Type)
	}
	ft := m.Types[fn.Type]
	if len(ft.Results) > 1 {
		return fmt.Errorf("multi-result functions not supported")
	}
	v := &validator{m: m, fn: fn}
	v.locals = append(v.locals, ft.Params...)
	v.locals = append(v.locals, fn.Locals...)
	root := ctrlFrame{op: OpNop, arity: len(ft.Results)}
	if root.arity == 1 {
		root.resultType = ft.Results[0]
	}
	v.ctrl = append(v.ctrl, root)

	for pc := 0; pc < len(fn.Code); pc++ {
		if err := v.step(pc); err != nil {
			return fmt.Errorf("pc %d (%s): %w", pc, fn.Code[pc].Op, err)
		}
	}
	if len(v.ctrl) != 1 {
		return fmt.Errorf("unbalanced control flow: %d frames open", len(v.ctrl))
	}
	// Close the implicit function frame: results must be on the stack, and
	// branches to it jump past the end of the code (the return point).
	f := &v.ctrl[0]
	endPC := int32(len(fn.Code))
	for _, i := range f.patchInstrs {
		fn.Code[i].A = endPC
	}
	for _, tp := range f.patchTables {
		fn.BrTables[tp.table][tp.entry].PC = endPC
	}
	if !f.unreachable {
		if err := v.checkFrameResults(f); err != nil {
			return err
		}
		if len(v.stack) != f.arity {
			return fmt.Errorf("function leaves %d values on the stack, wants %d", len(v.stack), f.arity)
		}
	}
	return nil
}

func (v *validator) push(t ValueType) { v.stack = append(v.stack, t) }

func (v *validator) pop(want ValueType) error {
	f := &v.ctrl[len(v.ctrl)-1]
	if len(v.stack) == f.startHeight {
		if f.unreachable {
			return nil // polymorphic
		}
		return fmt.Errorf("stack underflow, wanted %s", want)
	}
	got := v.stack[len(v.stack)-1]
	v.stack = v.stack[:len(v.stack)-1]
	if got != want && got != unknownType && want != unknownType {
		return fmt.Errorf("type mismatch: got %s, wanted %s", got, want)
	}
	return nil
}

// popAny pops a value of any type, returning it (may be unknownType).
func (v *validator) popAny() (ValueType, error) {
	f := &v.ctrl[len(v.ctrl)-1]
	if len(v.stack) == f.startHeight {
		if f.unreachable {
			return unknownType, nil
		}
		return 0, fmt.Errorf("stack underflow")
	}
	got := v.stack[len(v.stack)-1]
	v.stack = v.stack[:len(v.stack)-1]
	return got, nil
}

func (v *validator) markUnreachable() {
	f := &v.ctrl[len(v.ctrl)-1]
	f.unreachable = true
	v.stack = v.stack[:f.startHeight]
}

// labelArity returns the branch arity and type of a label: loops take no
// values (MVP loop labels have empty parameters), other frames take their
// results.
func labelArity(f *ctrlFrame) (int, ValueType) {
	if f.op == OpLoop {
		return 0, 0
	}
	return f.arity, f.resultType
}

// checkBranch verifies the stack satisfies a branch to depth d and fills the
// instruction's arity/height immediates. Returns the frame.
func (v *validator) checkBranch(d int32, pc int) (*ctrlFrame, error) {
	if int(d) >= len(v.ctrl) {
		return nil, fmt.Errorf("branch depth %d exceeds nesting %d", d, len(v.ctrl))
	}
	f := &v.ctrl[len(v.ctrl)-1-int(d)]
	arity, rt := labelArity(f)
	cur := &v.ctrl[len(v.ctrl)-1]
	if !cur.unreachable {
		if arity == 1 {
			if len(v.stack) < 1 {
				return nil, fmt.Errorf("branch wants a %s on the stack", rt)
			}
			top := v.stack[len(v.stack)-1]
			if top != rt && top != unknownType {
				return nil, fmt.Errorf("branch value type %s, wanted %s", top, rt)
			}
		}
		if len(v.stack)-arity < f.startHeight {
			return nil, fmt.Errorf("branch would underflow target frame")
		}
	}
	in := &v.fn.Code[pc]
	in.B = int32(arity)
	in.C = int64(f.startHeight)
	return f, nil
}

func (v *validator) checkFrameResults(f *ctrlFrame) error {
	if f.arity == 0 {
		return nil
	}
	if len(v.stack) < f.startHeight+f.arity {
		if f.unreachable {
			return nil
		}
		return fmt.Errorf("block must leave a %s on the stack", f.resultType)
	}
	top := v.stack[len(v.stack)-1]
	if top != f.resultType && top != unknownType {
		return fmt.Errorf("block result type %s, wanted %s", top, f.resultType)
	}
	return nil
}

func (v *validator) step(pc int) error {
	in := &v.fn.Code[pc]
	switch in.Op {
	case OpNop:
		return nil
	case OpUnreachable:
		v.markUnreachable()
		return nil

	case OpBlock, OpLoop, OpIf:
		if in.Op == OpIf {
			if err := v.pop(I32); err != nil {
				return err
			}
		}
		f := ctrlFrame{
			op:          in.Op,
			startHeight: len(v.stack),
			arity:       int(in.B),
			resultType:  ValueType(in.C),
			ifPC:        pc,
		}
		if in.Op == OpLoop {
			f.loopStart = int32(pc + 1)
		}
		v.ctrl = append(v.ctrl, f)
		// Blocks and loops are no-ops at runtime.
		in.A, in.B, in.C = 0, 0, 0
		return nil

	case OpElse:
		f := &v.ctrl[len(v.ctrl)-1]
		if f.op != OpIf || f.hasElse {
			return fmt.Errorf("else outside if")
		}
		if !f.unreachable {
			if err := v.checkFrameResults(f); err != nil {
				return err
			}
			if len(v.stack) != f.startHeight+f.arity {
				return fmt.Errorf("then branch leaves wrong stack height")
			}
		}
		f.hasElse = true
		f.unreachable = false
		v.stack = v.stack[:f.startHeight]
		// The If's false-jump lands just after this Else; the Else itself
		// (reached by falling out of the then branch) jumps to the end.
		// Earlier br patches targeting this frame are preserved.
		v.fn.Code[f.ifPC].A = int32(pc + 1)
		f.patchInstrs = append(f.patchInstrs, pc)
		return nil

	case OpEnd:
		if len(v.ctrl) <= 1 {
			return fmt.Errorf("end without open block")
		}
		f := v.ctrl[len(v.ctrl)-1]
		if !f.unreachable {
			if err := v.checkFrameResults(&f); err != nil {
				return err
			}
			if len(v.stack) != f.startHeight+f.arity {
				return fmt.Errorf("block leaves %d extra values", len(v.stack)-f.startHeight-f.arity)
			}
		}
		if f.op == OpIf && !f.hasElse && f.arity != 0 {
			return fmt.Errorf("if with a result must have an else branch")
		}
		endPC := int32(pc) // End is a runtime no-op; landing on it is fine
		if f.op == OpIf && !f.hasElse {
			v.fn.Code[f.ifPC].A = endPC // condition-false jump skips the body
		}
		for _, i := range f.patchInstrs {
			v.fn.Code[i].A = endPC
		}
		for _, tp := range f.patchTables {
			v.fn.BrTables[tp.table][tp.entry].PC = endPC
		}
		v.ctrl = v.ctrl[:len(v.ctrl)-1]
		// The frame's results become available to the enclosing frame.
		v.stack = v.stack[:f.startHeight]
		if f.arity == 1 {
			v.push(f.resultType)
		}
		return nil

	case OpBr:
		d := in.A
		f, err := v.checkBranch(d, pc)
		if err != nil {
			return err
		}
		if f.op == OpLoop {
			in.A = f.loopStart
		} else {
			f.patchInstrs = append(f.patchInstrs, pc)
		}
		v.markUnreachable()
		return nil

	case OpBrIf:
		if err := v.pop(I32); err != nil {
			return err
		}
		d := in.A
		f, err := v.checkBranch(d, pc)
		if err != nil {
			return err
		}
		if f.op == OpLoop {
			in.A = f.loopStart
		} else {
			f.patchInstrs = append(f.patchInstrs, pc)
		}
		// Fall-through keeps the stack: br_if peeks, it does not consume the
		// label values.
		return nil

	case OpBrTable:
		if err := v.pop(I32); err != nil {
			return err
		}
		ti := int(in.A)
		if ti < 0 || ti >= len(v.fn.BrTables) {
			return fmt.Errorf("invalid br_table index %d", ti)
		}
		targets := v.fn.BrTables[ti]
		wantArity := -1
		for ei := range targets {
			d := targets[ei].PC // still a depth here
			if int(d) >= len(v.ctrl) {
				return fmt.Errorf("br_table depth %d exceeds nesting", d)
			}
			f := &v.ctrl[len(v.ctrl)-1-int(d)]
			arity, rt := labelArity(f)
			if wantArity == -1 {
				wantArity = arity
			} else if arity != wantArity {
				return fmt.Errorf("br_table labels have mismatched arities")
			}
			cur := &v.ctrl[len(v.ctrl)-1]
			if !cur.unreachable && arity == 1 {
				if len(v.stack) < 1 {
					return fmt.Errorf("br_table wants a %s on the stack", rt)
				}
			}
			targets[ei].Arity = int32(arity)
			targets[ei].Height = int32(f.startHeight)
			if f.op == OpLoop {
				targets[ei].PC = f.loopStart
			} else {
				f.patchTables = append(f.patchTables, tablePatch{table: ti, entry: ei})
			}
		}
		v.markUnreachable()
		return nil

	case OpReturn:
		root := &v.ctrl[0]
		cur := &v.ctrl[len(v.ctrl)-1]
		if !cur.unreachable && root.arity == 1 {
			if len(v.stack) < 1 {
				return fmt.Errorf("return wants a %s", root.resultType)
			}
			top := v.stack[len(v.stack)-1]
			if top != root.resultType && top != unknownType {
				return fmt.Errorf("return type %s, wanted %s", top, root.resultType)
			}
		}
		in.B = int32(root.arity)
		v.markUnreachable()
		return nil

	case OpCall:
		ft, err := v.m.FuncTypeAt(int(in.A))
		if err != nil {
			return err
		}
		return v.applyCall(ft)

	case OpCallIndirect:
		if v.m.Table == nil {
			return fmt.Errorf("call_indirect without a table")
		}
		if int(in.A) < 0 || int(in.A) >= len(v.m.Types) {
			return fmt.Errorf("call_indirect references invalid type %d", in.A)
		}
		if err := v.pop(I32); err != nil {
			return err
		}
		return v.applyCall(v.m.Types[in.A])

	case OpDrop:
		_, err := v.popAny()
		return err

	case OpSelect:
		if err := v.pop(I32); err != nil {
			return err
		}
		b, err := v.popAny()
		if err != nil {
			return err
		}
		a, err := v.popAny()
		if err != nil {
			return err
		}
		if a != b && a != unknownType && b != unknownType {
			return fmt.Errorf("select operands disagree: %s vs %s", a, b)
		}
		if a == unknownType {
			a = b
		}
		v.push(a)
		return nil

	case OpLocalGet:
		t, err := v.localType(in.A)
		if err != nil {
			return err
		}
		v.push(t)
		return nil
	case OpLocalSet:
		t, err := v.localType(in.A)
		if err != nil {
			return err
		}
		return v.pop(t)
	case OpLocalTee:
		t, err := v.localType(in.A)
		if err != nil {
			return err
		}
		if err := v.pop(t); err != nil {
			return err
		}
		v.push(t)
		return nil
	case OpGlobalGet:
		g, err := v.globalAt(in.A)
		if err != nil {
			return err
		}
		v.push(g.Type)
		return nil
	case OpGlobalSet:
		g, err := v.globalAt(in.A)
		if err != nil {
			return err
		}
		if !g.Mutable {
			return fmt.Errorf("global %d is immutable", in.A)
		}
		return v.pop(g.Type)

	case OpMemorySize:
		if err := v.needMemory(); err != nil {
			return err
		}
		v.push(I32)
		return nil
	case OpMemoryGrow:
		if err := v.needMemory(); err != nil {
			return err
		}
		if err := v.pop(I32); err != nil {
			return err
		}
		v.push(I32)
		return nil
	case OpMemoryCopy, OpMemoryFill:
		if err := v.needMemory(); err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			if err := v.pop(I32); err != nil {
				return err
			}
		}
		return nil
	}

	// Memory access instructions.
	if isMemoryAccess(in.Op) {
		if err := v.needMemory(); err != nil {
			return err
		}
		if lt, ok := loadType(in.Op); ok {
			if err := v.pop(I32); err != nil {
				return err
			}
			v.push(lt)
			return nil
		}
		if st, ok := storeType(in.Op); ok {
			if err := v.pop(st); err != nil {
				return err
			}
			return v.pop(I32)
		}
	}

	// Constants and pure numeric operations via the signature table.
	if sig, ok := opSignatures[in.Op]; ok {
		for i := len(sig.in) - 1; i >= 0; i-- {
			if err := v.pop(sig.in[i]); err != nil {
				return err
			}
		}
		for _, t := range sig.out {
			v.push(t)
		}
		return nil
	}
	return fmt.Errorf("unknown opcode %d", in.Op)
}

func (v *validator) applyCall(ft FuncType) error {
	for i := len(ft.Params) - 1; i >= 0; i-- {
		if err := v.pop(ft.Params[i]); err != nil {
			return err
		}
	}
	for _, r := range ft.Results {
		v.push(r)
	}
	return nil
}

func (v *validator) localType(i int32) (ValueType, error) {
	if i < 0 || int(i) >= len(v.locals) {
		return 0, fmt.Errorf("local %d out of range (have %d)", i, len(v.locals))
	}
	return v.locals[i], nil
}

func (v *validator) globalAt(i int32) (*Global, error) {
	if i < 0 || int(i) >= len(v.m.Globals) {
		return nil, fmt.Errorf("global %d out of range", i)
	}
	return &v.m.Globals[i], nil
}

func (v *validator) needMemory() error {
	if v.m.MemMin == 0 {
		return fmt.Errorf("instruction requires a memory")
	}
	return nil
}

func loadType(op Op) (ValueType, bool) {
	switch op {
	case OpI32Load, OpI32Load8S, OpI32Load8U, OpI32Load16S, OpI32Load16U:
		return I32, true
	case OpI64Load, OpI64Load32S, OpI64Load32U:
		return I64, true
	case OpF32Load:
		return F32, true
	case OpF64Load:
		return F64, true
	}
	return 0, false
}

func storeType(op Op) (ValueType, bool) {
	switch op {
	case OpI32Store, OpI32Store8, OpI32Store16:
		return I32, true
	case OpI64Store, OpI64Store32:
		return I64, true
	case OpF32Store:
		return F32, true
	case OpF64Store:
		return F64, true
	}
	return 0, false
}

type opSig struct {
	in  []ValueType
	out []ValueType
}

var opSignatures = buildOpSignatures()

func buildOpSignatures() map[Op]opSig {
	s := map[Op]opSig{
		OpI32Const: {nil, []ValueType{I32}},
		OpI64Const: {nil, []ValueType{I64}},
		OpF32Const: {nil, []ValueType{F32}},
		OpF64Const: {nil, []ValueType{F64}},

		OpI32Eqz: {[]ValueType{I32}, []ValueType{I32}},
		OpI64Eqz: {[]ValueType{I64}, []ValueType{I32}},

		OpI32WrapI64:        {[]ValueType{I64}, []ValueType{I32}},
		OpI64ExtendI32S:     {[]ValueType{I32}, []ValueType{I64}},
		OpI64ExtendI32U:     {[]ValueType{I32}, []ValueType{I64}},
		OpI32TruncF64S:      {[]ValueType{F64}, []ValueType{I32}},
		OpI32TruncF64U:      {[]ValueType{F64}, []ValueType{I32}},
		OpI64TruncF64S:      {[]ValueType{F64}, []ValueType{I64}},
		OpI64TruncF64U:      {[]ValueType{F64}, []ValueType{I64}},
		OpI32TruncF32S:      {[]ValueType{F32}, []ValueType{I32}},
		OpI32TruncF32U:      {[]ValueType{F32}, []ValueType{I32}},
		OpF64ConvertI32S:    {[]ValueType{I32}, []ValueType{F64}},
		OpF64ConvertI32U:    {[]ValueType{I32}, []ValueType{F64}},
		OpF64ConvertI64S:    {[]ValueType{I64}, []ValueType{F64}},
		OpF64ConvertI64U:    {[]ValueType{I64}, []ValueType{F64}},
		OpF32ConvertI32S:    {[]ValueType{I32}, []ValueType{F32}},
		OpF32ConvertI64S:    {[]ValueType{I64}, []ValueType{F32}},
		OpF64PromoteF32:     {[]ValueType{F32}, []ValueType{F64}},
		OpF32DemoteF64:      {[]ValueType{F64}, []ValueType{F32}},
		OpI32ReinterpretF32: {[]ValueType{F32}, []ValueType{I32}},
		OpI64ReinterpretF64: {[]ValueType{F64}, []ValueType{I64}},
		OpF32ReinterpretI32: {[]ValueType{I32}, []ValueType{F32}},
		OpF64ReinterpretI64: {[]ValueType{I64}, []ValueType{F64}},
	}
	// i32 comparisons (binary, result i32).
	for op := OpI32Eq; op <= OpI32GeU; op++ {
		s[op] = opSig{[]ValueType{I32, I32}, []ValueType{I32}}
	}
	// i32 unary.
	for _, op := range []Op{OpI32Clz, OpI32Ctz, OpI32Popcnt} {
		s[op] = opSig{[]ValueType{I32}, []ValueType{I32}}
	}
	// i32 binary arithmetic.
	for op := OpI32Add; op <= OpI32Rotr; op++ {
		s[op] = opSig{[]ValueType{I32, I32}, []ValueType{I32}}
	}
	// i64 comparisons produce i32.
	for op := OpI64Eq; op <= OpI64GeU; op++ {
		s[op] = opSig{[]ValueType{I64, I64}, []ValueType{I32}}
	}
	for _, op := range []Op{OpI64Clz, OpI64Ctz, OpI64Popcnt} {
		s[op] = opSig{[]ValueType{I64}, []ValueType{I64}}
	}
	for op := OpI64Add; op <= OpI64Rotr; op++ {
		s[op] = opSig{[]ValueType{I64, I64}, []ValueType{I64}}
	}
	// f64 comparisons produce i32.
	for op := OpF64Eq; op <= OpF64Ge; op++ {
		s[op] = opSig{[]ValueType{F64, F64}, []ValueType{I32}}
	}
	for op := OpF64Abs; op <= OpF64Sqrt; op++ {
		s[op] = opSig{[]ValueType{F64}, []ValueType{F64}}
	}
	for op := OpF64Add; op <= OpF64Copysign; op++ {
		s[op] = opSig{[]ValueType{F64, F64}, []ValueType{F64}}
	}
	// f32.
	for op := OpF32Eq; op <= OpF32Ge; op++ {
		s[op] = opSig{[]ValueType{F32, F32}, []ValueType{I32}}
	}
	for _, op := range []Op{OpF32Abs, OpF32Neg, OpF32Sqrt} {
		s[op] = opSig{[]ValueType{F32}, []ValueType{F32}}
	}
	for op := OpF32Add; op <= OpF32Max; op++ {
		s[op] = opSig{[]ValueType{F32, F32}, []ValueType{F32}}
	}
	// f64.neg is in the unary range already (OpF64Abs..OpF64Sqrt covers Neg).
	return s
}
