package wavm

// Op is a wavm opcode. The set mirrors the WebAssembly MVP instruction set
// (control flow, variables, linear-memory access, i32/i64/f32/f64 numerics
// and conversions); opcode values are internal to this VM.
type Op uint8

// Control flow.
const (
	OpUnreachable Op = iota
	OpNop
	OpBlock // A: end PC (resolved by validator)
	OpLoop
	OpIf   // A: PC to jump to when the condition is false (else body or end)
	OpElse // A: end PC (skip else body when falling out of the then body)
	OpEnd
	OpBr      // A: target PC, B: label arity, C: operand-stack height at label
	OpBrIf    // as OpBr, conditional
	OpBrTable // A: index into Function.BrTables
	OpReturn
	OpCall         // A: callee function index (imports first)
	OpCallIndirect // A: expected type index

	OpDrop
	OpSelect

	OpLocalGet  // A: local index
	OpLocalSet  // A: local index
	OpLocalTee  // A: local index
	OpGlobalGet // A: global index
	OpGlobalSet // A: global index
)

// Memory access. A holds the static offset added to the dynamic address.
const (
	OpI32Load Op = 32 + iota
	OpI64Load
	OpF32Load
	OpF64Load
	OpI32Load8S
	OpI32Load8U
	OpI32Load16S
	OpI32Load16U
	OpI64Load32S
	OpI64Load32U
	OpI32Store
	OpI64Store
	OpF32Store
	OpF64Store
	OpI32Store8
	OpI32Store16
	OpI64Store32
	OpMemorySize
	OpMemoryGrow
	OpMemoryCopy
	OpMemoryFill
)

// Constants. C holds the payload (sign-extended integer or float bits).
const (
	OpI32Const Op = 64 + iota
	OpI64Const
	OpF32Const
	OpF64Const
)

// i32 operations.
const (
	OpI32Eqz Op = 70 + iota
	OpI32Eq
	OpI32Ne
	OpI32LtS
	OpI32LtU
	OpI32GtS
	OpI32GtU
	OpI32LeS
	OpI32LeU
	OpI32GeS
	OpI32GeU
	OpI32Clz
	OpI32Ctz
	OpI32Popcnt
	OpI32Add
	OpI32Sub
	OpI32Mul
	OpI32DivS
	OpI32DivU
	OpI32RemS
	OpI32RemU
	OpI32And
	OpI32Or
	OpI32Xor
	OpI32Shl
	OpI32ShrS
	OpI32ShrU
	OpI32Rotl
	OpI32Rotr
)

// i64 operations.
const (
	OpI64Eqz Op = 100 + iota
	OpI64Eq
	OpI64Ne
	OpI64LtS
	OpI64LtU
	OpI64GtS
	OpI64GtU
	OpI64LeS
	OpI64LeU
	OpI64GeS
	OpI64GeU
	OpI64Clz
	OpI64Ctz
	OpI64Popcnt
	OpI64Add
	OpI64Sub
	OpI64Mul
	OpI64DivS
	OpI64DivU
	OpI64RemS
	OpI64RemU
	OpI64And
	OpI64Or
	OpI64Xor
	OpI64Shl
	OpI64ShrS
	OpI64ShrU
	OpI64Rotl
	OpI64Rotr
)

// f64 operations.
const (
	OpF64Eq Op = 130 + iota
	OpF64Ne
	OpF64Lt
	OpF64Gt
	OpF64Le
	OpF64Ge
	OpF64Abs
	OpF64Neg
	OpF64Ceil
	OpF64Floor
	OpF64Trunc
	OpF64Nearest
	OpF64Sqrt
	OpF64Add
	OpF64Sub
	OpF64Mul
	OpF64Div
	OpF64Min
	OpF64Max
	OpF64Copysign
)

// f32 operations.
const (
	OpF32Eq Op = 152 + iota
	OpF32Ne
	OpF32Lt
	OpF32Gt
	OpF32Le
	OpF32Ge
	OpF32Abs
	OpF32Neg
	OpF32Sqrt
	OpF32Add
	OpF32Sub
	OpF32Mul
	OpF32Div
	OpF32Min
	OpF32Max
)

// Conversions.
const (
	OpI32WrapI64 Op = 170 + iota
	OpI64ExtendI32S
	OpI64ExtendI32U
	OpI32TruncF64S
	OpI32TruncF64U
	OpI64TruncF64S
	OpI64TruncF64U
	OpI32TruncF32S
	OpI32TruncF32U
	OpF64ConvertI32S
	OpF64ConvertI32U
	OpF64ConvertI64S
	OpF64ConvertI64U
	OpF32ConvertI32S
	OpF32ConvertI64S
	OpF64PromoteF32
	OpF32DemoteF64
	OpI32ReinterpretF32
	OpI64ReinterpretF64
	OpF32ReinterpretI32
	OpF64ReinterpretI64
)

// Instr is one decoded source instruction. Immediates are pre-resolved by
// the validator (branch targets become absolute PCs), so lowering never
// re-derives control structure.
type Instr struct {
	Op Op
	A  int32
	B  int32
	C  int64
}

// BrTarget is one resolved br_table destination.
type BrTarget struct {
	PC     int32
	Arity  int32
	Height int32
}

var opNames = map[Op]string{
	OpUnreachable: "unreachable", OpNop: "nop", OpBlock: "block", OpLoop: "loop",
	OpIf: "if", OpElse: "else", OpEnd: "end", OpBr: "br", OpBrIf: "br_if",
	OpBrTable: "br_table", OpReturn: "return", OpCall: "call", OpCallIndirect: "call_indirect",
	OpDrop: "drop", OpSelect: "select",
	OpLocalGet: "local.get", OpLocalSet: "local.set", OpLocalTee: "local.tee",
	OpGlobalGet: "global.get", OpGlobalSet: "global.set",
	OpI32Load: "i32.load", OpI64Load: "i64.load", OpF32Load: "f32.load", OpF64Load: "f64.load",
	OpI32Load8S: "i32.load8_s", OpI32Load8U: "i32.load8_u",
	OpI32Load16S: "i32.load16_s", OpI32Load16U: "i32.load16_u",
	OpI64Load32S: "i64.load32_s", OpI64Load32U: "i64.load32_u",
	OpI32Store: "i32.store", OpI64Store: "i64.store", OpF32Store: "f32.store", OpF64Store: "f64.store",
	OpI32Store8: "i32.store8", OpI32Store16: "i32.store16", OpI64Store32: "i64.store32",
	OpMemorySize: "memory.size", OpMemoryGrow: "memory.grow",
	OpMemoryCopy: "memory.copy", OpMemoryFill: "memory.fill",
	OpI32Const: "i32.const", OpI64Const: "i64.const", OpF32Const: "f32.const", OpF64Const: "f64.const",
	OpI32Eqz: "i32.eqz", OpI32Eq: "i32.eq", OpI32Ne: "i32.ne",
	OpI32LtS: "i32.lt_s", OpI32LtU: "i32.lt_u", OpI32GtS: "i32.gt_s", OpI32GtU: "i32.gt_u",
	OpI32LeS: "i32.le_s", OpI32LeU: "i32.le_u", OpI32GeS: "i32.ge_s", OpI32GeU: "i32.ge_u",
	OpI32Clz: "i32.clz", OpI32Ctz: "i32.ctz", OpI32Popcnt: "i32.popcnt",
	OpI32Add: "i32.add", OpI32Sub: "i32.sub", OpI32Mul: "i32.mul",
	OpI32DivS: "i32.div_s", OpI32DivU: "i32.div_u", OpI32RemS: "i32.rem_s", OpI32RemU: "i32.rem_u",
	OpI32And: "i32.and", OpI32Or: "i32.or", OpI32Xor: "i32.xor",
	OpI32Shl: "i32.shl", OpI32ShrS: "i32.shr_s", OpI32ShrU: "i32.shr_u",
	OpI32Rotl: "i32.rotl", OpI32Rotr: "i32.rotr",
	OpI64Eqz: "i64.eqz", OpI64Eq: "i64.eq", OpI64Ne: "i64.ne",
	OpI64LtS: "i64.lt_s", OpI64LtU: "i64.lt_u", OpI64GtS: "i64.gt_s", OpI64GtU: "i64.gt_u",
	OpI64LeS: "i64.le_s", OpI64LeU: "i64.le_u", OpI64GeS: "i64.ge_s", OpI64GeU: "i64.ge_u",
	OpI64Clz: "i64.clz", OpI64Ctz: "i64.ctz", OpI64Popcnt: "i64.popcnt",
	OpI64Add: "i64.add", OpI64Sub: "i64.sub", OpI64Mul: "i64.mul",
	OpI64DivS: "i64.div_s", OpI64DivU: "i64.div_u", OpI64RemS: "i64.rem_s", OpI64RemU: "i64.rem_u",
	OpI64And: "i64.and", OpI64Or: "i64.or", OpI64Xor: "i64.xor",
	OpI64Shl: "i64.shl", OpI64ShrS: "i64.shr_s", OpI64ShrU: "i64.shr_u",
	OpI64Rotl: "i64.rotl", OpI64Rotr: "i64.rotr",
	OpF64Eq: "f64.eq", OpF64Ne: "f64.ne", OpF64Lt: "f64.lt", OpF64Gt: "f64.gt",
	OpF64Le: "f64.le", OpF64Ge: "f64.ge",
	OpF64Abs: "f64.abs", OpF64Neg: "f64.neg", OpF64Ceil: "f64.ceil", OpF64Floor: "f64.floor",
	OpF64Trunc: "f64.trunc", OpF64Nearest: "f64.nearest", OpF64Sqrt: "f64.sqrt",
	OpF64Add: "f64.add", OpF64Sub: "f64.sub", OpF64Mul: "f64.mul", OpF64Div: "f64.div",
	OpF64Min: "f64.min", OpF64Max: "f64.max", OpF64Copysign: "f64.copysign",
	OpF32Eq: "f32.eq", OpF32Ne: "f32.ne", OpF32Lt: "f32.lt", OpF32Gt: "f32.gt",
	OpF32Le: "f32.le", OpF32Ge: "f32.ge",
	OpF32Abs: "f32.abs", OpF32Neg: "f32.neg", OpF32Sqrt: "f32.sqrt",
	OpF32Add: "f32.add", OpF32Sub: "f32.sub", OpF32Mul: "f32.mul", OpF32Div: "f32.div",
	OpF32Min: "f32.min", OpF32Max: "f32.max",
	OpI32WrapI64: "i32.wrap_i64", OpI64ExtendI32S: "i64.extend_i32_s", OpI64ExtendI32U: "i64.extend_i32_u",
	OpI32TruncF64S: "i32.trunc_f64_s", OpI32TruncF64U: "i32.trunc_f64_u",
	OpI64TruncF64S: "i64.trunc_f64_s", OpI64TruncF64U: "i64.trunc_f64_u",
	OpI32TruncF32S: "i32.trunc_f32_s", OpI32TruncF32U: "i32.trunc_f32_u",
	OpF64ConvertI32S: "f64.convert_i32_s", OpF64ConvertI32U: "f64.convert_i32_u",
	OpF64ConvertI64S: "f64.convert_i64_s", OpF64ConvertI64U: "f64.convert_i64_u",
	OpF32ConvertI32S: "f32.convert_i32_s", OpF32ConvertI64S: "f32.convert_i64_s",
	OpF64PromoteF32: "f64.promote_f32", OpF32DemoteF64: "f32.demote_f64",
	OpI32ReinterpretF32: "i32.reinterpret_f32", OpI64ReinterpretF64: "i64.reinterpret_f64",
	OpF32ReinterpretI32: "f32.reinterpret_i32", OpF64ReinterpretI64: "f64.reinterpret_i64",
}

// opByName is the inverse of opNames, used by the text assembler.
var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, name := range opNames {
		m[name] = op
	}
	return m
}()

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return "op?"
}
