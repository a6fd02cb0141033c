package wavm

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// Hooks for the external test package (package wavm_test), which can import
// the kernels and fcc packages without an import cycle. They are the only
// way out of this package to the reference engine, and exist only in test
// builds.

// Pair runs one module on the lowered and the reference engine in lock
// step; see pair.
type Pair = pair

// NewPair instantiates mod for both engines.
func NewPair(t testing.TB, mod *Module, imports map[string]HostModule, opts func() []InstanceOption) (*Pair, error) {
	t.Helper()
	return newPair(t, mod, imports, opts)
}

// DriveModule calls every export of mod on both engines; see driveModule.
func DriveModule(t testing.TB, mod *Module, fuel int64) { t.Helper(); driveModule(t, mod, fuel, 0, 0) }

// LoweredStats describes what lowering made of a module.
type LoweredStats struct {
	Source  int            // source instructions
	Lowered int            // lowered instructions, block headers included
	Bytes   int            // bytes of lowered code
	Ops     map[string]int // lowered instructions by name
}

// Lowered is a module's executable form.
type Lowered = lowered

// Lower lowers m from scratch, as Validate and DecodeObject do.
func Lower(m *Module) (*Lowered, error) { return lower(m) }

// Stats reports the size and instruction mix of l, lowered from m.
func (l *lowered) Stats(m *Module) LoweredStats {
	st := LoweredStats{Ops: map[string]int{}}
	for i := range m.Funcs {
		st.Source += len(m.Funcs[i].Code)
	}
	for _, f := range l.funcs {
		st.Lowered += len(f.code)
		for _, in := range f.code {
			st.Ops[lopName(in.op)]++
		}
	}
	st.Bytes = st.Lowered * int(unsafe.Sizeof(linstr{}))
	return st
}

var lopNames = map[lop]string{
	lCharge: "charge", lMov: "mov", lConst: "const", lBrZ: "br_z", lBrNZ: "br_nz",
	lI64LoadIdx: "i64.load[idx]", lI32MulAdd: "i32.mul+add", lF64AddMul: "f64.add+mul",
	lI32AddI: "i32.add imm", lI32MulI: "i32.mul imm", lI32AndI: "i32.and imm",
	lF64AddI: "f64.add imm", lF64MulI: "f64.mul imm", lF64DivI: "f64.div imm",
}

func lopName(op lop) string {
	switch {
	case op < 256:
		return Op(op).String()
	case lopNames[op] != "":
		return lopNames[op]
	case op >= lBrI32 && op < lBrI32I:
		return "br_if " + (OpI32Eq + Op(op-lBrI32)).String()
	case op >= lBrI32I && op < lBrI32I+10:
		return "br_if " + (OpI32Eq + Op(op-lBrI32I)).String() + " imm"
	}
	return fmt.Sprintf("lop(%d)", op)
}

// Dump lists the lowered code of module-defined function fi, one
// instruction a line.
func (l *lowered) Dump(fi int) string {
	var b strings.Builder
	for pc, in := range l.funcs[fi].code {
		fmt.Fprintf(&b, "%4d  %-22s a=%d b=%d c=%d imm=%#x\n", pc, lopName(in.op), in.a, in.b, in.c, in.imm)
	}
	return b.String()
}
