package wavm

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// cloneModule deep-copies what the tests below corrupt.
func cloneModule(m *Module) *Module {
	c := *m
	c.low = nil
	c.Funcs = make([]Function, len(m.Funcs))
	for i, f := range m.Funcs {
		f.Code = append([]Instr(nil), f.Code...)
		tables := make([][]BrTarget, len(f.BrTables))
		for j, t := range f.BrTables {
			tables[j] = append([]BrTarget(nil), t...)
		}
		f.BrTables = tables
		c.Funcs[i] = f
	}
	c.Table = append([]int32(nil), m.Table...)
	return &c
}

// runForged lowers a module nobody validated, as DecodeObject would on
// finding the flag set, and if lowering lets it through calls its exports.
// Nothing is expected of the results: the test is that lowering refuses the
// module or the executor stays inside its frame and its memory — a panic
// fails the run.
func runForged(t *testing.T, m *Module) {
	t.Helper()
	m.Validated = true
	if lowerInto(m) != nil {
		return
	}
	inst, err := Instantiate(m, diffHosts, WithFuel(3000), WithMaxCallDepth(16))
	if err != nil {
		return
	}
	for _, e := range m.Exports {
		ft, err := m.FuncTypeAt(e.Index)
		if e.Kind != ExportFunc || err != nil {
			continue
		}
		args := make([]uint64, len(ft.Params))
		for i, pt := range ft.Params {
			args[i] = argGrid[pt][(i+3)%len(argGrid[pt])]
		}
		inst.Call(e.Name, args...)
	}
}

// TestForgedValidatedFlag: code that never went through Validate — branch
// immediates still label depths, nothing type-checked — must not become
// executable by setting the flag.
func TestForgedValidatedFlag(t *testing.T) {
	for name, src := range watCorpus {
		m, err := Assemble(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runForged(t, m)
	}
	// The validator's own rejections, forced through.
	for _, src := range []string{
		`(module (func (export "f") (result i32) i32.add))`,
		`(module (func (export "f") local.get 3 drop))`,
		`(module (func (export "f") br 2))`,
		`(module (func (export "f") (result i32) i32.const 0 i32.load))`,
		`(module (func (export "f") call 9))`,
		`(module (func (export "f") i32.const 1))`,
		`(module (func (export "f") (result i32) i32.const 1 if (result i32) i32.const 2 end))`,
		`(module (func (export "f") (result i32) global.get 4))`,
	} {
		m, err := Assemble(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		// The flag alone gets nowhere: only Validate and DecodeObject lower.
		m.Validated = true
		if _, err := Instantiate(m, nil); err == nil {
			t.Errorf("forged module instantiated: %s", src)
		}
		if _, err := lower(m); err == nil {
			t.Errorf("forged module lowered: %s", src)
		}
		obj, err := EncodeObject(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeObject(obj); err == nil {
			t.Errorf("forged object decoded: %s", src)
		}
	}
}

// TestCorruptedValidatedCode flips immediates and opcodes in code that did
// validate — what a tampered object file would hold — and requires the same:
// an error from lowering, or execution that stays in bounds.
func TestCorruptedValidatedCode(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	interesting := []int64{-1, 0, 1, 2, 3, 7, 64, 1 << 16, 1<<31 - 1, -1 << 31, 1 << 40}
	refused := 0
	for name, src := range watCorpus {
		valid, err := AssembleAndValidate(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for round := 0; round < 400; round++ {
			m := cloneModule(valid)
			for hits := 1 + rng.Intn(3); hits > 0; hits-- {
				f := &m.Funcs[rng.Intn(len(m.Funcs))]
				if len(f.Code) == 0 {
					continue
				}
				in := &f.Code[rng.Intn(len(f.Code))]
				v := interesting[rng.Intn(len(interesting))]
				switch rng.Intn(6) {
				case 0:
					in.A = int32(v)
				case 1:
					in.B = int32(v)
				case 2:
					in.C = v
				case 3:
					in.Op = Op(rng.Intn(200))
				case 4:
					in.A += int32(rng.Intn(5) - 2)
				case 5:
					if len(f.BrTables) > 0 {
						tb := f.BrTables[rng.Intn(len(f.BrTables))]
						tb[rng.Intn(len(tb))] = BrTarget{PC: int32(v), Arity: int32(rng.Intn(3)), Height: int32(rng.Intn(4))}
					} else {
						f.Type = int(v)
					}
				}
			}
			if _, err := lower(m); err != nil {
				refused++
			}
			runForged(t, m)
		}
	}
	if refused == 0 {
		t.Fatal("lowering refused none of the corrupted modules")
	}
}

// TestLoweredFormIsSharedAndNeverSerialised pins where lowered code lives:
// built once by Validate, shared by instances, absent from object files,
// rebuilt by DecodeObject.
func TestLoweredFormIsSharedAndNeverSerialised(t *testing.T) {
	mod, err := AssembleAndValidate(watCorpus["calls"])
	if err != nil {
		t.Fatal(err)
	}
	if mod.low == nil {
		t.Fatal("Validate did not lower")
	}
	a, err := Instantiate(mod, diffHosts)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Instantiate(mod, diffHosts)
	if a.low != mod.low || b.low != mod.low {
		t.Fatal("instances do not share the module's lowered code")
	}
	obj, err := EncodeObject(mod)
	if err != nil {
		t.Fatal(err)
	}
	stripped := cloneModule(mod)
	bare, err := EncodeObject(stripped)
	if err != nil {
		t.Fatal(err)
	}
	if len(obj) != len(bare) {
		t.Fatalf("object is %d bytes with lowered code attached, %d without", len(obj), len(bare))
	}
	back, err := DecodeObject(obj)
	if err != nil {
		t.Fatal(err)
	}
	if back.low == nil || back.low == mod.low {
		t.Fatal("DecodeObject must lower the decoded module afresh")
	}
	// A tampered object is refused at decode, not at first call.
	evil := cloneModule(mod)
	evil.Funcs[0].Code[0] = Instr{Op: OpLocalGet, A: 1 << 20}
	if obj, err = EncodeObject(evil); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeObject(obj); err == nil || !strings.Contains(err.Error(), "lower") {
		t.Fatalf("tampered object decoded: %v", err)
	}
}

// TestRegisterFileStartsSmallAndGrows: an instance owns no registers until
// called, then exactly the entry function's frame; recursion grows the file
// and a frame that could never fit traps like any other stack overflow.
func TestRegisterFileStartsSmallAndGrows(t *testing.T) {
	mod, err := AssembleAndValidate(watCorpus["calls"])
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Instantiate(mod, diffHosts)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.regs) != 0 || cap(inst.frames) != 0 {
		t.Fatalf("fresh instance holds %d registers, %d frames", len(inst.regs), cap(inst.frames))
	}
	idx, _ := mod.ExportedFunc("fib")
	entry := inst.low.funcs[idx-len(mod.Imports)].nregs
	if _, err := inst.Call("fib", EncodeI32(1)); err != nil {
		t.Fatal(err)
	}
	if len(inst.regs) != entry {
		t.Fatalf("after a leaf call the file is %d registers, the entry frame %d", len(inst.regs), entry)
	}
	if res, err := inst.Call("deep", EncodeI32(200)); err != nil || DecodeI32(res[0]) != 200 {
		t.Fatalf("deep(200) = %v, %v", res, err)
	}
	if len(inst.regs) < 200 || len(inst.regs) > 200*8 {
		t.Fatalf("200 nested frames left a file of %d registers", len(inst.regs))
	}
	if inst.sp != 0 || len(inst.frames) != 0 {
		t.Fatalf("call left sp=%d, %d frames", inst.sp, len(inst.frames))
	}

	// 40000 locals a frame, recursing: the 4M-register cap comes first.
	fat := &Module{Start: -1, Types: []FuncType{{}}, Funcs: []Function{{
		Locals: make([]ValueType, 40000),
		Code:   []Instr{{Op: OpCall, A: 0}},
	}}, Exports: []Export{{Name: "f", Index: 0}}}
	if err := Validate(fat); err != nil {
		t.Fatal(err)
	}
	wide, err := Instantiate(fat, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = wide.Call("f")
	assertTrap(t, err, TrapStackOverflow)
	if len(wide.regs) > maxRegisters || wide.Steps >= DefaultMaxCallDepth {
		t.Fatalf("register file grew to %d over %d calls", len(wide.regs), wide.Steps)
	}
}

// TestHostReentry: a host function that calls back into the instance gets
// frames above the ones in flight, which are intact when it returns.
func TestHostReentry(t *testing.T) {
	src := `(module
	  (import "env" "again" (func $again (param i32) (result i32)))
	  (func $leaf (export "leaf") (param $x i32) (result i32) (local $pad i64)
	    local.get $x i32.const 1000 i32.add)
	  (func $outer (export "outer") (param $x i32) (result i32) (local $keep i32)
	    local.get $x i32.const 7 i32.mul local.set $keep
	    i32.const 5
	    local.get $x call $again
	    i32.add
	    local.get $keep i32.add))`
	mod, err := AssembleAndValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	depth := 0
	hosts := map[string]HostModule{"env": {"again": func(inst *Instance, a []uint64) ([]uint64, error) {
		depth++
		defer func() { depth-- }()
		if depth < 3 {
			return inst.Call("outer", EncodeI32(DecodeI32(a[0])+1))
		}
		if _, err := inst.Call("nope"); err == nil {
			return nil, errors.New("missing export called")
		}
		return inst.Call("leaf", a[0])
	}}}
	inst, err := Instantiate(mod, hosts)
	if err != nil {
		t.Fatal(err)
	}
	// outer(1) = 5 + outer(2) + 7; outer(2) = 5 + outer(3) + 14;
	// outer(3) = 5 + leaf(3) + 21 = 1029.
	res, err := inst.Call("outer", EncodeI32(1))
	if err != nil || DecodeI32(res[0]) != 1029+19+12 {
		t.Fatalf("outer(1) = %v, %v", res, err)
	}
	if inst.sp != 0 || len(inst.frames) != 0 {
		t.Fatalf("re-entrant call left sp=%d, %d frames", inst.sp, len(inst.frames))
	}
	// Nested entries count against the same depth limit.
	shallow, _ := Instantiate(mod, map[string]HostModule{"env": {"again": func(inst *Instance, a []uint64) ([]uint64, error) {
		return inst.Call("outer", a[0])
	}}}, WithMaxCallDepth(40))
	_, err = shallow.Call("outer", EncodeI32(1))
	assertTrap(t, err, TrapStackOverflow)
}

// TestHostResultCountIsChecked: a host function returning the wrong number
// of values is a host error, not a corrupted frame.
func TestHostResultCountIsChecked(t *testing.T) {
	mod, err := AssembleAndValidate(`(module
	  (import "env" "two" (func $two (result i32)))
	  (func (export "f") (result i32) call $two))`)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range [][]uint64{nil, {1, 2}} {
		p, err := newPair(t, mod, map[string]HostModule{"env": {
			"two": func(*Instance, []uint64) ([]uint64, error) { return res, nil },
		}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, err = p.Call("f")
		assertTrap(t, err, TrapHostError)
	}
}
