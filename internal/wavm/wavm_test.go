package wavm

import (
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"faasm.dev/faasm/internal/wamem"
)

// run assembles, validates, instantiates and calls fn with args.
func run(t *testing.T, src, fn string, args ...uint64) []uint64 {
	t.Helper()
	inst := instance(t, src)
	res, err := inst.Call(fn, args...)
	if err != nil {
		t.Fatalf("call %s: %v", fn, err)
	}
	return res
}

// instance assembles src and instantiates it for both engines (diff_test.go):
// every call a test makes through the result is checked against the
// reference engine as well as against the test's own expectation.
func instance(t *testing.T, src string) *pair {
	t.Helper()
	mod, err := AssembleAndValidate(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	inst, err := newPair(t, mod, nil, nil)
	if err != nil {
		t.Fatalf("instantiate: %v", err)
	}
	return inst
}

func TestArithmetic(t *testing.T) {
	src := `(module
	  (func $add (export "add") (param $a i32) (param $b i32) (result i32)
	    local.get $a
	    local.get $b
	    i32.add))`
	res := run(t, src, "add", EncodeI32(2), EncodeI32(40))
	if DecodeI32(res[0]) != 42 {
		t.Fatalf("2+40 = %d", DecodeI32(res[0]))
	}
}

func TestSignedArithmetic(t *testing.T) {
	src := `(module
	  (func $f (export "f") (param i32 i32) (result i32)
	    local.get 0
	    local.get 1
	    i32.div_s))`
	res := run(t, src, "f", EncodeI32(-7), EncodeI32(2))
	if DecodeI32(res[0]) != -3 {
		t.Fatalf("-7/2 = %d", DecodeI32(res[0]))
	}
}

func TestF64(t *testing.T) {
	src := `(module
	  (func $hyp (export "hyp") (param $a f64) (param $b f64) (result f64)
	    local.get $a
	    local.get $a
	    f64.mul
	    local.get $b
	    local.get $b
	    f64.mul
	    f64.add
	    f64.sqrt))`
	res := run(t, src, "hyp", EncodeF64(3), EncodeF64(4))
	if DecodeF64(res[0]) != 5 {
		t.Fatalf("hyp(3,4) = %v", DecodeF64(res[0]))
	}
}

func TestLoopSum(t *testing.T) {
	// sum 1..n with a loop and branches.
	src := `(module
	  (func $sum (export "sum") (param $n i32) (result i32) (local $i i32) (local $acc i32)
	    block $exit
	      loop $top
	        local.get $i
	        local.get $n
	        i32.ge_s
	        br_if $exit
	        local.get $i
	        i32.const 1
	        i32.add
	        local.tee $i
	        local.get $acc
	        i32.add
	        local.set $acc
	        br $top
	      end
	    end
	    local.get $acc))`
	res := run(t, src, "sum", EncodeI32(10))
	if DecodeI32(res[0]) != 55 {
		t.Fatalf("sum(10) = %d", DecodeI32(res[0]))
	}
}

func TestIfElse(t *testing.T) {
	src := `(module
	  (func $abs (export "abs") (param $x i32) (result i32)
	    local.get $x
	    i32.const 0
	    i32.lt_s
	    if (result i32)
	      i32.const 0
	      local.get $x
	      i32.sub
	    else
	      local.get $x
	    end))`
	if got := DecodeI32(run(t, src, "abs", EncodeI32(-9))[0]); got != 9 {
		t.Fatalf("abs(-9) = %d", got)
	}
	if got := DecodeI32(run(t, src, "abs", EncodeI32(7))[0]); got != 7 {
		t.Fatalf("abs(7) = %d", got)
	}
}

func TestIfWithoutElse(t *testing.T) {
	src := `(module
	  (func $f (export "f") (param $x i32) (result i32) (local $r i32)
	    i32.const 1
	    local.set $r
	    local.get $x
	    if
	      i32.const 99
	      local.set $r
	    end
	    local.get $r))`
	if got := DecodeI32(run(t, src, "f", EncodeI32(1))[0]); got != 99 {
		t.Fatalf("taken if = %d", got)
	}
	if got := DecodeI32(run(t, src, "f", EncodeI32(0))[0]); got != 1 {
		t.Fatalf("skipped if = %d", got)
	}
}

func TestBrInsideIfTargetsIfFrame(t *testing.T) {
	// A br inside the then-branch that targets the if's own label must jump
	// past the else branch (regression test for branch patch bookkeeping).
	src := `(module
	  (func $f (export "f") (param $x i32) (result i32) (local $r i32)
	    local.get $x
	    if $lbl
	      i32.const 5
	      local.set $r
	      br $lbl
	    else
	      i32.const 6
	      local.set $r
	    end
	    local.get $r))`
	if got := DecodeI32(run(t, src, "f", EncodeI32(1))[0]); got != 5 {
		t.Fatalf("then with br = %d", got)
	}
	if got := DecodeI32(run(t, src, "f", EncodeI32(0))[0]); got != 6 {
		t.Fatalf("else = %d", got)
	}
}

func TestBrTable(t *testing.T) {
	src := `(module
	  (func $classify (export "classify") (param $x i32) (result i32)
	    block $c
	      block $b
	        block $a
	          local.get $x
	          br_table $a $b $c
	        end
	        i32.const 10
	        return
	      end
	      i32.const 20
	      return
	    end
	    i32.const 30))`
	for _, tc := range []struct{ in, out int32 }{{0, 10}, {1, 20}, {2, 30}, {99, 30}} {
		if got := DecodeI32(run(t, src, "classify", EncodeI32(tc.in))[0]); got != tc.out {
			t.Fatalf("classify(%d) = %d, want %d", tc.in, got, tc.out)
		}
	}
}

func TestBlockResultAndBranchValue(t *testing.T) {
	src := `(module
	  (func $f (export "f") (param $x i32) (result i32)
	    block $b (result i32)
	      local.get $x
	      local.get $x
	      br_if $b
	      drop
	      i32.const -1
	    end))`
	if got := DecodeI32(run(t, src, "f", EncodeI32(42))[0]); got != 42 {
		t.Fatalf("br_if value = %d", got)
	}
	if got := DecodeI32(run(t, src, "f", EncodeI32(0))[0]); got != -1 {
		t.Fatalf("fallthrough = %d", got)
	}
}

func TestCallAndRecursion(t *testing.T) {
	src := `(module
	  (func $fib (export "fib") (param $n i32) (result i32)
	    local.get $n
	    i32.const 2
	    i32.lt_s
	    if (result i32)
	      local.get $n
	    else
	      local.get $n
	      i32.const 1
	      i32.sub
	      call $fib
	      local.get $n
	      i32.const 2
	      i32.sub
	      call $fib
	      i32.add
	    end))`
	if got := DecodeI32(run(t, src, "fib", EncodeI32(15))[0]); got != 610 {
		t.Fatalf("fib(15) = %d", got)
	}
}

func TestCallIndirect(t *testing.T) {
	src := `(module
	  (table (elem $double $square))
	  (func $double (param $x i32) (result i32)
	    local.get $x i32.const 2 i32.mul)
	  (func $square (param $x i32) (result i32)
	    local.get $x local.get $x i32.mul)
	  (func $apply (export "apply") (param $f i32) (param $x i32) (result i32)
	    local.get $x
	    local.get $f
	    call_indirect (param i32) (result i32)))`
	if got := DecodeI32(run(t, src, "apply", EncodeI32(0), EncodeI32(21))[0]); got != 42 {
		t.Fatalf("double(21) = %d", got)
	}
	if got := DecodeI32(run(t, src, "apply", EncodeI32(1), EncodeI32(6))[0]); got != 36 {
		t.Fatalf("square(6) = %d", got)
	}
}

func TestCallIndirectTraps(t *testing.T) {
	src := `(module
	  (table (elem $noop))
	  (func $noop)
	  (func $apply (export "apply") (param $f i32) (result i32)
	    i32.const 1
	    local.get $f
	    call_indirect (param i32) (result i32)))`
	inst := instance(t, src)
	// Out-of-range element.
	_, err := inst.Call("apply", EncodeI32(5))
	assertTrap(t, err, TrapUndefinedElement)
	// Type mismatch: $noop has the wrong signature.
	_, err = inst.Call("apply", EncodeI32(0))
	assertTrap(t, err, TrapIndirectTypeMismatch)
}

func assertTrap(t *testing.T, err error, kind TrapKind) {
	t.Helper()
	var tr *Trap
	if !errors.As(err, &tr) {
		t.Fatalf("expected trap %v, got %v", kind, err)
	}
	if tr.Kind != kind {
		t.Fatalf("trap kind = %v, want %v", tr.Kind, kind)
	}
}

func TestMemoryLoadStore(t *testing.T) {
	src := `(module
	  (memory 1)
	  (func $f (export "f") (param $addr i32) (param $v i64) (result i64)
	    local.get $addr
	    local.get $v
	    i64.store
	    local.get $addr
	    i64.load offset=0))`
	res := run(t, src, "f", EncodeI32(1024), 0xfeedface)
	if res[0] != 0xfeedface {
		t.Fatalf("load = %x", res[0])
	}
}

func TestMemoryOOBTraps(t *testing.T) {
	src := `(module
	  (memory 1 1)
	  (func $f (export "f") (param $addr i32) (result i32)
	    local.get $addr
	    i32.load))`
	inst := instance(t, src)
	_, err := inst.Call("f", EncodeI32(65536))
	assertTrap(t, err, TrapOutOfBounds)
	// Offset pushing past the end also traps (no wrap-around).
	_, err = inst.Call("f", EncodeI32(-4))
	assertTrap(t, err, TrapOutOfBounds)
}

func TestSubwordLoads(t *testing.T) {
	src := `(module
	  (memory 1)
	  (data (i32.const 0) "\80\ff")
	  (func $s8 (export "s8") (result i32) i32.const 0 i32.load8_s)
	  (func $u8 (export "u8") (result i32) i32.const 0 i32.load8_u)
	  (func $s16 (export "s16") (result i32) i32.const 0 i32.load16_s)
	  (func $u16 (export "u16") (result i32) i32.const 0 i32.load16_u))`
	inst := instance(t, src)
	check := func(fn string, want int32) {
		t.Helper()
		res, err := inst.Call(fn)
		if err != nil {
			t.Fatal(err)
		}
		if DecodeI32(res[0]) != want {
			t.Fatalf("%s = %d, want %d", fn, DecodeI32(res[0]), want)
		}
	}
	check("s8", -128)
	check("u8", 128)
	check("s16", -128) // 0xff80 sign-extended
	check("u16", 0xff80)
}

func TestMemoryGrowAndSize(t *testing.T) {
	src := `(module
	  (memory 1 2)
	  (func $grow (export "grow") (param $n i32) (result i32)
	    local.get $n
	    memory.grow)
	  (func $size (export "size") (result i32)
	    memory.size))`
	inst := instance(t, src)
	res, _ := inst.Call("size")
	if DecodeI32(res[0]) != 1 {
		t.Fatalf("initial size = %d", DecodeI32(res[0]))
	}
	res, _ = inst.Call("grow", EncodeI32(1))
	if DecodeI32(res[0]) != 1 {
		t.Fatalf("grow returned %d", DecodeI32(res[0]))
	}
	res, _ = inst.Call("grow", EncodeI32(1))
	if DecodeI32(res[0]) != -1 {
		t.Fatalf("grow past limit returned %d", DecodeI32(res[0]))
	}
}

func TestDivByZeroTraps(t *testing.T) {
	src := `(module
	  (func $f (export "f") (param i32 i32) (result i32)
	    local.get 0 local.get 1 i32.div_u))`
	inst := instance(t, src)
	_, err := inst.Call("f", EncodeI32(1), EncodeI32(0))
	assertTrap(t, err, TrapDivByZero)
}

func TestDivOverflowTraps(t *testing.T) {
	src := `(module
	  (func $f (export "f") (param i32 i32) (result i32)
	    local.get 0 local.get 1 i32.div_s))`
	inst := instance(t, src)
	_, err := inst.Call("f", EncodeI32(math.MinInt32), EncodeI32(-1))
	assertTrap(t, err, TrapIntOverflow)
}

func TestUnreachableTraps(t *testing.T) {
	src := `(module (func $f (export "f") unreachable))`
	inst := instance(t, src)
	_, err := inst.Call("f")
	assertTrap(t, err, TrapUnreachable)
}

func TestStackOverflowTraps(t *testing.T) {
	src := `(module (func $f (export "f") call $f))`
	inst := instance(t, src)
	_, err := inst.Call("f")
	assertTrap(t, err, TrapStackOverflow)
}

func TestFuelExhaustion(t *testing.T) {
	src := `(module
	  (func $spin (export "spin")
	    loop $l
	      br $l
	    end))`
	mod, err := AssembleAndValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := newPair(t, mod, nil, func() []InstanceOption { return []InstanceOption{WithFuel(10000)} })
	if err != nil {
		t.Fatal(err)
	}
	_, err = inst.Call("spin")
	assertTrap(t, err, TrapFuelExhausted)
	// The reference runs 10000 instructions and traps on the next; the
	// block-granular engine reports the same count.
	if inst.Steps() != 10001 || inst.low.Fuel != 0 {
		t.Fatalf("steps %d, fuel %d after exhausting 10000", inst.Steps(), inst.low.Fuel)
	}
}

func TestGlobals(t *testing.T) {
	src := `(module
	  (global $counter (mut i32) (i32.const 100))
	  (global $k f64 (f64.const 2.5))
	  (func $bump (export "bump") (result i32)
	    global.get $counter
	    i32.const 1
	    i32.add
	    global.set $counter
	    global.get $counter)
	  (func $k (export "k") (result f64)
	    global.get $k))`
	inst := instance(t, src)
	res, _ := inst.Call("bump")
	if DecodeI32(res[0]) != 101 {
		t.Fatalf("bump = %d", DecodeI32(res[0]))
	}
	res, _ = inst.Call("bump")
	if DecodeI32(res[0]) != 102 {
		t.Fatalf("bump 2 = %d", DecodeI32(res[0]))
	}
	res, _ = inst.Call("k")
	if DecodeF64(res[0]) != 2.5 {
		t.Fatalf("k = %v", DecodeF64(res[0]))
	}
}

func TestImmutableGlobalRejected(t *testing.T) {
	src := `(module
	  (global $k i32 (i32.const 1))
	  (func $f i32.const 2 global.set $k))`
	if _, err := AssembleAndValidate(src); err == nil {
		t.Fatal("validator accepted write to immutable global")
	}
}

func TestHostImports(t *testing.T) {
	src := `(module
	  (import "env" "mul3" (func $mul3 (param i32) (result i32)))
	  (func $f (export "f") (param $x i32) (result i32)
	    local.get $x
	    call $mul3))`
	mod, err := AssembleAndValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := newPair(t, mod, map[string]HostModule{
		"env": {
			"mul3": func(_ *Instance, args []uint64) ([]uint64, error) {
				return []uint64{EncodeI32(DecodeI32(args[0]) * 3)}, nil
			},
		},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Call("f", EncodeI32(14))
	if err != nil {
		t.Fatal(err)
	}
	if DecodeI32(res[0]) != 42 {
		t.Fatalf("host call = %d", DecodeI32(res[0]))
	}
}

func TestHostErrorBecomesTrap(t *testing.T) {
	src := `(module
	  (import "env" "boom" (func $boom))
	  (func $f (export "f") call $boom))`
	mod, _ := AssembleAndValidate(src)
	inst, err := newPair(t, mod, map[string]HostModule{
		"env": {"boom": func(_ *Instance, _ []uint64) ([]uint64, error) {
			return nil, errors.New("kaboom")
		}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = inst.Call("f")
	assertTrap(t, err, TrapHostError)
	if !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("cause lost: %v", err)
	}
}

func TestUnresolvedImportFails(t *testing.T) {
	src := `(module
	  (import "env" "missing" (func $m))
	  (func $f (export "f") call $m))`
	mod, _ := AssembleAndValidate(src)
	if _, err := Instantiate(mod, nil); err == nil {
		t.Fatal("missing import accepted")
	}
}

func TestDataSegmentsAndStart(t *testing.T) {
	src := `(module
	  (memory 1)
	  (data (i32.const 16) "faasm")
	  (global $ran (mut i32) (i32.const 0))
	  (func $init i32.const 1 global.set $ran)
	  (start $init)
	  (func $peek (export "peek") (param $a i32) (result i32)
	    local.get $a
	    i32.load8_u)
	  (func $ran (export "ran") (result i32) global.get $ran))`
	inst := instance(t, src)
	res, _ := inst.Call("peek", EncodeI32(16))
	if DecodeI32(res[0]) != 'f' {
		t.Fatalf("data byte = %c", DecodeI32(res[0]))
	}
	res, _ = inst.Call("ran")
	if DecodeI32(res[0]) != 1 {
		t.Fatal("start function did not run")
	}
}

func TestValidatorRejections(t *testing.T) {
	bad := []struct{ name, src string }{
		{"type mismatch", `(module (func $f (result i32) f64.const 1.0))`},
		{"stack underflow", `(module (func $f (result i32) i32.add))`},
		{"unbalanced push", `(module (func $f i32.const 1))`},
		{"bad local", `(module (func $f local.get 3 drop))`},
		{"bad branch depth", `(module (func $f br 2))`},
		{"memoryless load", `(module (func $f (result i32) i32.const 0 i32.load))`},
		{"if result without else", `(module (func $f (result i32) i32.const 1 if (result i32) i32.const 2 end))`},
		{"data outside memory", `(module (memory 1) (data (i32.const 65600) "xx"))`},
		{"call unknown", `(module (func $f call 9))`},
		{"select mismatch", `(module (func $f (result i32) i32.const 1 f64.const 2.0 i32.const 0 select drop i32.const 1))`},
	}
	for _, tc := range bad {
		if _, err := AssembleAndValidate(tc.src); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestUnvalidatedModuleRefused(t *testing.T) {
	mod, err := Assemble(`(module (func $f (export "f")))`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Instantiate(mod, nil); err == nil {
		t.Fatal("unvalidated module instantiated")
	}
	if _, err := EncodeObject(mod); err == nil {
		t.Fatal("unvalidated module encoded")
	}
}

func TestObjectRoundTrip(t *testing.T) {
	src := `(module
	  (memory 1)
	  (data (i32.const 8) "obj")
	  (global $g (mut i64) (i64.const 7))
	  (table (elem $f))
	  (func $f (export "f") (param $x i32) (result i32)
	    local.get $x
	    i32.const 8
	    i32.add))`
	mod, err := AssembleAndValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeObject(mod)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeObject(blob)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := newPair(t, back, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := inst.Call("f", EncodeI32(34))
	if err != nil {
		t.Fatal(err)
	}
	if DecodeI32(res[0]) != 42 {
		t.Fatalf("round-tripped call = %d", DecodeI32(res[0]))
	}
	if _, err := DecodeObject([]byte("junk")); err == nil {
		t.Fatal("junk accepted as object")
	}
}

func TestWithMemoryBindsRestoredSnapshot(t *testing.T) {
	src := `(module
	  (memory 1)
	  (func $get (export "get") (result i32)
	    i32.const 0
	    i32.load))`
	mod, err := AssembleAndValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	mem := wamem.MustNew(1, 0)
	mem.WriteU32(0, 777)
	snap := mem.Snapshot()
	inst, err := newPair(t, mod, nil, func() []InstanceOption { return []InstanceOption{WithMemory(snap.Restore())} })
	if err != nil {
		t.Fatal(err)
	}
	res, _ := inst.Call("get")
	if DecodeI32(res[0]) != 777 {
		t.Fatalf("restored memory read = %d", DecodeI32(res[0]))
	}
}

func TestSelectAndDrop(t *testing.T) {
	src := `(module
	  (func $f (export "f") (param $c i32) (result i32)
	    i32.const 10
	    i32.const 20
	    local.get $c
	    select))`
	if got := DecodeI32(run(t, src, "f", EncodeI32(1))[0]); got != 10 {
		t.Fatalf("select(1) = %d", got)
	}
	if got := DecodeI32(run(t, src, "f", EncodeI32(0))[0]); got != 20 {
		t.Fatalf("select(0) = %d", got)
	}
}

func TestConversions(t *testing.T) {
	src := `(module
	  (func $t (export "t") (param $x f64) (result i32)
	    local.get $x
	    i32.trunc_f64_s)
	  (func $c (export "c") (param $x i32) (result f64)
	    local.get $x
	    f64.convert_i32_s)
	  (func $w (export "w") (param $x i64) (result i32)
	    local.get $x
	    i32.wrap_i64))`
	inst := instance(t, src)
	res, _ := inst.Call("t", EncodeF64(-3.7))
	if DecodeI32(res[0]) != -3 {
		t.Fatalf("trunc(-3.7) = %d", DecodeI32(res[0]))
	}
	res, _ = inst.Call("c", EncodeI32(-5))
	if DecodeF64(res[0]) != -5.0 {
		t.Fatalf("convert(-5) = %v", DecodeF64(res[0]))
	}
	res, _ = inst.Call("w", uint64(0x1_0000_002A))
	if DecodeI32(res[0]) != 42 {
		t.Fatalf("wrap = %d", DecodeI32(res[0]))
	}
	_, err := inst.Call("t", EncodeF64(math.NaN()))
	assertTrap(t, err, TrapInvalidConversion)
	_, err = inst.Call("t", EncodeF64(1e300))
	assertTrap(t, err, TrapInvalidConversion)
}

func TestMemoryCopyFill(t *testing.T) {
	src := `(module
	  (memory 1)
	  (data (i32.const 0) "abcdef")
	  (func $cp (export "cp")
	    i32.const 100  ;; dst
	    i32.const 0    ;; src
	    i32.const 6    ;; len
	    memory.copy)
	  (func $fill (export "fill")
	    i32.const 200
	    i32.const 42
	    i32.const 8
	    memory.fill)
	  (func $peek (export "peek") (param $a i32) (result i32)
	    local.get $a
	    i32.load8_u))`
	inst := instance(t, src)
	if _, err := inst.Call("cp"); err != nil {
		t.Fatal(err)
	}
	res, _ := inst.Call("peek", EncodeI32(105))
	if DecodeI32(res[0]) != 'f' {
		t.Fatalf("copy byte = %c", DecodeI32(res[0]))
	}
	if _, err := inst.Call("fill"); err != nil {
		t.Fatal(err)
	}
	res, _ = inst.Call("peek", EncodeI32(207))
	if DecodeI32(res[0]) != 42 {
		t.Fatalf("fill byte = %d", DecodeI32(res[0]))
	}
}

// TestMemoryFillChecksBoundsBeforeAllocating: memory.fill with a non-zero
// byte used to build its n-byte pattern — n chosen by the guest, up to
// 4 GiB — before checking that the range was in bounds, so one instruction
// in an uploaded module could make the host allocate 4 GiB to discover a
// trap. The fill and the copy now check first and work in place.
func TestMemoryFillChecksBoundsBeforeAllocating(t *testing.T) {
	mod, err := AssembleAndValidate(`(module
	  (memory 1)
	  (func (export "fill") (param $n i32)
	    i32.const 0 i32.const 171 local.get $n memory.fill)
	  (func (export "copy") (param $n i32)
	    i32.const 8 i32.const 0 local.get $n memory.copy))`)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Instantiate(mod, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []string{"fill", "copy"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := inst.Call(fn, EncodeI32(-1)) // n = 0xFFFFFFFF
		runtime.ReadMemStats(&after)
		assertTrap(t, err, TrapOutOfBounds)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("an out-of-bounds %s of 4 GiB allocated %d bytes before trapping", fn, grew)
		}
	}
	// In bounds, neither allocates beyond the page it touches.
	if _, err := inst.Call("fill", EncodeI32(40000)); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		inst.Call("fill", EncodeI32(40000))
		inst.Call("copy", EncodeI32(40000))
	}); n > 2 {
		t.Fatalf("in-place fill and copy cost %v allocations", n)
	}
}

func TestRotates(t *testing.T) {
	src := `(module
	  (func $rotl (export "rotl") (param i32 i32) (result i32)
	    local.get 0 local.get 1 i32.rotl))`
	res := run(t, src, "rotl", EncodeI32(1), EncodeI32(33))
	if uint32(res[0]) != 2 {
		t.Fatalf("rotl(1,33) = %d", uint32(res[0]))
	}
}

func TestTextErrors(t *testing.T) {
	bad := []string{
		`(module (func $f (export "f") bogus.op))`,
		`(module (func $f br $nolabel))`,
		`(module (func $f local.get $nope))`,
		`(module (func $f (export 42)))`,
		`(module (unknownfield))`,
		`(module (func $f i32.const))`,
		`(module (memory))`,
		`(module (data (i32.const 0) "x"))`, // data without memory
		`(module (func $f block end end))`,
		`(module`,                      // unclosed
		`(module (func $f nop ; nop))`, // a lone ';' once hung the tokenizer
	}
	for i, src := range bad {
		if _, err := Assemble(src); err == nil {
			t.Errorf("case %d: assembler accepted %q", i, src)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	src := `(module
	  (memory 1)
	  (data (i32.const 0) "a\00b\ff\n\"\\")
	  (func $peek (export "peek") (param $a i32) (result i32)
	    local.get $a i32.load8_u))`
	inst := instance(t, src)
	want := []byte{'a', 0, 'b', 0xff, '\n', '"', '\\'}
	for i, w := range want {
		res, _ := inst.Call("peek", EncodeI32(int32(i)))
		if byte(res[0]) != w {
			t.Fatalf("byte %d = %#x, want %#x", i, byte(res[0]), w)
		}
	}
}

func TestWasmMinMaxNaN(t *testing.T) {
	if !math.IsNaN(wasmMin(math.NaN(), 1)) || !math.IsNaN(wasmMax(1, math.NaN())) {
		t.Fatal("NaN must propagate")
	}
	if !math.Signbit(wasmMin(math.Copysign(0, -1), 0)) {
		t.Fatal("min(-0,+0) must be -0")
	}
	if math.Signbit(wasmMax(math.Copysign(0, -1), 0)) {
		t.Fatal("max(-0,+0) must be +0")
	}
}

func BenchmarkInterpFib20(b *testing.B) {
	src := `(module
	  (func $fib (export "fib") (param $n i32) (result i32)
	    local.get $n
	    i32.const 2
	    i32.lt_s
	    if (result i32)
	      local.get $n
	    else
	      local.get $n i32.const 1 i32.sub call $fib
	      local.get $n i32.const 2 i32.sub call $fib
	      i32.add
	    end))`
	mod, err := AssembleAndValidate(src)
	if err != nil {
		b.Fatal(err)
	}
	inst, _ := Instantiate(mod, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Call("fib", EncodeI32(20)); err != nil {
			b.Fatal(err)
		}
	}
}
