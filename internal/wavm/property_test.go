package wavm

import (
	"math"
	"testing"
	"testing/quick"
)

// binModule builds a module exposing one binary i32/i64 op.
func binModule(t *testing.T, ty, op string) *pair {
	t.Helper()
	src := `(module
	  (func $f (export "f") (param ` + ty + ` ` + ty + `) (result ` + ty + `)
	    local.get 0
	    local.get 1
	    ` + op + `))`
	return instance(t, src)
}

// TestPropertyI32ArithMatchesGo checks the interpreter against Go's own
// two's-complement semantics on random operands.
func TestPropertyI32ArithMatchesGo(t *testing.T) {
	cases := []struct {
		op string
		fn func(a, b int32) int32
	}{
		{"i32.add", func(a, b int32) int32 { return a + b }},
		{"i32.sub", func(a, b int32) int32 { return a - b }},
		{"i32.mul", func(a, b int32) int32 { return a * b }},
		{"i32.and", func(a, b int32) int32 { return a & b }},
		{"i32.or", func(a, b int32) int32 { return a | b }},
		{"i32.xor", func(a, b int32) int32 { return a ^ b }},
		{"i32.shl", func(a, b int32) int32 { return a << (uint32(b) & 31) }},
		{"i32.shr_s", func(a, b int32) int32 { return a >> (uint32(b) & 31) }},
	}
	for _, tc := range cases {
		inst := binModule(t, "i32", tc.op)
		f := func(a, b int32) bool {
			res, err := inst.Call("f", EncodeI32(a), EncodeI32(b))
			return err == nil && DecodeI32(res[0]) == tc.fn(a, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", tc.op, err)
		}
	}
}

// TestPropertyI64DivMatchesGo checks signed division including the
// trapping edges.
func TestPropertyI64DivMatchesGo(t *testing.T) {
	inst := binModule(t, "i64", "i64.div_s")
	f := func(a, b int64) bool {
		res, err := inst.Call("f", uint64(a), uint64(b))
		if b == 0 || (a == math.MinInt64 && b == -1) {
			return err != nil // must trap
		}
		return err == nil && int64(res[0]) == a/b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyF64ArithMatchesGo checks float ops bit-for-bit.
func TestPropertyF64ArithMatchesGo(t *testing.T) {
	cases := []struct {
		op string
		fn func(a, b float64) float64
	}{
		{"f64.add", func(a, b float64) float64 { return a + b }},
		{"f64.sub", func(a, b float64) float64 { return a - b }},
		{"f64.mul", func(a, b float64) float64 { return a * b }},
		{"f64.div", func(a, b float64) float64 { return a / b }},
	}
	for _, tc := range cases {
		inst := binModule(t, "f64", tc.op)
		f := func(a, b float64) bool {
			res, err := inst.Call("f", EncodeF64(a), EncodeF64(b))
			if err != nil {
				return false
			}
			want := tc.fn(a, b)
			got := DecodeF64(res[0])
			if math.IsNaN(want) {
				return math.IsNaN(got)
			}
			return math.Float64bits(got) == math.Float64bits(want)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", tc.op, err)
		}
	}
}

// TestPropertyMemoryNeverEscapes fires random addresses at a load/store
// module: every access either succeeds inside bounds or traps — it can
// never read or corrupt anything outside the one-page memory.
func TestPropertyMemoryNeverEscapes(t *testing.T) {
	inst := instance(t, `(module
	  (memory 1 1)
	  (func $poke (export "poke") (param $a i32) (param $v i32) (result i32)
	    local.get $a
	    local.get $v
	    i32.store
	    local.get $a
	    i32.load))`)
	const pageBytes = 65536
	f := func(addr uint32, v int32) bool {
		res, err := inst.Call("poke", EncodeI32(int32(addr)), EncodeI32(v))
		inBounds := addr <= pageBytes-4
		if inBounds {
			return err == nil && DecodeI32(res[0]) == v
		}
		return err != nil // must trap, never wrap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
