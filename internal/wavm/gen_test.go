package wavm

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// progGen writes random, well-typed text-format functions: expression trees
// interleaved with statements, so that operands sit pending on the stack
// while locals are overwritten, calls are made and branches are taken around
// them — the situations the lowering pass has to get right and a mutated
// hand-written module almost never produces. Programs may trap (division,
// unmasked addresses, conversions) and always terminate: loops count down a
// dedicated local.
type progGen struct {
	rng    *rand.Rand
	b      strings.Builder
	labels int      // labels opened so far, for unique names
	open   []string // the enclosing value-less blocks: what a br may name
	loops  int      // loop counter locals handed out
}

var genTypes = []string{"i32", "i64", "f64", "f32"}

// Locals by type: two parameters and two plain locals each.
func (g *progGen) local(t string) string {
	return fmt.Sprintf("$%s%d", t, g.rng.Intn(4))
}

func (g *progGen) emit(format string, args ...any) {
	fmt.Fprintf(&g.b, format+"\n", args...)
}

func (g *progGen) constant(t string) {
	ints := []int64{0, 1, -1, 2, 3, 8, 31, 32, 255, 4096, 65535, 1 << 31, -1 << 31}
	floats := []string{"0.0", "-0.0", "1.0", "-1.5", "0.25", "3.0", "1e10", "-3e38", "nan", "inf"}
	switch t {
	case "i32":
		g.emit("i32.const %d", int32(ints[g.rng.Intn(len(ints))]))
	case "i64":
		g.emit("i64.const %d", ints[g.rng.Intn(len(ints))]*int64(1+g.rng.Intn(3)))
	default:
		g.emit("%s.const %s", t, floats[g.rng.Intn(len(floats))])
	}
}

var (
	genIntBin   = []string{"add", "sub", "mul", "and", "or", "xor", "shl", "shr_s", "shr_u", "rotl", "rotr", "div_s", "div_u", "rem_s", "rem_u"}
	genIntCmp   = []string{"eq", "ne", "lt_s", "lt_u", "gt_s", "gt_u", "le_s", "le_u", "ge_s", "ge_u"}
	genFloatBin = []string{"add", "sub", "mul", "div", "min", "max"}
	genFloatCmp = []string{"eq", "ne", "lt", "gt", "le", "ge"}
)

func pick(rng *rand.Rand, s []string) string { return s[rng.Intn(len(s))] }

// expr leaves one value of type t on the stack.
func (g *progGen) expr(t string, depth int) {
	if depth <= 0 {
		if g.rng.Intn(3) == 0 {
			g.constant(t)
		} else {
			g.emit("local.get %s", g.local(t))
		}
		return
	}
	isInt := t == "i32" || t == "i64"
	switch g.rng.Intn(14) {
	case 0:
		g.constant(t)
	case 1:
		g.emit("local.get %s", g.local(t))
	case 2, 3: // binary, with statements run while the left operand waits
		g.expr(t, depth-1)
		if g.rng.Intn(3) == 0 {
			g.stmts(depth-1, 2)
		}
		g.expr(t, depth-1)
		if isInt {
			g.emit("%s.%s", t, pick(g.rng, genIntBin))
		} else if t == "f64" && g.rng.Intn(8) == 0 {
			g.emit("f64.copysign")
		} else {
			g.emit("%s.%s", t, pick(g.rng, genFloatBin))
		}
	case 4: // comparison, possibly negated
		if t != "i32" {
			g.expr(t, depth-1)
			return
		}
		ct := pick(g.rng, genTypes)
		g.expr(ct, depth-1)
		g.expr(ct, depth-1)
		if ct == "i32" || ct == "i64" {
			g.emit("%s.%s", ct, pick(g.rng, genIntCmp))
		} else {
			g.emit("%s.%s", ct, pick(g.rng, genFloatCmp))
		}
		for g.rng.Intn(3) == 0 {
			g.emit("i32.eqz")
		}
	case 5: // unary and conversions
		switch t {
		case "i32":
			switch g.rng.Intn(5) {
			case 0:
				g.expr("i64", depth-1)
				g.emit(pick(g.rng, []string{"i32.wrap_i64", "i64.eqz"}))
			case 1:
				g.expr("f64", depth-1)
				g.emit(pick(g.rng, []string{"i32.trunc_f64_s", "i32.trunc_f64_u"}))
			case 2:
				g.expr("f32", depth-1)
				g.emit(pick(g.rng, []string{"i32.trunc_f32_s", "i32.trunc_f32_u", "i32.reinterpret_f32"}))
			default:
				g.expr("i32", depth-1)
				g.emit(pick(g.rng, []string{"i32.clz", "i32.ctz", "i32.popcnt", "i32.eqz"}))
			}
		case "i64":
			switch g.rng.Intn(4) {
			case 0:
				g.expr("i32", depth-1)
				g.emit(pick(g.rng, []string{"i64.extend_i32_s", "i64.extend_i32_u"}))
			case 1:
				g.expr("f64", depth-1)
				g.emit(pick(g.rng, []string{"i64.trunc_f64_s", "i64.trunc_f64_u", "i64.reinterpret_f64"}))
			default:
				g.expr("i64", depth-1)
				g.emit(pick(g.rng, []string{"i64.clz", "i64.ctz", "i64.popcnt"}))
			}
		case "f64":
			switch g.rng.Intn(4) {
			case 0:
				g.expr("i32", depth-1)
				g.emit(pick(g.rng, []string{"f64.convert_i32_s", "f64.convert_i32_u"}))
			case 1:
				g.expr("i64", depth-1)
				g.emit(pick(g.rng, []string{"f64.convert_i64_s", "f64.convert_i64_u", "f64.reinterpret_i64"}))
			case 2:
				g.expr("f32", depth-1)
				g.emit("f64.promote_f32")
			default:
				g.expr("f64", depth-1)
				g.emit(pick(g.rng, []string{"f64.abs", "f64.neg", "f64.ceil", "f64.floor", "f64.trunc", "f64.nearest", "f64.sqrt"}))
			}
		default:
			switch g.rng.Intn(4) {
			case 0:
				g.expr("i32", depth-1)
				g.emit(pick(g.rng, []string{"f32.convert_i32_s", "f32.reinterpret_i32"}))
			case 1:
				g.expr("i64", depth-1)
				g.emit("f32.convert_i64_s")
			case 2:
				g.expr("f64", depth-1)
				g.emit("f32.demote_f64")
			default:
				g.expr("f32", depth-1)
				g.emit(pick(g.rng, []string{"f32.abs", "f32.neg", "f32.sqrt"}))
			}
		}
	case 6: // load, from a masked (in bounds, sometimes straddling) or a raw address
		g.address(depth - 1)
		loads := map[string][]string{
			"i32": {"i32.load", "i32.load8_s", "i32.load8_u", "i32.load16_s", "i32.load16_u"},
			"i64": {"i64.load", "i64.load32_s", "i64.load32_u"},
			"f64": {"f64.load"}, "f32": {"f32.load"},
		}
		g.emit("%s offset=%d", pick(g.rng, loads[t]), g.rng.Intn(3)*4)
	case 7: // tee
		g.expr(t, depth-1)
		g.emit("local.tee %s", g.local(t))
	case 8: // select
		g.expr(t, depth-1)
		g.expr(t, depth-1)
		g.expr("i32", depth-1)
		g.emit("select")
	case 9: // if with a result
		g.expr("i32", depth-1)
		g.emit("if (result %s)", t)
		g.stmts(depth-1, 1)
		g.expr(t, depth-1)
		g.emit("else")
		g.expr(t, depth-1)
		g.emit("end")
	case 10: // block with a result, left early by a br_if that carries a value
		name := fmt.Sprintf("$l%d", g.labels)
		g.labels++
		g.emit("block %s (result %s)", name, t)
		if g.rng.Intn(2) == 0 {
			g.expr("i64", depth-1) // something under the value, discarded by the branch
			g.expr(t, depth-1)
			g.expr("i32", depth-1)
			g.emit("br_if %s", name)
			g.emit("drop")
			g.emit("drop")
		} else {
			g.expr(t, depth-1)
			g.expr("i32", depth-1)
			g.emit("br_if %s", name)
			g.emit("drop")
		}
		g.stmts(depth-1, 1)
		g.expr(t, depth-1)
		g.emit("end")
	case 11: // call
		switch t {
		case "i32":
			g.expr("i32", depth-1)
			g.expr("i64", depth-1)
			g.emit("call $mix")
		case "f64":
			g.expr("f64", depth-1)
			g.expr("f64", depth-1)
			g.expr("i32", depth-1)
			g.emit("call $fma")
		default:
			g.expr(t, depth-1)
		}
	case 12: // global
		if t == "i32" {
			g.emit("global.get $g")
		} else {
			g.expr(t, depth-1)
		}
	default: // memory.size, or nothing new
		if t == "i32" && g.rng.Intn(4) == 0 {
			g.emit("memory.size")
		} else {
			g.expr(t, depth-1)
		}
	}
}

// address leaves an i32 address: base + index*scale in the shapes the load
// fusion recognises, usually masked into the first page.
func (g *progGen) address(depth int) {
	switch g.rng.Intn(4) {
	case 0:
		g.expr("i32", depth)
	case 1:
		g.emit("local.get %s", g.local("i32"))
		g.expr("i32", depth)
		g.emit("i32.const %d", []int{1, 2, 4, 8, 12}[g.rng.Intn(5)])
		g.emit("i32.mul")
		g.emit("i32.add")
	case 2:
		g.expr("i32", depth)
		g.emit("i32.const %d", g.rng.Intn(4))
		g.emit("i32.shl")
		g.emit("local.get %s", g.local("i32"))
		g.emit("i32.add")
	default:
		g.emit("local.get %s", g.local("i32"))
		g.emit("local.get %s", g.local("i32"))
		g.emit("i32.add")
	}
	if g.rng.Intn(5) != 0 {
		g.emit("i32.const %d", []int{0xfff8, 0xffff, 0x1ffff}[g.rng.Intn(3)])
		g.emit("i32.and")
	}
}

// stmts emits up to n statements, each leaving the stack as it found it.
func (g *progGen) stmts(depth, n int) {
	for i := g.rng.Intn(n + 1); i > 0; i-- {
		g.stmt(depth)
	}
}

func (g *progGen) stmt(depth int) {
	t := pick(g.rng, genTypes)
	switch g.rng.Intn(10) {
	case 0, 1:
		g.expr(t, depth)
		g.emit("local.set %s", g.local(t))
	case 2:
		g.expr("i32", depth)
		g.emit("global.set $g")
	case 3: // store
		g.address(depth - 1)
		g.expr(t, depth-1)
		stores := map[string][]string{
			"i32": {"i32.store", "i32.store8", "i32.store16"},
			"i64": {"i64.store", "i64.store32"},
			"f64": {"f64.store"}, "f32": {"f32.store"},
		}
		g.emit("%s offset=%d", pick(g.rng, stores[t]), g.rng.Intn(3)*4)
	case 4: // if / else
		g.expr("i32", depth)
		g.emit("if")
		g.stmts(depth-1, 2)
		if g.rng.Intn(2) == 0 {
			g.emit("else")
			g.stmts(depth-1, 2)
		}
		g.emit("end")
	case 5: // block left by br_if, br_table or br to any enclosing value-less block
		name := fmt.Sprintf("$l%d", g.labels)
		g.labels++
		g.emit("block %s", name)
		g.open = append(g.open, name)
		g.stmts(depth-1, 2)
		switch g.rng.Intn(3) {
		case 0:
			g.expr("i32", depth-1)
			g.emit("br_if %s", pick(g.rng, g.open))
		case 1:
			g.expr("i32", depth-1)
			g.emit("br_table %s %s %s", pick(g.rng, g.open), name, pick(g.rng, g.open))
		default:
			if g.rng.Intn(4) == 0 {
				g.emit("br %s", pick(g.rng, g.open))
			}
		}
		g.stmts(depth-1, 2)
		g.open = g.open[:len(g.open)-1]
		g.emit("end")
	case 6: // counted loop
		if g.loops >= 3 || depth < 2 {
			g.expr(t, depth)
			g.emit("drop")
			return
		}
		c := fmt.Sprintf("$n%d", g.loops)
		g.loops++
		g.emit("i32.const %d", 1+g.rng.Intn(5))
		g.emit("local.set %s", c)
		name := fmt.Sprintf("$l%d", g.labels)
		g.labels++
		g.emit("loop %s", name)
		g.stmts(depth-1, 3)
		g.emit("local.get %s", c)
		g.emit("i32.const 1")
		g.emit("i32.sub")
		g.emit("local.tee %s", c)
		if g.rng.Intn(2) == 0 {
			g.emit("i32.const 0")
			g.emit("i32.gt_s")
		}
		g.emit("br_if %s", name)
		g.emit("end")
	case 7: // bulk memory, grow
		switch g.rng.Intn(3) {
		case 0:
			g.address(depth - 1)
			g.expr("i32", depth-1)
			g.emit("i32.const %d", g.rng.Intn(300))
			g.emit("memory.fill")
		case 1:
			g.address(depth - 1)
			g.address(depth - 1)
			g.emit("i32.const %d", g.rng.Intn(300))
			g.emit("memory.copy")
		default:
			g.emit("i32.const %d", g.rng.Intn(2))
			g.emit("memory.grow")
			g.emit("drop")
		}
	case 8: // early return
		if g.rng.Intn(4) == 0 {
			g.expr("i32", depth)
			g.emit("if")
			g.expr("i32", depth-1)
			g.emit("return")
			g.emit("end")
			return
		}
		fallthrough
	default:
		g.expr(t, depth)
		g.emit("drop")
	}
}

// genModule returns a module with one exported function f of random body
// and two fixed helpers for it to call.
func genModule(seed int64) string {
	g := &progGen{rng: rand.New(rand.NewSource(seed))}
	g.stmts(4, 6)
	g.expr("i32", 4)
	var decls strings.Builder
	for _, t := range genTypes {
		fmt.Fprintf(&decls, "(param $%s0 %s) (param $%s1 %s) ", t, t, t, t)
	}
	decls.WriteString("(result i32)\n")
	for _, t := range genTypes {
		fmt.Fprintf(&decls, "(local $%s2 %s) (local $%s3 %s) ", t, t, t, t)
	}
	decls.WriteString("(local $n0 i32) (local $n1 i32) (local $n2 i32)\n")
	return `(module
	  (memory 1 3)
	  (data (i32.const 64) "random programs read this")
	  (global $g (mut i32) (i32.const 7))
	  (func $mix (param $a i32) (param $b i64) (result i32)
	    local.get $a local.get $b i32.wrap_i64 i32.xor
	    global.get $g i32.add)
	  (func $fma (param $a f64) (param $b f64) (param $k i32) (result f64)
	    local.get $k i32.const 3 i32.and
	    if (result f64) local.get $a local.get $b f64.mul local.get $a f64.add
	    else local.get $b end)
	  (func $f (export "f") ` + decls.String() + g.b.String() + `))`
}

// TestRandomProgramsLoweredVsReference runs generated programs on both
// engines, over the argument grid and a ladder of fuel budgets.
func TestRandomProgramsLoweredVsReference(t *testing.T) {
	n := 400
	if testing.Short() {
		n = 60
	}
	valid := 0
	for seed := int64(0); seed < int64(n); seed++ {
		src := genModule(seed)
		mod, err := AssembleAndValidate(src)
		if err != nil {
			t.Fatalf("seed %d: generator wrote an invalid program: %v\n%s", seed, err, src)
		}
		valid++
		ok := t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			for _, fuel := range []int64{100000, 3, 29, 211, 1500} {
				driveModule(t, mod, fuel, int(seed), 6)
			}
		})
		if !ok {
			t.Logf("seed %d program:\n%s", seed, src)
		}
	}
	if valid == 0 {
		t.Fatal("no program generated")
	}
}
