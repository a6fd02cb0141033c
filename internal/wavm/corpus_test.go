package wavm

import (
	"errors"
	"math"
	"testing"
)

// watCorpus is a set of text-format modules written to exercise the
// lowering pass where it is cleverest: operands folded across local writes,
// comparisons fused into branches, branch values moved between stack
// heights, dead code, calls whose frames overlap the caller's, and every
// trap. driveModule runs each export of each module on both engines; the
// fuzzer starts from the same sources.
var watCorpus = map[string]string{
	"loops": `(module
	  (func $sum (export "sum") (param $n i32) (result i32) (local $i i32) (local $acc i32)
	    block $done
	      loop $l
	        local.get $i local.get $n i32.lt_s i32.eqz br_if $done
	        local.get $acc local.get $i i32.add local.set $acc
	        local.get $i i32.const 1 i32.add local.set $i
	        br $l
	      end
	    end
	    local.get $acc)
	  (func $countdown (export "countdown") (param $n i64) (result i64) (local $steps i64)
	    loop $l
	      local.get $n i64.const 0 i64.gt_s
	      if
	        local.get $n i64.const 3 i64.sub local.set $n
	        local.get $steps i64.const 1 i64.add local.set $steps
	        br $l
	      end
	    end
	    local.get $steps)
	  (func $below (export "below") (param $x i32) (result i32)
	    ;; a pending read sits under the loop label and is used after it
	    local.get $x
	    loop $l
	      local.get $x i32.const 1 i32.sub local.tee $x
	      i32.const 0 i32.gt_s br_if $l
	    end
	    local.get $x i32.add))`,

	"locals": `(module
	  (func $hazard (export "hazard") (param $x i32) (result i32)
	    ;; the first read of x must see the old value
	    local.get $x
	    local.get $x i32.const 1 i32.add local.set $x
	    local.get $x i32.add)
	  (func $tee (export "tee") (param $x i32) (result i32) (local $y i32) (local $z i32)
	    local.get $x i32.const 3 i32.mul local.tee $y
	    local.tee $z
	    local.get $y i32.add
	    local.get $z i32.const 7 local.tee $z i32.add i32.add
	    local.get $z i32.add)
	  (func $self (export "self") (param $x i64) (result i64)
	    local.get $x local.set $x
	    local.get $x local.tee $x)
	  (func $swap (export "swap") (param $a i32) (param $b i32) (result i32)
	    local.get $a local.get $b local.set $a local.set $b
	    local.get $a i32.const 16 i32.shl local.get $b i32.or)
	  (func $consts (export "consts") (result f64) (local $a f64)
	    f64.const 1.5 local.tee $a
	    f64.const 2.25 local.set $a
	    local.get $a f64.add))`,

	"branches": `(module
	  (func $classify (export "classify") (param $x i32) (result i32)
	    block $c
	      block $b
	        block $a
	          local.get $x
	          br_table $a $b $c
	        end
	        i32.const 10 return
	      end
	      i32.const 20 return
	    end
	    i32.const 30)
	  (func $tablev (export "tablev") (param $x i32) (result i32)
	    ;; br_table carrying a value to labels at different stack heights
	    i32.const 1000
	    block $o (result i32)
	      i32.const 7
	      block $i (result i32)
	        local.get $x i32.const 5 i32.mul
	        local.get $x
	        br_table $i $o $i
	      end
	      i32.add
	    end
	    i32.add)
	  (func $carry (export "carry") (param $x i32) (result i32)
	    ;; br and br_if with a value that must move down past other operands
	    block $b (result i32)
	      i32.const 1 i32.const 2
	      local.get $x i32.const 100 i32.add
	      local.get $x i32.const 3 i32.gt_s
	      br_if $b
	      i32.add i32.add
	      i32.const 9 i32.const 8 local.get $x
	      br $b
	    end)
	  (func $plain (export "plain") (param $x i32) (result i32)
	    block $b (result i32)
	      local.get $x
	      local.get $x
	      br_if $b
	      drop
	      i32.const -1
	    end)
	  (func $nested (export "nested") (param $x i32) (param $y i32) (result i32)
	    local.get $x
	    if (result i32)
	      local.get $y
	      if (result i32) i32.const 11 else i32.const 10 end
	    else
	      local.get $y i32.eqz
	      if (result i32) i32.const 0 else i32.const 1 end
	    end
	    i32.const 100 i32.add)
	  (func $early (export "early") (param $x i32) (result i32)
	    local.get $x i32.eqz
	    if i32.const 5 return end
	    block $b
	      local.get $x i32.const 1 i32.eq br_if $b
	      i32.const 6 return
	    end
	    i32.const 7)
	  (func $toend (export "toend") (param $x i32) (result i32)
	    i32.const 1
	    local.get $x br_if 0
	    drop i32.const 2))`,

	"dead": `(module
	  (func $a (export "a") (param $x i32) (result i32)
	    block $b (result i32)
	      local.get $x
	      br $b
	      i32.const 1 i32.add
	      block $in br $in end
	      unreachable
	    end
	    i32.const 1 i32.add)
	  (func $b (export "b") (param $x i32) (result i32)
	    local.get $x
	    if (result i32)
	      i32.const 1 return
	      i32.const 2
	    else
	      i32.const 3
	    end)
	  (func $c (export "c") (result i32)
	    block (result i32) unreachable end)
	  (func $d (export "d") (param $x i32) (result i32)
	    loop $l (result i32)
	      local.get $x i32.const 1 i32.sub local.tee $x
	      br_if $l
	      i32.const 77 return
	    end))`,

	"compare": `(module
	  (func $flags (export "flags") (param $a i32) (param $b i32) (result i32)
	    local.get $a local.get $b i32.lt_s
	    local.get $a local.get $b i32.lt_u i32.const 1 i32.shl i32.or
	    local.get $a local.get $b i32.ge_s i32.eqz i32.const 2 i32.shl i32.or
	    local.get $a i32.eqz i32.eqz i32.const 3 i32.shl i32.or
	    i32.const 9 local.get $a i32.le_u i32.const 4 i32.shl i32.or
	    local.get $a i32.const -1 i32.gt_s i32.const 5 i32.shl i32.or)
	  (func $pick (export "pick") (param $a i32) (param $b i32) (result i32)
	    local.get $a local.get $b i32.gt_u if i32.const 1 return end
	    local.get $a i32.const 7 i32.ne if i32.const 2 return end
	    i32.const 7 local.get $b i32.le_s i32.eqz if i32.const 3 return end
	    local.get $a local.get $b i32.eq i32.eqz i32.eqz if i32.const 4 return end
	    i32.const 5)
	  (func $wide (export "wide") (param $a i64) (param $b i64) (result i32)
	    local.get $a local.get $b i64.lt_s if i32.const 1 return end
	    local.get $a i64.eqz if i32.const 2 return end
	    local.get $a local.get $b i64.ge_u i32.eqz if i32.const 3 return end
	    local.get $a i64.const 1 i64.shl i64.eqz i32.eqz if i32.const 4 return end
	    local.get $a local.get $b i64.ne)
	  (func $fl (export "fl") (param $a f64) (param $b f64) (result i32)
	    ;; NaN makes !(a < b) differ from a >= b
	    local.get $a local.get $b f64.lt if i32.const 1 return end
	    local.get $a local.get $b f64.ge i32.eqz if i32.const 2 return end
	    block $x
	      local.get $a local.get $b f64.eq br_if $x
	      local.get $a local.get $b f64.gt i32.eqz br_if $x
	      i32.const 3 return
	    end
	    local.get $a local.get $b f64.le
	    local.get $a local.get $b f64.ne i32.const 1 i32.shl i32.or i32.const 8 i32.or)
	  (func $fs (export "fs") (param $a f32) (param $b f32) (result i32)
	    local.get $a local.get $b f32.lt if i32.const 1 return end
	    local.get $a local.get $b f32.ge i32.eqz if i32.const 2 return end
	    local.get $a local.get $b f32.eq)
	  (func $sel (export "sel") (param $c i32) (result i32)
	    i32.const 10 i32.const 20 local.get $c select
	    local.get $c i32.const 30 local.get $c i32.const 5 i32.lt_s select
	    i32.add
	    i64.const 1 i64.const 2 local.get $c select drop))`,

	"arith": `(module
	  (func $i (export "i") (param $a i32) (param $b i32) (result i32)
	    local.get $a local.get $b i32.mul local.get $a i32.add
	    local.get $b local.get $a local.get $b i32.mul i32.add i32.xor
	    local.get $a i32.const 5 i32.sub i32.add
	    local.get $a i32.const 35 i32.shl i32.add
	    local.get $a i32.const 33 i32.shr_s i32.add
	    local.get $b i32.const 34 i32.shr_u i32.add
	    i32.const 3 local.get $a i32.sub i32.add
	    i32.const 12 local.get $b i32.and i32.add
	    local.get $a i32.const 255 i32.or local.get $b i32.const -2 i32.xor i32.mul i32.add
	    local.get $a local.get $b i32.rotl local.get $a local.get $b i32.rotr i32.sub i32.add
	    local.get $a i32.clz local.get $a i32.ctz i32.add local.get $a i32.popcnt i32.add i32.add)
	  (func $l (export "l") (param $a i64) (param $b i64) (result i64)
	    local.get $a local.get $b i64.mul local.get $a i64.add
	    local.get $a i64.const 5 i64.sub i64.add
	    local.get $a i64.const 67 i64.shl i64.add
	    local.get $a i64.const 65 i64.shr_s i64.add
	    local.get $b i64.const 66 i64.shr_u i64.add
	    i64.const 3 local.get $a i64.sub i64.add
	    local.get $b i64.const 12 i64.and i64.add
	    local.get $a i64.const 255 i64.or local.get $b i64.const -2 i64.xor i64.mul i64.add
	    local.get $a local.get $b i64.rotl local.get $a local.get $b i64.rotr i64.sub i64.add
	    local.get $a i64.clz local.get $a i64.ctz i64.add local.get $a i64.popcnt i64.add i64.add)
	  (func $div (export "div") (param $a i32) (param $b i32) (result i32)
	    local.get $a local.get $b i32.div_s
	    local.get $a local.get $b i32.rem_s i32.add
	    local.get $a local.get $b i32.div_u i32.add
	    local.get $a local.get $b i32.rem_u i32.add)
	  (func $ldiv (export "ldiv") (param $a i64) (param $b i64) (result i64)
	    local.get $a local.get $b i64.rem_s
	    local.get $a local.get $b i64.div_u i64.add
	    local.get $a local.get $b i64.rem_u i64.add
	    local.get $a local.get $b i64.div_s i64.add)
	  (func $f (export "f") (param $a f64) (param $b f64) (result f64) (local $acc f64)
	    local.get $a f64.const 0.5 f64.mul local.set $acc
	    local.get $acc local.get $a local.get $b f64.mul f64.add local.set $acc
	    local.get $a local.get $b f64.mul local.get $acc f64.add local.set $acc
	    f64.const 2.0 local.get $acc f64.sub
	    local.get $b f64.const 3.0 f64.div f64.add
	    f64.const 1.0 local.get $a f64.div f64.add
	    local.get $a local.get $b f64.min local.get $a local.get $b f64.max f64.sub f64.add
	    local.get $a f64.abs f64.sqrt local.get $b f64.neg f64.copysign f64.add
	    local.get $a f64.ceil local.get $a f64.floor f64.sub
	    local.get $b f64.trunc f64.add local.get $b f64.nearest f64.add f64.add)
	  (func $s (export "s") (param $a f32) (param $b f32) (result f32)
	    local.get $a local.get $b f32.mul local.get $a f32.add
	    local.get $b f32.const 1.5 f32.sub f32.div
	    local.get $a local.get $b f32.min local.get $a local.get $b f32.max f32.add f32.add
	    local.get $a f32.abs f32.sqrt local.get $b f32.neg f32.sub f32.add)
	  (func $conv (export "conv") (param $a f64) (param $n i64) (result i64)
	    local.get $a i32.trunc_f64_s i64.extend_i32_s
	    local.get $a i64.trunc_f64_s i64.add
	    local.get $n i32.wrap_i64 i64.extend_i32_u i64.add
	    local.get $n f64.convert_i64_s f64.const 0.25 f64.mul i64.reinterpret_f64 i64.add
	    local.get $n f64.convert_i64_u f32.demote_f64 f64.promote_f32 i64.trunc_f64_u i64.add
	    local.get $n i32.wrap_i64 f32.convert_i32_s i32.reinterpret_f32 i64.extend_i32_s i64.add
	    local.get $n f64.reinterpret_i64 f64.abs i64.reinterpret_f64 i64.add
	    local.get $n i32.wrap_i64 f64.convert_i32_u i32.trunc_f64_u i64.extend_i32_u i64.add
	    local.get $n f32.convert_i64_s i32.trunc_f32_s i64.extend_i32_s i64.add
	    local.get $n i32.wrap_i64 f32.reinterpret_i32 f32.abs i32.trunc_f32_u i64.extend_i32_u i64.add))`,

	"memory": `(module
	  (memory 2 4)
	  (data (i32.const 16) "faasm-lowered")
	  (global $sink (mut i64) (i64.const 0))
	  (func $store (export "store") (param $a i32) (param $v i64)
	    local.get $a local.get $v i64.store
	    local.get $a local.get $v i32.wrap_i64 i32.store offset=8
	    local.get $a local.get $v i32.wrap_i64 i32.store16 offset=12
	    local.get $a local.get $v i32.wrap_i64 i32.store8 offset=14
	    local.get $a local.get $v i64.store32 offset=16
	    local.get $a local.get $v f64.reinterpret_i64 f64.store offset=24)
	  (func $load (export "load") (param $a i32) (result i64)
	    local.get $a i64.load
	    local.get $a i32.load offset=8 i64.extend_i32_u i64.add
	    local.get $a i32.load16_s offset=12 i64.extend_i32_s i64.add
	    local.get $a i32.load16_u offset=12 i64.extend_i32_u i64.add
	    local.get $a i32.load8_s offset=14 i64.extend_i32_s i64.add
	    local.get $a i32.load8_u offset=14 i64.extend_i32_u i64.add
	    local.get $a i64.load32_s offset=16 i64.add
	    local.get $a i64.load32_u offset=16 i64.add
	    local.get $a f64.load offset=24 i64.reinterpret_f64 i64.add
	    local.get $a f32.load offset=16 i32.reinterpret_f32 i64.extend_i32_u i64.add)
	  (func $index (export "index") (param $base i32) (param $i i32) (result i64)
	    ;; a[i] through every address shape the load fusion looks for
	    local.get $base local.get $i i32.const 8 i32.mul i32.add i64.load
	    local.get $base local.get $i i32.const 3 i32.shl i32.add i64.load offset=8 i64.add
	    local.get $i i32.const 4 i32.mul local.get $base i32.add i32.load i64.extend_i32_u i64.add
	    local.get $base local.get $i i32.add i32.load i64.extend_i32_u i64.add
	    local.get $base local.get $i i32.const 12 i32.mul i32.add i64.load i64.add
	    local.get $base local.get $base i32.const 2 i32.shl local.tee $i i32.add i64.load i64.add
	    local.get $i i64.extend_i32_u i64.add)
	  (func $grow (export "grow") (param $n i32) (result i32)
	    local.get $n memory.grow
	    memory.size i32.const 16 i32.shl i32.add)
	  (func $bulk (export "bulk") (param $d i32) (param $s i32) (param $n i32) (result i32)
	    local.get $d i32.const 171 local.get $n memory.fill
	    local.get $d i32.const 1 i32.add local.get $d local.get $n memory.copy
	    local.get $s local.get $d local.get $n memory.copy
	    local.get $s i32.load8_u local.get $d i32.load8_u i32.add)
	  (func $zero (export "zero") (param $d i32) (param $n i32)
	    local.get $d i32.const 0 local.get $n memory.fill)
	  (func $text (export "text") (param $i i32) (result i32)
	    local.get $i i32.load8_u offset=16))`,

	"calls": `(module
	  (import "env" "mul3" (func $mul3 (param i32) (result i32)))
	  (import "env" "note" (func $note (param i64 f64)))
	  (import "env" "boom" (func $boom))
	  (table (elem $double $square $mul3 $noop))
	  (global $calls (mut i32) (i32.const 0))
	  (func $noop
	    global.get $calls i32.const 1 i32.add global.set $calls)
	  (func $double (param $x i32) (result i32) local.get $x i32.const 2 i32.mul)
	  (func $square (param $x i32) (result i32) local.get $x local.get $x i32.mul)
	  (func $fib (export "fib") (param $n i32) (result i32)
	    local.get $n i32.const 2 i32.lt_s
	    if (result i32)
	      local.get $n
	    else
	      local.get $n i32.const 1 i32.sub call $fib
	      local.get $n i32.const 2 i32.sub call $fib
	      i32.add
	    end)
	  (func $apply (export "apply") (param $f i32) (param $x i32) (result i32)
	    ;; the first result must survive the second call's frame
	    local.get $x call $double
	    local.get $x local.get $f call_indirect (param i32) (result i32)
	    i32.add
	    call $noop
	    global.get $calls i32.add)
	  (func $wrong (export "wrong") (param $f i32) (result i32)
	    i32.const 1 local.get $f call_indirect (param i32) (result i32))
	  (func $host (export "host") (param $x i32) (result i32)
	    local.get $x i32.const 1 i32.add call $mul3
	    i64.const 4 local.get $x f64.convert_i32_s call $note
	    local.get $x call $mul3 i32.sub)
	  (func $fail (export "fail") (param $x i32) (result i32)
	    local.get $x if call $boom end
	    i32.const 3)
	  (func $many (export "many") (param $a i32) (param $b i64) (param $c f64) (param $d i32) (result f64)
	    local.get $c
	    local.get $d local.get $c local.get $b local.get $a call $rev
	    f64.add)
	  (func $rev (param $d i32) (param $c f64) (param $b i64) (param $a i32) (result f64) (local $t f64)
	    local.get $a local.get $d i32.sub f64.convert_i32_s local.tee $t
	    local.get $b f64.convert_i64_s local.get $c f64.mul f64.add)
	  (func $deep (export "deep") (param $n i32) (result i32)
	    local.get $n i32.eqz if (result i32) i32.const 0 else
	      local.get $n i32.const 1 i32.sub call $deep i32.const 1 i32.add
	    end)
	  (func $forever (export "forever") call $forever))`,

	"start": `(module
	  (memory 1)
	  (global $ran (mut i32) (i32.const 0))
	  (func $init
	    i32.const 40 i32.const 2 i32.store
	    global.get $ran i32.const 1 i32.add global.set $ran)
	  (start $init)
	  (func $ran (export "ran") (result i32)
	    global.get $ran i32.const 40 i32.load i32.add))`,

	"traps": `(module
	  (memory 1 1)
	  (func $unreachable (export "unreachable") (param $x i32) (result i32)
	    local.get $x i32.const 3 i32.eq if unreachable end
	    local.get $x)
	  (func $oob (export "oob") (param $a i32) (result i32)
	    local.get $a i32.const 1 i32.store offset=65530
	    local.get $a i32.load offset=65530)
	  (func $fill (export "fill") (param $n i32)
	    i32.const 8 i32.const 255 local.get $n memory.fill)
	  (func $copy (export "copy") (param $n i32)
	    i32.const 8 i32.const 65000 local.get $n memory.copy)
	  (func $trunc (export "trunc") (param $x f64) (result i32)
	    local.get $x i32.trunc_f64_u)
	  (func $spin (export "spin") (param $x i32)
	    loop $l
	      local.get $x i32.const 1 i32.add local.tee $x
	      br_if $l
	    end))`,
}

// diffHosts is the host interface the corpus modules import. The functions
// are pure, so both engines of a pair can share them, and — since the fuzzer
// rewrites import signatures — they take whatever arguments they are given.
var diffHosts = map[string]HostModule{"env": {
	"mul3": func(_ *Instance, a []uint64) ([]uint64, error) {
		v := int32(len(a))
		for _, x := range a {
			v += DecodeI32(x) * 3
		}
		return []uint64{EncodeI32(v)}, nil
	},
	"note": func(*Instance, []uint64) ([]uint64, error) { return nil, nil },
	"boom": func(*Instance, []uint64) ([]uint64, error) { return nil, errors.New("kaboom") },
}}

// argGrid holds the values driveModule feeds each parameter type: the
// boundaries of every trap and wrap-around, and a NaN.
var argGrid = map[ValueType][]uint64{
	I32: {0, 1, 2, 3, 7, 40, 65529, 0x7fffffff, 0x80000000, 0xffffffff},
	I64: {0, 1, 5, 1 << 32, 1<<63 - 1, 1 << 63, math.MaxUint64},
	F32: {0, EncodeF32(1.5), EncodeF32(-2.75), EncodeF32(float32(math.NaN())), EncodeF32(float32(math.Inf(1))), EncodeF32(3e9)},
	F64: {0, 1 << 63, EncodeF64(1.5), EncodeF64(-2.75), EncodeF64(math.NaN()), 0xfff8000000000001, EncodeF64(math.Inf(-1)), EncodeF64(4e9), EncodeF64(1e300)},
}

// driveModule calls every exported function of mod over a spread of
// arguments, each call on a fresh pair of instances with the given fuel;
// the pair fails the test on any divergence. rounds caps the argument
// tuples tried per export (0: enough to pair every grid value of every
// parameter with several values of the others), starting from tuple first.
func driveModule(t testing.TB, mod *Module, fuel int64, first, rounds int) {
	t.Helper()
	opts := func() []InstanceOption { return []InstanceOption{WithFuel(fuel), WithMaxCallDepth(64)} }
	for _, e := range mod.Exports {
		if e.Kind != ExportFunc {
			continue
		}
		ft, err := mod.FuncTypeAt(e.Index)
		if err != nil {
			t.Fatal(err)
		}
		n := rounds
		if n == 0 {
			n = 1
			for _, pt := range ft.Params {
				n = max(n, len(argGrid[pt]))
			}
			if len(ft.Params) > 1 {
				n *= 3
			}
		}
		for r := first; r < first+n; r++ {
			p, err := newPair(t, mod, diffHosts, opts)
			if err != nil {
				return // e.g. an unresolved import or a trapping start function
			}
			args := make([]uint64, len(ft.Params))
			for i, pt := range ft.Params {
				grid := argGrid[pt]
				args[i] = grid[(r*(i+1)+r/len(grid)*i)%len(grid)]
			}
			p.Call(e.Name, args...)
		}
	}
}

// TestCorpusLoweredVsReference is the differential suite over the corpus.
// The grid holds arguments that make some loops run for 2^31 iterations, so
// every run has a budget: one large enough for everything that terminates
// quickly to do so with identical Steps, then a ladder of small ones that
// stops both engines in the middle of everything.
func TestCorpusLoweredVsReference(t *testing.T) {
	for name, src := range watCorpus {
		mod, err := AssembleAndValidate(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Run(name, func(t *testing.T) {
			for _, fuel := range []int64{200000, 0, 1, 2, 5, 9, 14, 23, 37, 61, 150, 1000} {
				driveModule(t, mod, fuel, 0, 0)
			}
		})
	}
}
