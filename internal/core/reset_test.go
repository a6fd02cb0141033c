package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"faasm.dev/faasm/internal/fcc"
	"faasm.dev/faasm/internal/kernels"
	"faasm.dev/faasm/internal/vfs"
	"faasm.dev/faasm/internal/wamem"
	"faasm.dev/faasm/internal/wavm"
)

// echoFC is the benchmark's echo guest (bench/guests.go): the smallest call
// that crosses the host interface twice and dirties one page.
const echoFC = `
#memory 1
extern faasm read_call_input(i32, i32) i32;
extern faasm write_call_output(i32, i32);
func main() i32 {
	var n i32 = read_call_input(1024, 4096);
	write_call_output(1024, n);
	return 0;
}`

// echoFaaslets returns a warm echo Faaslet resetting from the image New
// captured, and one resetting from an explicit Proto-Faaslet whose image
// holds a data page (so every call copies a page out of the image).
func echoFaaslets(t testing.TB) map[string]*Faaslet {
	t.Helper()
	mod, err := fcc.CompileAndValidate(echoFC)
	if err != nil {
		t.Fatal(err)
	}
	def := FuncDef{Name: "echo", Module: mod}
	plain, err := New(def, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := New(def, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Memory().WriteBytes(1024, bytes.Repeat([]byte{7}, 4096)); err != nil {
		t.Fatal(err)
	}
	proto, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewFromProto(def, nil, proto)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Faaslet{"image": plain, "proto": restored}
}

var echoInput = bytes.Repeat([]byte("x"), 64)

func echoCycle(t testing.TB, f *Faaslet) {
	out, ret, err := f.Execute(echoInput)
	if err != nil || ret != 0 || len(out) != len(echoInput) {
		t.Fatalf("echo: %d bytes, ret %d, %v", len(out), ret, err)
	}
	if err := f.Reset(); err != nil {
		t.Fatal(err)
	}
}

// TestExecuteResetAllocBudget holds the warm call cycle — every pooled call
// in the runtime is one Execute and one Reset — to its allocation budget.
// Before resets were done in place the cycle cost 67 allocations and 70 KB:
// a rebuilt instance, and a 64 KiB page dropped for the collector.
func TestExecuteResetAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool lossy; the free list's hit rate is not what it measures")
	}
	for name, f := range echoFaaslets(t) {
		echoCycle(t, f) // reach the steady state: register file, free list
		if allocs := testing.AllocsPerRun(200, func() { echoCycle(t, f) }); allocs > 8 {
			t.Errorf("%s: %v allocations per Execute+Reset cycle, budget 8", name, allocs)
		}
		const cycles = 2000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for n := 0; n < cycles; n++ {
			echoCycle(t, f)
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / cycles; per >= 1024 {
			t.Errorf("%s: %d bytes allocated per Execute+Reset cycle, budget < 1 KiB", name, per)
		}
	}
}

// TestColdStartAllocBudget holds making a Faaslet of the no-op module — New,
// and NewFromProto from its image — to an allocation budget. While every
// Faaslet built its own 48-entry host-interface map and its own math/rand
// source, New cost 78 allocations and NewFromProto 75, 11 KB each.
func TestColdStartAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool lossy; allocation counts under it are not what this measures")
	}
	env, _ := testEnv()
	def := FuncDef{Name: "noop", Module: mustModule(t, `(module (memory 1) (func $main (export "main") (result i32) i32.const 0))`)}
	first, err := New(def, env)
	if err != nil {
		t.Fatal(err)
	}
	image := first.Proto()
	starts := map[string]func() (*Faaslet, error){
		"New":          func() (*Faaslet, error) { return New(def, env) },
		"NewFromProto": func() (*Faaslet, error) { return NewFromProto(def, env, image) },
	}
	for name, start := range starts {
		cycle := func() {
			f, err := start()
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
		}
		cycle()
		if allocs := testing.AllocsPerRun(200, cycle); allocs > 24 {
			t.Errorf("%s: %v allocations per Faaslet, budget 24", name, allocs)
		}
		const n = 2000
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			cycle()
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / n; per >= 2048 {
			t.Errorf("%s: %d bytes allocated per Faaslet, budget < 2 KiB", name, per)
		}
	}
}

// BenchmarkExecuteResetEcho is the warm call cycle on the echo guest; read
// it beside kernels.BenchmarkWavm2mm, which must not move with it (the
// load/store fast path knows nothing about resets).
func BenchmarkExecuteResetEcho(b *testing.B) {
	for name, f := range echoFaaslets(b) {
		b.Run(name, func(b *testing.B) {
			echoCycle(b, f)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				echoCycle(b, f)
			}
		})
	}
}

// faasletState is everything a guest could observe of a Faaslet, or be
// charged for.
type faasletState struct {
	out     []byte
	ret     int32
	err     string
	steps   uint64
	globals []uint64
	brk     uint32
	mem     []byte
}

func observe(f *Faaslet, input []byte) faasletState {
	out, ret, err := f.Execute(input)
	s := faasletState{out: out, ret: ret, steps: f.Steps, brk: f.mem.Brk()}
	if err != nil {
		s.err = err.Error()
	}
	if f.inst != nil {
		s.globals = f.inst.Globals()
	}
	s.mem, _ = f.mem.ReadBytes(0, int(f.mem.Size()))
	return s
}

func (s faasletState) diff(want faasletState) string {
	switch {
	case !bytes.Equal(s.out, want.out):
		return fmt.Sprintf("output %q, fresh Faaslet %q", s.out, want.out)
	case s.ret != want.ret || s.err != want.err:
		return fmt.Sprintf("returned %d (%s), fresh Faaslet %d (%s)", s.ret, s.err, want.ret, want.err)
	case s.steps != want.steps:
		return fmt.Sprintf("%d steps, fresh Faaslet %d", s.steps, want.steps)
	case fmt.Sprint(s.globals) != fmt.Sprint(want.globals):
		return fmt.Sprintf("globals %v, fresh Faaslet %v", s.globals, want.globals)
	case s.brk != want.brk:
		return fmt.Sprintf("brk %d, fresh Faaslet %d", s.brk, want.brk)
	case len(s.mem) != len(want.mem):
		return fmt.Sprintf("memory is %d bytes, fresh Faaslet %d", len(s.mem), len(want.mem))
	}
	for i := range s.mem {
		if s.mem[i] != want.mem[i] {
			return fmt.Sprintf("memory differs at %#x: %#x, fresh Faaslet %#x", i, s.mem[i], want.mem[i])
		}
	}
	return ""
}

// poison dirties everything a call can reach from the host side: every byte
// of memory, two grown pages, the break.
func poison(t *testing.T, f *Faaslet) {
	t.Helper()
	if _, err := f.mem.Grow(2); err != nil {
		t.Fatal(err)
	}
	if err := f.mem.Fill(0, 0xA5, int(f.mem.Size())); err != nil {
		t.Fatal(err)
	}
	if err := f.mem.SetBrk(f.mem.Size() - 8); err != nil {
		t.Fatal(err)
	}
}

// requireIsolated is the reuse guarantee as a check: on a Faaslet that ran
// call A, was poisoned and then reset, call B is indistinguishable from B on
// a Faaslet that never ran anything. It returns B's outcome.
func requireIsolated(t *testing.T, def FuncDef, env *Env, a, b []byte) faasletState {
	t.Helper()
	used, err := New(def, env)
	if err != nil {
		t.Fatal(err)
	}
	used.Execute(a)
	poison(t, used)
	if err := used.Reset(); err != nil {
		t.Fatal(err)
	}
	fresh, err := New(def, env)
	if err != nil {
		t.Fatal(err)
	}
	want := observe(fresh, b)
	if d := observe(used, b).diff(want); d != "" {
		t.Fatalf("after a reset: %s", d)
	}
	return want
}

// TestResetIsolationKernels runs every Polybench kernel as call A and as
// call B: the kernels write megabytes of arrays through every store width
// the engine has, none of which the second run may see.
func TestResetIsolationKernels(t *testing.T) {
	for _, k := range kernels.All() {
		t.Run(k.Name, func(t *testing.T) {
			mod, err := kernels.CompileKernel(k)
			if err != nil {
				t.Fatal(err)
			}
			requireIsolated(t, FuncDef{Name: k.Name, Module: mod}, nil, nil, nil)
		})
	}
}

// TestResetIsolationGuests covers what the kernels do not: input-dependent
// guests, data segments, a start function, mutable globals, guest-driven
// memory.grow and brk, and calls that trap with frames live.
func TestResetIsolationGuests(t *testing.T) {
	secret := bytes.Repeat([]byte{0xEE}, 4096)
	guests := map[string]string{
		"echo": "fc:" + echoFC,
		// A data segment and a start function that rewrites part of it; main
		// bumps a global, grows memory, moves the break and scribbles.
		"stateful": `(module
		  (import "faasm" "read_call_input" (func $in (param i32 i32) (result i32)))
		  (import "faasm" "write_call_output" (func $out (param i32 i32)))
		  (import "faasm" "sbrk" (func $sbrk (param i32) (result i32)))
		  (memory 2)
		  (global $calls (mut i32) (i32.const 5))
		  (data (i32.const 16) "segment-bytes")
		  (func $init i32.const 20 i32.const 0x21212121 i32.store)
		  (start $init)
		  (func $main (export "main") (result i32) (local $n i32)
		    global.get $calls i32.const 1 i32.add global.set $calls
		    i32.const 1 memory.grow drop
		    i32.const 70000 call $sbrk drop
		    i32.const 4096 i32.const 4096 call $in local.set $n
		    i32.const 131072 local.get $n i32.store
		    i32.const 16 i32.const 64 call $out
		    global.get $calls))`,
		// Traps out of bounds three frames deep when the input's first byte is
		// odd, after writing the input across a page boundary.
		"trapper": `(module
		  (import "faasm" "read_call_input" (func $in (param i32 i32) (result i32)))
		  (memory 2)
		  (global $depth (mut i32) (i32.const 0))
		  (func $deep (param $n i32) (result i32)
		    global.get $depth i32.const 1 i32.add global.set $depth
		    local.get $n i32.eqz
		    if (result i32)
		      i32.const 65000 i32.load8_u i32.const 1 i32.and
		      if (result i32) i32.const 0x7ffffff0 i32.load else i32.const 7 end
		    else
		      local.get $n i32.const 1 i32.sub call $deep
		    end)
		  (func $main (export "main") (result i32)
		    i32.const 65000 i32.const 4096 call $in drop
		    i32.const 3 call $deep))`,
		// Burns its whole fuel budget inside a nested frame.
		"spinner": `(module
		  (memory 1)
		  (global $g (mut i64) (i64.const 0))
		  (func $spin (param $x i32)
		    loop $l
		      global.get $g i64.const 1 i64.add global.set $g
		      i32.const 8 global.get $g i64.store
		      br $l
		    end)
		  (func $main (export "main") (result i32)
		    i32.const 1 call $spin
		    i32.const 0))`,
	}
	traps := map[string]string{"trapper": "out of bounds", "spinner": "fuel exhausted"}
	for name, src := range guests {
		t.Run(name, func(t *testing.T) {
			var mod *wavm.Module
			var err error
			if fc, ok := strings.CutPrefix(src, "fc:"); ok {
				mod, err = fcc.CompileAndValidate(fc)
			} else {
				mod, err = wavm.AssembleAndValidate(src)
			}
			if err != nil {
				t.Fatal(err)
			}
			def := FuncDef{Name: name, Module: mod}
			if name == "spinner" {
				def.Fuel = 5000
			}
			odd, even := append([]byte{1}, secret...), []byte{2, 3, 4}
			requireIsolated(t, def, nil, odd, even)
			requireIsolated(t, def, nil, even, odd)
			b := requireIsolated(t, def, nil, odd, odd)
			if want := traps[name]; !strings.Contains(b.err, want) {
				t.Fatalf("call ended with %q, the case is about %q", b.err, want)
			}
		})
	}
}

// TestResetAfterLibraryTrap traps inside a dlopen'd library, which shares the
// Faaslet's memory: its data segment, its stores and the library itself must
// all be gone after the reset.
func TestResetAfterLibraryTrap(t *testing.T) {
	lib := mustModule(t, `(module
	  (memory 2)
	  (data (i32.const 66000) "library data")
	  (func $boom (export "boom")
	    i32.const 300 i32.const 0x0badf00d i32.store
	    unreachable))`)
	blob, err := wavm.EncodeObject(lib)
	if err != nil {
		t.Fatal(err)
	}
	env, _ := testEnv()
	env.Files = vfs.NewMapGlobal(map[string][]byte{"lib/boom.so": blob})
	mod := mustModule(t, `(module
	  (import "faasm" "dlopen" (func $dlopen (param i32 i32) (result i32)))
	  (import "faasm" "dlsym" (func $dlsym (param i32 i32 i32) (result i32)))
	  (import "faasm" "dlcall" (func $dlcall (param i32 i32 i32 i32) (result i32)))
	  (import "faasm" "read_call_input" (func $in (param i32 i32) (result i32)))
	  (memory 1)
	  (data (i32.const 0) "lib/boom.so")
	  (data (i32.const 32) "boom")
	  (func $main (export "main") (result i32) (local $h i32)
	    i32.const 256 i32.const 64 call $in drop
	    i32.const 0 i32.const 11 call $dlopen local.set $h
	    local.get $h i32.const 32 i32.const 4 call $dlsym
	    i32.const 0 i32.const 0 i32.const 0 call $dlcall))`)
	used, err := New(FuncDef{Name: "dl", Module: mod}, env)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := used.Execute(nil); err == nil || used.mem.Pages() != 2 {
		t.Fatalf("the library did not trap after growing memory: %v, %d pages", err, used.mem.Pages())
	}
	requireIsolated(t, FuncDef{Name: "dl", Module: mod}, env, []byte("first caller's bytes"), []byte("second"))
}

// TestResetKeepsStateSegmentsIntact: a state value mapped into the Faaslet is
// host-shared memory, not the Faaslet's. A reset unmaps it and must leave
// every byte of it alone; the guest-private copy of the same bytes goes.
func TestResetKeepsStateSegmentsIntact(t *testing.T) {
	env, engine := testEnv()
	value := bytes.Repeat([]byte("state!"), 30000) // three pages
	if err := engine.Set("shared", value); err != nil {
		t.Fatal(err)
	}
	def := FuncDef{Name: "mapper", Native: func(ctx *Ctx) (int32, error) {
		view, err := ctx.StateView("shared", len(value))
		if err != nil {
			return 1, err
		}
		return 0, ctx.Memory().WriteBytes(64, view[:1024])
	}}
	f, err := New(def, env)
	if err != nil {
		t.Fatal(err)
	}
	before := f.mem.Pages()
	if _, ret, err := f.Execute(nil); err != nil || ret != 0 {
		t.Fatalf("execute: %d %v", ret, err)
	}
	if f.mem.Pages() <= before {
		t.Fatal("the state value was not mapped")
	}
	if err := f.Reset(); err != nil {
		t.Fatal(err)
	}
	if f.mem.Pages() != before {
		t.Fatalf("%d pages after the reset, %d before the call: the segment is still mapped", f.mem.Pages(), before)
	}
	if _, ok := f.mem.SharedAt(uint32(before) * wamem.PageSize); ok {
		t.Fatal("shared window survived the reset")
	}
	v, err := env.State.Value("shared", len(value))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.Bytes(), value) {
		t.Fatal("the reset modified the shared state segment")
	}
	if got, _ := f.mem.ReadBytes(64, 6); !bytes.Equal(got, make([]byte, 6)) {
		t.Fatalf("private copy of the state survived: %q", got)
	}
}

// TestOneImageManyFaaslets restores one reset image into 64 Faaslets at once
// and cycles each through calls and resets: under -race this is the proof
// that Faaslets sharing an image's pages never write to them.
func TestOneImageManyFaaslets(t *testing.T) {
	mod, err := fcc.CompileAndValidate(echoFC)
	if err != nil {
		t.Fatal(err)
	}
	def := FuncDef{Name: "echo", Module: mod}
	first, err := New(def, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.mem.WriteBytes(1024, bytes.Repeat([]byte{9}, 2048)); err != nil {
		t.Fatal(err)
	}
	image, err := first.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f, err := NewFromProto(def, nil, image)
			if err != nil {
				t.Error(err)
				return
			}
			for n := 0; n < 20; n++ {
				in := bytes.Repeat([]byte{byte(g)}, 1+n*50)
				out, _, err := f.Execute(in)
				if err != nil || !bytes.Equal(out, in) {
					t.Errorf("faaslet %d call %d: %d bytes back, %v", g, n, len(out), err)
					return
				}
				if err := f.Reset(); err != nil {
					t.Error(err)
					return
				}
				// Past the echoed bytes the image shows through again.
				if got, _ := f.mem.ReadBytes(1024, 2048); !bytes.Equal(got, bytes.Repeat([]byte{9}, 2048)) {
					t.Errorf("faaslet %d: image bytes not restored after call %d", g, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
