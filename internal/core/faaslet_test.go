package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/state"
	"faasm.dev/faasm/internal/vfs"
	"faasm.dev/faasm/internal/wavm"
)

// fakeChainer records chained calls and serves canned results.
type fakeChainer struct {
	mu      sync.Mutex
	chained []string
	inputs  [][]byte
	outputs map[uint64][]byte
	rets    map[uint64]int32
	next    uint64
}

func newFakeChainer() *fakeChainer {
	return &fakeChainer{outputs: map[uint64][]byte{}, rets: map[uint64]int32{}}
}

func (fc *fakeChainer) Chain(fn string, input []byte) (uint64, error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	fc.next++
	fc.chained = append(fc.chained, fn)
	fc.inputs = append(fc.inputs, append([]byte(nil), input...))
	fc.outputs[fc.next] = []byte("out-" + fn)
	return fc.next, nil
}

func (fc *fakeChainer) Await(id uint64) (int32, error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.rets[id], nil
}

func (fc *fakeChainer) Output(id uint64) ([]byte, error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.outputs[id], nil
}

func testEnv() (*Env, *kvs.Engine) {
	engine := kvs.NewEngine()
	return &Env{
		State: state.NewLocalTier(engine),
		Files: vfs.NewMapGlobal(map[string][]byte{"etc/config": []byte("cfg")}),
		Chain: newFakeChainer(),
	}, engine
}

func mustModule(t *testing.T, src string) *wavm.Module {
	t.Helper()
	m, err := wavm.AssembleAndValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNativeGuestEcho(t *testing.T) {
	env, _ := testEnv()
	f, err := New(FuncDef{
		Name: "echo",
		Native: func(ctx *Ctx) (int32, error) {
			ctx.WriteOutput(append([]byte("echo:"), ctx.Input()...))
			return 0, nil
		},
	}, env)
	if err != nil {
		t.Fatal(err)
	}
	out, ret, err := f.Execute([]byte("hello"))
	if err != nil || ret != 0 || string(out) != "echo:hello" {
		t.Fatalf("execute: %q %d %v", out, ret, err)
	}
	if !f.Warm() {
		t.Fatal("faaslet not marked warm")
	}
}

func TestNativeGuestPanicContained(t *testing.T) {
	env, _ := testEnv()
	f, _ := New(FuncDef{
		Name:   "boom",
		Native: func(ctx *Ctx) (int32, error) { panic("guest bug") },
	}, env)
	_, ret, err := f.Execute(nil)
	if err == nil || ret != -1 {
		t.Fatalf("panic not contained: %d %v", ret, err)
	}
	if !strings.Contains(err.Error(), "guest bug") {
		t.Fatalf("cause lost: %v", err)
	}
	// The Faaslet survives for reset + reuse.
	if err := f.Reset(); err != nil {
		t.Fatal(err)
	}
}

// wavmEchoSrc reads its input and writes it back with a prefix via the host
// interface.
const wavmEchoSrc = `(module
  (import "faasm" "read_call_input" (func $read (param i32 i32) (result i32)))
  (import "faasm" "write_call_output" (func $write (param i32 i32)))
  (memory 2 16)
  (data (i32.const 0) "wasm:")
  (func $main (export "main") (result i32) (local $n i32)
    ;; read input after the "wasm:" prefix at offset 5
    i32.const 5
    i32.const 1024
    call $read
    local.set $n
    ;; write prefix + input
    i32.const 0
    local.get $n
    i32.const 5
    i32.add
    call $write
    i32.const 0))`

func TestWavmGuestEcho(t *testing.T) {
	env, _ := testEnv()
	f, err := New(FuncDef{Name: "wecho", Module: mustModule(t, wavmEchoSrc)}, env)
	if err != nil {
		t.Fatal(err)
	}
	out, ret, err := f.Execute([]byte("data"))
	if err != nil || ret != 0 {
		t.Fatalf("execute: %d %v", ret, err)
	}
	if string(out) != "wasm:data" {
		t.Fatalf("out = %q", out)
	}
	if f.Steps == 0 {
		t.Fatal("no steps recorded")
	}
}

func TestWavmGuestTrapSurfaces(t *testing.T) {
	env, _ := testEnv()
	src := `(module
	  (memory 1 1)
	  (func $main (export "main") (result i32)
	    i32.const 999999
	    i32.load))`
	f, _ := New(FuncDef{Name: "oob", Module: mustModule(t, src)}, env)
	_, _, err := f.Execute(nil)
	var trap *wavm.Trap
	if err == nil || !asTrap(err, &trap) || trap.Kind != wavm.TrapOutOfBounds {
		t.Fatalf("expected OOB trap, got %v", err)
	}
}

func asTrap(err error, out **wavm.Trap) bool {
	t, ok := err.(*wavm.Trap)
	if ok {
		*out = t
	}
	return ok
}

func TestWavmChainCalls(t *testing.T) {
	env, _ := testEnv()
	src := `(module
	  (import "faasm" "chain_call" (func $chain (param i32 i32 i32 i32) (result i32)))
	  (import "faasm" "await_call" (func $await (param i32) (result i32)))
	  (import "faasm" "get_call_output" (func $out (param i32 i32 i32) (result i32)))
	  (import "faasm" "write_call_output" (func $write (param i32 i32)))
	  (memory 1)
	  (data (i32.const 0) "worker")
	  (data (i32.const 16) "payload")
	  (func $main (export "main") (result i32) (local $id i32) (local $n i32)
	    i32.const 0  i32.const 6    ;; function name
	    i32.const 16 i32.const 7    ;; input
	    call $chain
	    local.set $id
	    local.get $id
	    call $await
	    drop
	    ;; copy the chained output to offset 64 and emit it as our own
	    local.get $id
	    i32.const 64
	    i32.const 256
	    call $out
	    local.set $n
	    i32.const 64
	    local.get $n
	    call $write
	    i32.const 0))`
	f, err := New(FuncDef{Name: "chainer", Module: mustModule(t, src)}, env)
	if err != nil {
		t.Fatal(err)
	}
	out, ret, err := f.Execute(nil)
	if err != nil || ret != 0 {
		t.Fatalf("execute: %d %v", ret, err)
	}
	fc := env.Chain.(*fakeChainer)
	if len(fc.chained) != 1 || fc.chained[0] != "worker" || string(fc.inputs[0]) != "payload" {
		t.Fatalf("chain record: %v %q", fc.chained, fc.inputs)
	}
	if string(out) != "out-worker" {
		t.Fatalf("chained output = %q", out)
	}
}

func TestWavmStateSharedBetweenFaaslets(t *testing.T) {
	// Faaslet A writes through a mapped state pointer; Faaslet B (same host)
	// reads the same bytes through its own mapping — zero copies, the
	// memory-sharing claim of §3.3/§4.2 end to end.
	env, engine := testEnv()
	engine.Set("shared-val", make([]byte, 64))

	writer := `(module
	  (import "faasm" "get_state" (func $get (param i32 i32 i32) (result i32)))
	  (import "faasm" "push_state" (func $push (param i32 i32)))
	  (memory 1)
	  (data (i32.const 0) "shared-val")
	  (func $main (export "main") (result i32) (local $p i32)
	    i32.const 0 i32.const 10 i32.const 64
	    call $get
	    local.set $p
	    ;; write 42 at value[8]
	    local.get $p
	    i32.const 8
	    i32.add
	    i32.const 42
	    i32.store
	    i32.const 0))`
	reader := `(module
	  (import "faasm" "get_state" (func $get (param i32 i32 i32) (result i32)))
	  (memory 1)
	  (data (i32.const 0) "shared-val")
	  (func $main (export "main") (result i32) (local $p i32)
	    i32.const 0 i32.const 10 i32.const 64
	    call $get
	    local.set $p
	    local.get $p
	    i32.const 8
	    i32.add
	    i32.load))`

	fw, err := New(FuncDef{Name: "writer", Module: mustModule(t, writer)}, env)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := New(FuncDef{Name: "reader", Module: mustModule(t, reader)}, env)
	if err != nil {
		t.Fatal(err)
	}
	if _, ret, err := fw.Execute(nil); err != nil || ret != 0 {
		t.Fatalf("writer: %d %v", ret, err)
	}
	_, ret, err := fr.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ret != 42 {
		t.Fatalf("reader saw %d, want 42 (no sharing?)", ret)
	}
	// Nothing was pushed: the global tier must still be zero.
	g, _ := engine.Get("shared-val")
	if g[8] != 0 {
		t.Fatal("write leaked to global tier without push")
	}
}

func TestWavmPushPullThroughGlobalTier(t *testing.T) {
	// Host 1 pushes; host 2 (separate local tier) pulls.
	engine := kvs.NewEngine()
	engine.Set("v", make([]byte, 8))
	env1 := &Env{State: state.NewLocalTier(engine)}
	env2 := &Env{State: state.NewLocalTier(engine)}

	pusher := `(module
	  (import "faasm" "get_state" (func $get (param i32 i32 i32) (result i32)))
	  (import "faasm" "push_state" (func $push (param i32 i32)))
	  (memory 1)
	  (data (i32.const 0) "v")
	  (func $main (export "main") (result i32) (local $p i32)
	    i32.const 0 i32.const 1 i32.const 8
	    call $get
	    local.set $p
	    local.get $p
	    i32.const 1234
	    i32.store
	    i32.const 0 i32.const 1
	    call $push
	    i32.const 0))`
	puller := `(module
	  (import "faasm" "get_state" (func $get (param i32 i32 i32) (result i32)))
	  (import "faasm" "pull_state" (func $pull (param i32 i32)))
	  (memory 1)
	  (data (i32.const 0) "v")
	  (func $main (export "main") (result i32) (local $p i32)
	    i32.const 0 i32.const 1
	    call $pull
	    i32.const 0 i32.const 1 i32.const 8
	    call $get
	    local.set $p
	    local.get $p
	    i32.load))`

	fp, err := New(FuncDef{Name: "pusher", Module: mustModule(t, pusher)}, env1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ret, err := fp.Execute(nil); err != nil || ret != 0 {
		t.Fatalf("pusher: %d %v", ret, err)
	}
	fq, err := New(FuncDef{Name: "puller", Module: mustModule(t, puller)}, env2)
	if err != nil {
		t.Fatal(err)
	}
	_, ret, err := fq.Execute(nil)
	if err != nil || ret != 1234 {
		t.Fatalf("puller: %d %v", ret, err)
	}
}

func TestWavmFileIO(t *testing.T) {
	env, _ := testEnv()
	src := fmt.Sprintf(`(module
	  (import "faasm" "open" (func $open (param i32 i32 i32) (result i32)))
	  (import "faasm" "read" (func $read (param i32 i32 i32) (result i32)))
	  (import "faasm" "close" (func $close (param i32) (result i32)))
	  (import "faasm" "write_call_output" (func $out (param i32 i32)))
	  (memory 1)
	  (data (i32.const 0) "etc/config")
	  (func $main (export "main") (result i32) (local $fd i32) (local $n i32)
	    i32.const 0 i32.const 10 i32.const %d
	    call $open
	    local.set $fd
	    local.get $fd
	    i32.const 0
	    i32.lt_s
	    if
	      i32.const 1
	      return
	    end
	    local.get $fd
	    i32.const 100
	    i32.const 64
	    call $read
	    local.set $n
	    i32.const 100
	    local.get $n
	    call $out
	    local.get $fd
	    call $close))`, vfs.ORdonly)
	f, err := New(FuncDef{Name: "reader", Module: mustModule(t, src)}, env)
	if err != nil {
		t.Fatal(err)
	}
	out, ret, err := f.Execute(nil)
	if err != nil || ret != 0 || string(out) != "cfg" {
		t.Fatalf("file read: %q %d %v", out, ret, err)
	}
}

func TestWavmMemoryCalls(t *testing.T) {
	env, _ := testEnv()
	src := `(module
	  (import "faasm" "sbrk" (func $sbrk (param i32) (result i32)))
	  (import "faasm" "mmap" (func $mmap (param i32) (result i32)))
	  (memory 1 8)
	  (func $main (export "main") (result i32) (local $old i32) (local $m i32)
	    ;; sbrk grows the break
	    i32.const 70000
	    call $sbrk
	    drop
	    ;; mmap returns a page-aligned fresh region
	    i32.const 100
	    call $mmap
	    local.set $m
	    ;; store/load through the new mapping
	    local.get $m
	    i32.const 7
	    i32.store
	    local.get $m
	    i32.load))`
	f, _ := New(FuncDef{Name: "mem", Module: mustModule(t, src)}, env)
	_, ret, err := f.Execute(nil)
	if err != nil || ret != 7 {
		t.Fatalf("memory calls: %d %v", ret, err)
	}
}

func TestMemoryLimitEnforced(t *testing.T) {
	env, _ := testEnv()
	src := `(module
	  (import "faasm" "mmap" (func $mmap (param i32) (result i32)))
	  (memory 1 1024)
	  (func $main (export "main") (result i32)
	    i32.const 1000000
	    call $mmap))`
	f, _ := New(FuncDef{Name: "hog", Module: mustModule(t, src), MemLimitPages: 4}, env)
	_, ret, err := f.Execute(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ret != -1 {
		t.Fatalf("mmap past limit returned %d, want -1", ret)
	}
}

func TestWavmMiscCalls(t *testing.T) {
	env, _ := testEnv()
	src := `(module
	  (import "faasm" "gettime" (func $time (result i64)))
	  (import "faasm" "getrandom" (func $rand (param i32 i32) (result i32)))
	  (memory 1)
	  (func $main (export "main") (result i32)
	    call $time
	    i64.const 0
	    i64.lt_s
	    if
	      i32.const 1
	      return
	    end
	    i32.const 0
	    i32.const 16
	    call $rand))`
	f, _ := New(FuncDef{Name: "misc", Module: mustModule(t, src)}, env)
	_, ret, err := f.Execute(nil)
	if err != nil || ret != 16 {
		t.Fatalf("misc: %d %v", ret, err)
	}
}

// TestRandomSeeding: getrandom and Ctx.Random draw from the same per-Faaslet
// PRNG, so one RandSeed gives the same bytes to a wavm and a native guest,
// and Faaslets left on the id-derived default draw different bytes. The
// length is not a multiple of the eight bytes one draw yields.
func TestRandomSeeding(t *testing.T) {
	const n = 29
	wasm := mustModule(t, fmt.Sprintf(`(module
	  (import "faasm" "getrandom" (func $rand (param i32 i32) (result i32)))
	  (import "faasm" "write_call_output" (func $out (param i32 i32)))
	  (memory 1)
	  (func $main (export "main") (result i32)
	    i32.const 0 i32.const %d call $rand drop
	    i32.const 0 i32.const %d call $out
	    i32.const 0))`, n, n))
	native := func(ctx *Ctx) (int32, error) {
		b := make([]byte, n)
		ctx.Random(b)
		ctx.WriteOutput(b)
		return 0, nil
	}
	draw := func(def FuncDef, seed int64) []byte {
		t.Helper()
		f, err := New(def, &Env{RandSeed: seed})
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := f.Execute(nil)
		if err != nil || len(out) != n {
			t.Fatalf("%s: %d random bytes, %v", def.Name, len(out), err)
		}
		return out
	}
	fromWasm := draw(FuncDef{Name: "rand-wasm", Module: wasm}, 42)
	fromNative := draw(FuncDef{Name: "rand-native", Native: native}, 42)
	if !bytes.Equal(fromWasm, fromNative) {
		t.Fatalf("seed 42: wavm guest drew %x, native guest %x", fromWasm, fromNative)
	}
	if bytes.Equal(fromWasm, make([]byte, n)) {
		t.Fatal("seed 42 drew only zeros")
	}
	a := draw(FuncDef{Name: "rand-native", Native: native}, 0)
	b := draw(FuncDef{Name: "rand-native", Native: native}, 0)
	if bytes.Equal(a, b) {
		t.Fatalf("two Faaslets on default seeds drew the same bytes %x", a)
	}
}

// TestSharedHostTableIsolation runs 64 echo Faaslets at once, half built and
// half restored from an image, beside one whose dlopen'd library makes the
// host calls. Every Faaslet links against the same host table, so the owner
// of the calling instance is all that keeps one Faaslet's input, output and
// global lock leases from another's; under -race this also shows the table
// is only ever read.
func TestSharedHostTableIsolation(t *testing.T) {
	const echoLock = `
	  (import "faasm" "read_call_input" (func $in (param i32 i32) (result i32)))
	  (import "faasm" "write_call_output" (func $out (param i32 i32)))
	  (import "faasm" "lock_state_global_read" (func $lock (param i32 i32)))
	  (memory 1)
	  (func $echo (export "%s") (result i32) (local $n i32)
	    i32.const 1024 i32.const 4096 call $in local.set $n
	    i32.const 1024 local.get $n call $lock
	    i32.const 1024 local.get $n call $out
	    i32.const 0)`
	lib, err := wavm.EncodeObject(mustModule(t, "(module"+fmt.Sprintf(echoLock, "echo")+")"))
	if err != nil {
		t.Fatal(err)
	}
	env, _ := testEnv()
	env.Files = vfs.NewMapGlobal(map[string][]byte{"lib/echo.so": lib})
	echo := FuncDef{Name: "echo", Module: mustModule(t, "(module"+fmt.Sprintf(echoLock, "main")+")")}
	viaLib := FuncDef{Name: "dl-echo", Module: mustModule(t, `(module
	  (import "faasm" "dlopen" (func $dlopen (param i32 i32) (result i32)))
	  (import "faasm" "dlsym" (func $dlsym (param i32 i32 i32) (result i32)))
	  (import "faasm" "dlcall" (func $dlcall (param i32 i32 i32 i32) (result i32)))
	  (memory 1)
	  (data (i32.const 0) "lib/echo.so")
	  (data (i32.const 32) "echo")
	  (func $main (export "main") (result i32)
	    i32.const 0 i32.const 11 call $dlopen
	    i32.const 32 i32.const 4 call $dlsym
	    i32.const 0 i32.const 0 i32.const 64 call $dlcall))`)}
	first, err := New(echo, env)
	if err != nil {
		t.Fatal(err)
	}
	image := first.Proto()

	var wg sync.WaitGroup
	for g := 0; g <= 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var f *Faaslet
			var err error
			switch {
			case g == 64:
				f, err = New(viaLib, env)
			case g%2 == 0:
				f, err = New(echo, env)
			default:
				f, err = NewFromProto(echo, env, image)
			}
			if err != nil {
				t.Error(err)
				return
			}
			for n := 0; n < 20; n++ {
				in := fmt.Sprintf("faaslet %d call %d", g, n)
				out, ret, err := f.Execute([]byte(in))
				if err != nil || ret != 0 || string(out) != in {
					t.Errorf("%s: got %q back, ret %d, %v", in, out, ret, err)
					return
				}
				if _, ok := f.globalLockTokens[in]; !ok || len(f.globalLockTokens) != 1 {
					t.Errorf("%s: holds leases %v", in, f.globalLockTokens)
					return
				}
				if err := f.Reset(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestResetDiscardsAllResidue(t *testing.T) {
	// The §5.2 multi-tenant guarantee: after Reset, the next call cannot
	// observe anything the previous call wrote.
	env, _ := testEnv()
	writeSecret := `(module
	  (memory 1)
	  (func $main (export "main") (result i32)
	    i32.const 100
	    i32.const 0x5ec7e7
	    i32.store
	    i32.const 0))`
	f, _ := New(FuncDef{Name: "tenant", Module: mustModule(t, writeSecret)}, env)
	if _, err := f.Snapshot(); err != nil { // proto before first call
		t.Fatal(err)
	}
	if _, _, err := f.Execute(nil); err != nil {
		t.Fatal(err)
	}
	// Memory now holds the secret.
	v, _ := f.Memory().ReadU32(100)
	if v != 0x5ec7e7 {
		t.Fatal("secret not written")
	}
	if err := f.Reset(); err != nil {
		t.Fatal(err)
	}
	v, _ = f.Memory().ReadU32(100)
	if v != 0 {
		t.Fatalf("secret survived reset: %#x", v)
	}
	// FS and sockets are also clean.
	if f.FS().OpenCount() != 0 || f.Net().OpenSockets() != 0 {
		t.Fatal("descriptors survived reset")
	}
}

func TestResetRestoresProtoContents(t *testing.T) {
	env, _ := testEnv()
	f, _ := New(FuncDef{
		Name: "init",
		Native: func(ctx *Ctx) (int32, error) {
			ctx.WriteOutput([]byte("ran"))
			return 0, nil
		},
		InitialPages: 2,
	}, env)
	// Simulate initialisation code: write interpreter state, snapshot.
	f.Memory().WriteBytes(0, []byte("initialised runtime state"))
	if _, err := f.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Scribble and reset.
	f.Memory().WriteBytes(0, []byte("scribbled garbage zzzzzzz"))
	if err := f.Reset(); err != nil {
		t.Fatal(err)
	}
	got, _ := f.Memory().ReadBytes(0, 25)
	if string(got) != "initialised runtime state" {
		t.Fatalf("proto contents lost: %q", got)
	}
}

func TestProtoCrossHostRestore(t *testing.T) {
	// Snapshot on "host 1", serialise, restore on "host 2" into a new
	// Faaslet — the OS-independent cross-host restore of §5.2.
	env1, _ := testEnv()
	counter := `(module
	  (global $n (mut i32) (i32.const 0))
	  (memory 1)
	  (func $main (export "main") (result i32)
	    global.get $n
	    i32.const 1
	    i32.add
	    global.set $n
	    ;; also bump a memory slot
	    i32.const 8
	    i32.const 8
	    i32.load
	    i32.const 1
	    i32.add
	    i32.store
	    i32.const 8
	    i32.load))`
	mod := mustModule(t, counter)
	f1, err := New(FuncDef{Name: "count", Module: mod}, env1)
	if err != nil {
		t.Fatal(err)
	}
	// Run twice: memory slot = 2, global = 2.
	f1.Execute(nil)
	if _, ret, _ := f1.Execute(nil); ret != 2 {
		t.Fatalf("warmup ret = %d", ret)
	}
	proto, err := f1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := proto.Serialize()
	if err != nil {
		t.Fatal(err)
	}

	env2, _ := testEnv()
	restored, err := DeserializeProto(blob)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := NewFromProto(FuncDef{Name: "count", Module: mod}, env2, restored)
	if err != nil {
		t.Fatal(err)
	}
	// The restored Faaslet continues from the snapshot: next count is 3.
	_, ret, err := f2.Execute(nil)
	if err != nil || ret != 3 {
		t.Fatalf("restored execution: %d %v", ret, err)
	}
}

func TestProtoFunctionMismatchRejected(t *testing.T) {
	env, _ := testEnv()
	f, _ := New(FuncDef{Name: "a", Native: func(ctx *Ctx) (int32, error) { return 0, nil }}, env)
	p, _ := f.Snapshot()
	g, _ := New(FuncDef{Name: "b", Native: func(ctx *Ctx) (int32, error) { return 0, nil }}, env)
	if err := g.SetProto(p); err == nil {
		t.Fatal("cross-function proto accepted")
	}
}

// A Proto's view for another name restores into that name's Faaslets (and
// only those), from the same pages and globals.
func TestProtoForSharesImage(t *testing.T) {
	env, _ := testEnv()
	mod := mustModule(t, `(module (global $g (mut i32) (i32.const 7)) (memory 1)
	  (func $main (export "main") (result i32) i32.const 8 i32.load global.get $g i32.add))`)
	f, err := New(FuncDef{Name: "a", Module: mod}, env)
	if err != nil {
		t.Fatal(err)
	}
	f.Memory().WriteU32(8, 35)
	p, err := f.Snapshot()
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	view := p.For("b")
	if view.Function != "b" || view.mem != p.mem || &view.globals[0] != &p.globals[0] {
		t.Fatal("view does not share the proto's pages and globals")
	}
	g, err := NewFromProto(FuncDef{Name: "b", Module: mod}, env, view)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, ret, err := g.Execute(nil); err != nil || ret != 42 {
		t.Fatalf("restored from the view: %d %v", ret, err)
	}
	if _, err := NewFromProto(FuncDef{Name: "a", Module: mod}, env, view); err == nil {
		t.Fatal("view for b restored into a")
	}
	if err := g.SetProto(p); err == nil {
		t.Fatal("b accepted the proto of a")
	}
}

func TestCtxStateRoundTrip(t *testing.T) {
	env, engine := testEnv()
	engine.Set("model", bytes.Repeat([]byte{9}, 32))
	f, _ := New(FuncDef{
		Name: "native-state",
		Native: func(ctx *Ctx) (int32, error) {
			buf, err := ctx.StateView("model", 32)
			if err != nil {
				return 1, err
			}
			if buf[0] != 9 {
				return 2, nil
			}
			buf[0] = 77
			if err := ctx.StatePush("model"); err != nil {
				return 3, err
			}
			return 0, nil
		},
	}, env)
	_, ret, err := f.Execute(nil)
	if err != nil || ret != 0 {
		t.Fatalf("native state: %d %v", ret, err)
	}
	g, _ := engine.Get("model")
	if g[0] != 77 {
		t.Fatal("push did not reach global tier")
	}
}

func TestCtxAppendAndLocks(t *testing.T) {
	env, engine := testEnv()
	f, _ := New(FuncDef{
		Name: "appender",
		Native: func(ctx *Ctx) (int32, error) {
			if err := ctx.LockGlobal("results", true); err != nil {
				return 1, err
			}
			ctx.StateAppend("results", []byte("x"))
			if err := ctx.UnlockGlobal("results"); err != nil {
				return 2, err
			}
			return 0, nil
		},
	}, env)
	if _, ret, err := f.Execute(nil); err != nil || ret != 0 {
		t.Fatalf("append: %d %v", ret, err)
	}
	g, _ := engine.Get("results")
	if string(g) != "x" {
		t.Fatalf("results = %q", g)
	}
}

func TestLeakedGlobalLockReleasedOnReset(t *testing.T) {
	env, _ := testEnv()
	f, _ := New(FuncDef{
		Name: "leaker",
		Native: func(ctx *Ctx) (int32, error) {
			return 0, ctx.LockGlobal("k", true) // never unlocks
		},
	}, env)
	if _, _, err := f.Execute(nil); err != nil {
		t.Fatal(err)
	}
	f.Reset()
	// Another Faaslet can take the lock immediately (not after lease TTL).
	done := make(chan struct{})
	go func() {
		tok, _ := env.State.LockGlobal("k", true)
		env.State.UnlockGlobal("k", tok)
		close(done)
	}()
	<-done
}

func TestWavmDynamicLinking(t *testing.T) {
	env, _ := testEnv()
	// The library exports add3; compile it to an object and place it in
	// the Faaslet filesystem (global tier), like an uploaded Python ext.
	lib := mustModule(t, `(module
	  (memory 1)
	  (func $add3 (export "add3") (param $x i64) (result i64)
	    local.get $x
	    i64.const 3
	    i64.add))`)
	blob, err := wavm.EncodeObject(lib)
	if err != nil {
		t.Fatal(err)
	}
	env.Files = vfs.NewMapGlobal(map[string][]byte{"libs/libadd.so": blob})

	src := `(module
	  (import "faasm" "dlopen" (func $dlopen (param i32 i32) (result i32)))
	  (import "faasm" "dlsym" (func $dlsym (param i32 i32 i32) (result i32)))
	  (import "faasm" "dlcall" (func $dlcall (param i32 i32 i32 i32) (result i32)))
	  (import "faasm" "dlclose" (func $dlclose (param i32) (result i32)))
	  (memory 1)
	  (data (i32.const 0) "libs/libadd.so")
	  (data (i32.const 32) "add3")
	  (func $main (export "main") (result i32)
	    (local $h i32) (local $sym i32)
	    i32.const 0 i32.const 14
	    call $dlopen
	    local.set $h
	    local.get $h
	    i32.const 0
	    i32.lt_s
	    if
	      i32.const -1
	      return
	    end
	    local.get $h
	    i32.const 32 i32.const 4
	    call $dlsym
	    local.set $sym
	    ;; args at 64: one u64 = 39
	    i32.const 64
	    i64.const 39
	    i64.store
	    local.get $sym
	    i32.const 64   ;; argsPtr
	    i32.const 1    ;; argc
	    i32.const 80   ;; retPtr
	    call $dlcall
	    drop
	    local.get $h
	    call $dlclose
	    drop
	    ;; load the result
	    i32.const 80
	    i64.load
	    i32.wrap_i64))`
	f, err := New(FuncDef{Name: "dl", Module: mustModule(t, src)}, env)
	if err != nil {
		t.Fatal(err)
	}
	_, ret, err := f.Execute(nil)
	if err != nil || ret != 42 {
		t.Fatalf("dlcall: %d %v", ret, err)
	}
}

func TestDlopenMissingLibrary(t *testing.T) {
	env, _ := testEnv()
	src := `(module
	  (import "faasm" "dlopen" (func $dlopen (param i32 i32) (result i32)))
	  (memory 1)
	  (data (i32.const 0) "nope.so")
	  (func $main (export "main") (result i32)
	    i32.const 0 i32.const 7
	    call $dlopen))`
	f, _ := New(FuncDef{Name: "dl", Module: mustModule(t, src)}, env)
	_, ret, err := f.Execute(nil)
	if err != nil || ret != -1 {
		t.Fatalf("missing lib: %d %v", ret, err)
	}
}

func TestFootprintSmall(t *testing.T) {
	env, _ := testEnv()
	f, _ := New(FuncDef{Name: "noop", Native: func(ctx *Ctx) (int32, error) { return 0, nil }}, env)
	if _, _, err := f.Execute(nil); err != nil {
		t.Fatal(err)
	}
	// A no-op Faaslet must stay in the KB range (Table 3: ~200 KB; ours is
	// tighter because pages are lazy).
	if fp := f.Footprint(); fp > 256*1024 {
		t.Fatalf("no-op footprint = %d bytes", fp)
	}
}

func TestGetStateOffsetChunked(t *testing.T) {
	env, engine := testEnv()
	big := make([]byte, 64*1024)
	binary.LittleEndian.PutUint32(big[32*1024:], 31337)
	engine.Set("big", big)
	src := `(module
	  (import "faasm" "get_state_offset" (func $geto (param i32 i32 i32 i32) (result i32)))
	  (memory 1)
	  (data (i32.const 0) "big")
	  (func $main (export "main") (result i32) (local $p i32)
	    i32.const 0 i32.const 3
	    i32.const 32768 i32.const 4
	    call $geto
	    local.set $p
	    local.get $p
	    i32.load))`
	f, _ := New(FuncDef{Name: "chunky", Module: mustModule(t, src)}, env)
	_, ret, err := f.Execute(nil)
	if err != nil || ret != 31337 {
		t.Fatalf("chunked get: %d %v", ret, err)
	}
	// Only the covering chunks were pulled, not all 64 KB.
	if pulled := env.State.Pulled.Value(); pulled >= 64*1024 {
		t.Fatalf("pulled %d bytes", pulled)
	}
}

func TestStdoutCapturedAsOutput(t *testing.T) {
	env, _ := testEnv()
	src := `(module
	  (import "faasm" "write" (func $write (param i32 i32 i32) (result i32)))
	  (memory 1)
	  (data (i32.const 0) "printed")
	  (func $main (export "main") (result i32)
	    i32.const 1   ;; stdout
	    i32.const 0
	    i32.const 7
	    call $write
	    drop
	    i32.const 0))`
	f, _ := New(FuncDef{Name: "printer", Module: mustModule(t, src)}, env)
	out, _, err := f.Execute(nil)
	if err != nil || string(out) != "printed" {
		t.Fatalf("stdout capture: %q %v", out, err)
	}
}

func BenchmarkFaasletColdStart(b *testing.B) {
	env, _ := testEnv()
	mod, _ := wavm.AssembleAndValidate(`(module (memory 1) (func $main (export "main") (result i32) i32.const 0))`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := New(FuncDef{Name: "noop", Module: mod}, env)
		if err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}

func BenchmarkProtoRestore(b *testing.B) {
	env, _ := testEnv()
	mod, _ := wavm.AssembleAndValidate(`(module (memory 4) (func $main (export "main") (result i32) i32.const 0))`)
	f, _ := New(FuncDef{Name: "noop", Module: mod}, env)
	f.Memory().WriteBytes(0, bytes.Repeat([]byte{1}, 4*64*1024))
	proto, _ := f.Snapshot()
	def := FuncDef{Name: "noop", Module: mod}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := NewFromProto(def, env, proto)
		if err != nil {
			b.Fatal(err)
		}
		g.Close()
	}
}
