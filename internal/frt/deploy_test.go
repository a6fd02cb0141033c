package frt

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasm.dev/faasm/internal/core"
	"faasm.dev/faasm/internal/wavm"
)

// versioned assembles a module whose main writes the two-byte version v as
// its output.
func versioned(t *testing.T, v string) *wavm.Module {
	t.Helper()
	mod, err := wavm.AssembleAndValidate(`(module (memory 1) (data (i32.const 8) "` + v + `")
	  (import "faasm" "write_call_output" (func $out (param i32 i32)))
	  (func $main (export "main") (result i32) i32.const 8 i32.const 2 call $out i32.const 0))`)
	if err != nil {
		t.Fatal(err)
	}
	return mod
}

func callOut(t *testing.T, inst *Instance, fn string) string {
	t.Helper()
	out, ret, err := inst.Call(fn, nil)
	if err != nil || ret != 0 {
		t.Fatalf("call %s: %d %v", fn, ret, err)
	}
	return string(out)
}

// TestColdStartsRestoreTheDeployImage: every cold start restores the image
// deployment built, sharing its pages, and a redeployment under the same
// name replaces it.
func TestColdStartsRestoreTheDeployImage(t *testing.T) {
	inst := New(Config{Host: "h1"})
	defer inst.Shutdown()
	pair := func(want string) {
		t.Helper()
		d, _ := inst.deployed("fn")
		if len(d.def.Module.Data) != 0 {
			t.Fatal("the record keeps a second copy of the data segments")
		}
		for n := 0; n < 2; n++ {
			f, err := inst.coldStart(d)
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := f.Execute(nil)
			f.Close()
			if err != nil || string(out) != want {
				t.Fatalf("faaslet %d of %q: %q, %v", n, want, out, err)
			}
			if f.Proto() != d.proto {
				t.Fatalf("faaslet %d of %q did not restore the deploy image", n, want)
			}
		}
	}
	if err := inst.RegisterModule("fn", versioned(t, "v1")); err != nil {
		t.Fatal(err)
	}
	pair("v1")
	if err := inst.RegisterModule("fn", versioned(t, "v2")); err != nil {
		t.Fatal(err)
	}
	pair("v2")
}

// A redeploy takes effect on the next call although the earlier call left a
// warm Faaslet of the old body in the pool.
func TestRedeployAfterWarmCall(t *testing.T) {
	inst := New(Config{Host: "h1"})
	defer inst.Shutdown()
	inst.RegisterModule("fn", versioned(t, "v1"))
	if got := callOut(t, inst, "fn"); got != "v1" {
		t.Fatalf("first call: %q", got)
	}
	if err := inst.RegisterModule("fn", versioned(t, "v2")); err != nil {
		t.Fatal(err)
	}
	if got := callOut(t, inst, "fn"); got != "v2" {
		t.Fatalf("call after redeploy: %q, want v2", got)
	}
	if got := callOut(t, inst, "fn"); got != "v2" {
		t.Fatalf("warm call after redeploy: %q, want v2", got)
	}
}

// A redeploy takes effect on the next cold call although a Proto-Faaslet was
// generated from the old body.
func TestRedeployAfterGenerateProto(t *testing.T) {
	inst := New(Config{Host: "h1"})
	defer inst.Shutdown()
	inst.RegisterModule("fn", versioned(t, "v1"))
	if err := inst.GenerateProto("fn", nil); err != nil {
		t.Fatal(err)
	}
	if err := inst.RegisterModule("fn", versioned(t, "v2")); err != nil {
		t.Fatal(err)
	}
	if got := callOut(t, inst, "fn"); got != "v2" {
		t.Fatalf("cold call after redeploy: %q, want v2", got)
	}
	if n := inst.ColdStarts.Value(); n != 1 {
		t.Fatalf("cold starts = %d, want 1", n)
	}
}

// Calls racing a redeploy each run one body or the other, and every call
// that starts after RegisterModule returned runs the new one.
func TestRedeployUnderConcurrentCalls(t *testing.T) {
	inst := New(Config{Host: "h1", PoolCap: 4})
	defer inst.Shutdown()
	inst.RegisterModule("fn", versioned(t, "v1"))
	var (
		redeployed atomic.Bool
		stop       atomic.Bool
		v2Calls    atomic.Int64
		wg         sync.WaitGroup
		errs       = make(chan string, 8)
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				after := redeployed.Load()
				out, ret, err := inst.Call("fn", nil)
				switch got := string(out); {
				case err != nil || ret != 0:
					errs <- "call failed: " + err.Error()
					return
				case got != "v1" && got != "v2":
					errs <- "unknown body " + got
					return
				case after && got != "v2":
					errs <- "call started after the redeploy returned " + got
					return
				case after:
					v2Calls.Add(1)
				}
			}
		}()
	}
	for inst.WarmStarts.Value() < 50 && len(errs) == 0 {
		runtime.Gosched() // let the pool fill with warm v1 Faaslets first
	}
	if err := inst.RegisterModule("fn", versioned(t, "v2")); err != nil {
		t.Fatal(err)
	}
	redeployed.Store(true)
	for v2Calls.Load() < 200 && len(errs) == 0 {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// A module whose start function traps cannot be deployed: the failure shows
// at RegisterModule, not on every call.
func TestTrappingStartRejectedAtDeploy(t *testing.T) {
	inst := New(Config{Host: "h1"})
	defer inst.Shutdown()
	mod, err := wavm.AssembleAndValidate(`(module (memory 1)
	  (func $init unreachable)
	  (start $init)
	  (func $main (export "main") (result i32) i32.const 0))`)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.RegisterModule("fn", mod); err == nil {
		t.Fatal("module with a trapping start function deployed")
	}
	if _, _, err := inst.Call("fn", nil); err == nil || !strings.Contains(err.Error(), "unknown function") {
		t.Fatalf("call of a rejected module: %v", err)
	}
	if err := inst.RegisterDef(core.FuncDef{Name: "empty"}); err == nil {
		t.Fatal("def with no body deployed")
	}
}

// object returns DeployObject's supplier of v's object file, counting the
// calls in *calls.
func object(t *testing.T, v string, calls *atomic.Int64) func() ([]byte, error) {
	t.Helper()
	obj, err := wavm.EncodeObject(versioned(t, v))
	if err != nil {
		t.Fatal(err)
	}
	return func() ([]byte, error) {
		calls.Add(1)
		return obj, nil
	}
}

// Two names deployed from one content key share one image — module and
// Proto-Faaslet — built from one object, and each still restores under
// its own name.
func TestNamesShareAnImage(t *testing.T) {
	inst := New(Config{Host: "h1"})
	defer inst.Shutdown()
	var calls atomic.Int64
	for _, name := range []string{"a", "b"} {
		if err := inst.DeployObject(name, "k1", object(t, "v1", &calls)); err != nil {
			t.Fatal(err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("object fetched %d times for one key", n)
	}
	da, _ := inst.deployed("a")
	db, _ := inst.deployed("b")
	if da.img == nil || da.img != db.img || da.def.Module != db.def.Module || da.img.refs != 2 {
		t.Fatalf("a and b do not share one image: %p %p", da.img, db.img)
	}
	if da.proto.Function != "a" || db.proto.Function != "b" {
		t.Fatalf("image views named %q and %q", da.proto.Function, db.proto.Function)
	}
	for _, name := range []string{"a", "b"} {
		if got := callOut(t, inst, name); got != "v1" {
			t.Fatalf("%s: %q", name, got)
		}
	}
	if n := inst.Images(); n != 1 {
		t.Fatalf("images = %d, want 1", n)
	}
}

// Redeploying one name of a shared image touches no other: b keeps serving
// the old body from its warm pool, and the old image lives until b leaves
// it too.
func TestRedeployOneNameOfASharedImage(t *testing.T) {
	inst := New(Config{Host: "h1"})
	defer inst.Shutdown()
	var calls atomic.Int64
	inst.DeployObject("a", "k1", object(t, "v1", &calls))
	inst.DeployObject("b", "k1", object(t, "v1", &calls))
	callOut(t, inst, "b")
	waitPool(t, inst, "b", 1)
	if err := inst.DeployObject("a", "k2", object(t, "v2", &calls)); err != nil {
		t.Fatal(err)
	}
	if got := callOut(t, inst, "a"); got != "v2" {
		t.Fatalf("a after its redeploy: %q", got)
	}
	if n := inst.PoolSize("b"); n != 1 {
		t.Fatalf("b's pool holds %d after a's redeploy, want 1", n)
	}
	warm := inst.WarmStarts.Value()
	if got := callOut(t, inst, "b"); got != "v1" {
		t.Fatalf("b after a's redeploy: %q", got)
	}
	if inst.WarmStarts.Value() != warm+1 {
		t.Fatal("b's call after a's redeploy was not warm")
	}
	if n := inst.Images(); n != 2 {
		t.Fatalf("images = %d, want 2 while b is on k1", n)
	}
	if err := inst.DeployObject("b", "k2", object(t, "v2", &calls)); err != nil {
		t.Fatal(err)
	}
	if n := inst.Images(); n != 1 {
		t.Fatalf("images = %d once both left k1, want 1", n)
	}
	if _, ok := inst.images["k1"]; ok {
		t.Fatal("k1's image outlived its last name")
	}
	// RegisterModule builds a private image, dropping a's reference to k2.
	inst.RegisterModule("a", versioned(t, "v3"))
	inst.RegisterModule("b", versioned(t, "v3"))
	if n := inst.Images(); n != 0 {
		t.Fatalf("images = %d after both names got private images", n)
	}
}

// waitPool waits for fn's pool to hold n Faaslets (resets run in the
// background after a call returns).
func waitPool(t *testing.T, inst *Instance, fn string, n int) {
	t.Helper()
	for inst.PoolSize(fn) != n {
		runtime.Gosched()
	}
}

// An object that cannot be built files no image, and the name keeps the
// version it had.
func TestFailedObjectFilesNoImage(t *testing.T) {
	inst := New(Config{Host: "h1"})
	defer inst.Shutdown()
	var calls atomic.Int64
	inst.DeployObject("a", "k1", object(t, "v1", &calls))
	trap, err := wavm.AssembleAndValidate(`(module (memory 1) (func $init unreachable) (start $init)
	  (func $main (export "main") (result i32) i32.const 0))`)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := wavm.EncodeObject(trap)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if err := inst.DeployObject(name, "trap", func() ([]byte, error) { return obj, nil }); err == nil {
			t.Fatalf("%s: a trapping start function deployed", name)
		}
	}
	if _, ok := inst.images["trap"]; ok || inst.Images() != 1 {
		t.Fatalf("a failed build left an image: %d images", inst.Images())
	}
	if got := callOut(t, inst, "a"); got != "v1" {
		t.Fatalf("a after a refused redeploy: %q", got)
	}
}

// A Proto generated for one name of a shared image is that name's own: the
// other name restores the shared image still.
func TestGenerateProtoLeavesTheSharedImage(t *testing.T) {
	inst := New(Config{Host: "h1"})
	defer inst.Shutdown()
	var calls atomic.Int64
	inst.DeployObject("a", "k1", object(t, "v1", &calls))
	inst.DeployObject("b", "k1", object(t, "v1", &calls))
	before, _ := inst.deployed("b")
	err := inst.GenerateProto("a", func(ctx *core.Ctx) error {
		return ctx.Memory().WriteBytes(8, []byte("pa"))
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := callOut(t, inst, "a"); got != "pa" {
		t.Fatalf("a after GenerateProto: %q", got)
	}
	if after, _ := inst.deployed("b"); after != before {
		t.Fatal("GenerateProto on a redeployed b")
	}
	if got := callOut(t, inst, "b"); got != "v1" {
		t.Fatalf("b after GenerateProto on a: %q", got)
	}
	// a keeps its reference to the shared module.
	if da, _ := inst.deployed("a"); da.img != before.img || da.img.refs != 2 {
		t.Fatal("GenerateProto moved a off the shared image")
	}
}

// Concurrent deploys of one new key end with one image referenced once per
// name, whichever build filed it.
func TestConcurrentDeploysOfOneKey(t *testing.T) {
	inst := New(Config{Host: "h1"})
	defer inst.Shutdown()
	const names = 8
	var calls atomic.Int64
	var wg sync.WaitGroup
	for n := 0; n < names; n++ {
		name, obj := string(rune('a'+n)), object(t, "v1", &calls)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := inst.DeployObject(name, "k1", obj); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := inst.Images(); n != 1 {
		t.Fatalf("images = %d, want 1", n)
	}
	if refs := inst.images["k1"].refs; refs != names {
		t.Fatalf("k1 refs = %d, want %d", refs, names)
	}
	for n := 0; n < names; n++ {
		name := string(rune('a' + n))
		if d, _ := inst.deployed(name); d.img != inst.images["k1"] {
			t.Fatalf("%s is not on the filed image", name)
		}
		if got := callOut(t, inst, name); got != "v1" {
			t.Fatalf("%s: %q", name, got)
		}
	}
}

// gatedDeploys starts n concurrent DeployObject calls of one new key under
// names a, b, ..., each with object as its supplier, and opens gate once
// every call has started and had a moment to reach the build. It returns
// each call's error.
func gatedDeploys(inst *Instance, n int, gate chan struct{}, object func() ([]byte, error)) []error {
	errs := make([]error, n)
	var started sync.WaitGroup
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		started.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			started.Done()
			errs[k] = inst.DeployObject(string(rune('a'+k)), "k1", object)
		}()
	}
	started.Wait()
	time.Sleep(time.Millisecond)
	close(gate)
	wg.Wait()
	return errs
}

// Concurrent deploys of one new key build it once: the deploys that find it
// building wait for that build and take its image.
func TestConcurrentDeploysBuildOnce(t *testing.T) {
	inst := New(Config{Host: "h1"})
	defer inst.Shutdown()
	const names = 8
	var calls atomic.Int64
	obj := object(t, "v1", &calls)
	gate := make(chan struct{})
	errs := gatedDeploys(inst, names, gate, func() ([]byte, error) {
		<-gate
		return obj()
	})
	for k, err := range errs {
		if err != nil {
			t.Fatalf("deploy %d: %v", k, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("object fetched %d times for %d concurrent deploys of one key, want 1", n, names)
	}
	if n, refs := inst.Images(), inst.images["k1"].refs; n != 1 || refs != names {
		t.Fatalf("images = %d, k1 refs = %d; want 1, %d", n, refs, names)
	}
	if got := callOut(t, inst, "h"); got != "v1" {
		t.Fatalf("h: %q", got)
	}
}

// A build that fails hands its error to every deploy that waited on it,
// files nothing, and a later deploy of the key builds it afresh.
func TestFailedBuildErrorReachesEveryWaiter(t *testing.T) {
	inst := New(Config{Host: "h1"})
	defer inst.Shutdown()
	const names = 8
	broken := errors.New("codegen failed")
	var calls atomic.Int64
	gate := make(chan struct{})
	errs := gatedDeploys(inst, names, gate, func() ([]byte, error) {
		calls.Add(1)
		<-gate
		return nil, broken
	})
	for k, err := range errs {
		if !errors.Is(err, broken) {
			t.Fatalf("deploy %d: %v, want the build's error", k, err)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("object fetched %d times for %d concurrent deploys of one key, want 1", n, names)
	}
	if n := inst.Images(); n != 0 || len(inst.Functions()) != 0 {
		t.Fatalf("a failed build left %d images and functions %v", n, inst.Functions())
	}
	if err := inst.DeployObject("a", "k1", object(t, "v1", &calls)); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("object fetched %d times in all, want 2 (the retry builds)", n)
	}
	if got := callOut(t, inst, "a"); got != "v1" {
		t.Fatalf("a after the retry: %q", got)
	}
}

// One more deploy costs the same bytes however many functions are deployed:
// deploy no longer copies the name → record table.
func TestDeployCostFlatInDeployedFunctions(t *testing.T) {
	perDeploy := func(deployed int) uint64 {
		inst := New(Config{Host: "h1"})
		defer inst.Shutdown()
		var calls atomic.Int64
		obj := object(t, "v1", &calls)
		for n := 0; n < deployed; n++ {
			if err := inst.DeployObject(fmt.Sprintf("fn-%d", n), "k1", obj); err != nil {
				t.Fatal(err)
			}
		}
		names := make([]string, 100)
		for n := range names {
			names[n] = fmt.Sprintf("more-%d", n)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, name := range names {
			inst.DeployObject(name, "k1", obj)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(len(names))
	}
	small, large := perDeploy(10), perDeploy(2000)
	t.Logf("bytes per deploy: %d at 10 deployed, %d at 2000", small, large)
	if large > 2*small {
		t.Fatalf("a deploy at 2000 deployed allocates %d bytes, over twice the %d at 10", large, small)
	}
}
