package frt

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

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
