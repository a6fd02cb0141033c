package wavm

import (
	"errors"
	"fmt"
	"testing"

	"faasm.dev/faasm/internal/wamem"
)

// resetCase is one instance with the reset image a Faaslet would capture of
// it: its memory snapshotted and its globals copied once instantiation
// (data segments, start function) is done.
type resetCase struct {
	inst    *Instance
	image   *wamem.Snapshot
	globals []uint64
}

func newResetCase(mod *Module, hosts map[string]HostModule, fuel int64) (*resetCase, error) {
	inst, err := Instantiate(mod, hosts, WithFuel(fuel), WithMaxCallDepth(64))
	if err != nil {
		return nil, err
	}
	c := &resetCase{inst: inst, globals: inst.Globals()}
	if inst.mem != nil {
		c.image = inst.mem.Snapshot()
	}
	return c, nil
}

// reset is core.Faaslet.Reset's VM half.
func (c *resetCase) reset() error {
	if c.image != nil {
		c.inst.mem.RestoreFrom(c.image)
	}
	return c.inst.Reset(c.globals)
}

// outcome is what one call leaves observable.
func (c *resetCase) outcome(name string, args []uint64) string {
	i := c.inst
	steps, fuel := i.Steps, i.Fuel
	res, err := i.Call(name, args...)
	var t *Trap
	if errors.As(err, &t) {
		err = errors.New(string(t.Kind)) // kinds, not the function index a trap names
	}
	return fmt.Sprintf("%v %v steps=%d fuel=%d globals=%v sp=%d frames=%d",
		res, err, i.Steps-steps, fuel-i.Fuel, i.globals, i.sp, len(i.frames))
}

// requireResetClean runs call A on an instance, resets it, runs call B, and
// requires B's outcome and the memory it leaves to equal B's on an instance
// that never ran anything.
func requireResetClean(t *testing.T, mod *Module, hosts map[string]HostModule, fuelA, fuelB int64,
	nameA string, argsA []uint64, nameB string, argsB []uint64) {
	t.Helper()
	used, err := newResetCase(mod, hosts, fuelB)
	if err != nil {
		return // an unresolved import or a trapping start function: nothing to reset
	}
	used.inst.Fuel = fuelA // A may run on a budget that stops it mid-frame; the reset refills to B's
	used.outcome(nameA, argsA)
	if used.inst.mem != nil {
		// Leave more behind than A did: a grown page, every page dirty, the break moved.
		used.inst.mem.Grow(1)
		used.inst.mem.Fill(0, 0xA5, int(used.inst.mem.Size()))
		used.inst.mem.SetBrk(12345)
	}
	for r := range used.inst.regs {
		used.inst.regs[r] = 0xA5A5A5A5A5A5A5A5
	}
	if err := used.reset(); err != nil {
		t.Fatal(err)
	}
	fresh, err := newResetCase(mod, hosts, fuelB)
	if err != nil {
		t.Fatal(err)
	}
	got, want := used.outcome(nameB, argsB), fresh.outcome(nameB, argsB)
	if got != want {
		t.Fatalf("%s%v after %s%v and a reset:\n  %s\non a fresh instance:\n  %s", nameB, argsB, nameA, argsA, got, want)
	}
	if at, ok := memDiff(used.inst.mem, fresh.inst.mem); !ok {
		t.Fatalf("%s%v after %s%v and a reset: memory differs from a fresh instance's at %#x", nameB, argsB, nameA, argsA, at)
	}
	if used.inst.mem != nil && used.inst.mem.Brk() != fresh.inst.mem.Brk() {
		t.Fatalf("brk %d after a reset, fresh instance %d", used.inst.mem.Brk(), fresh.inst.mem.Brk())
	}
}

// gridArgs picks the r-th argument tuple for ft from argGrid, the way
// driveModule does.
func gridArgs(ft FuncType, r int) []uint64 {
	args := make([]uint64, len(ft.Params))
	for i, pt := range ft.Params {
		grid := argGrid[pt]
		args[i] = grid[(r*(i+1)+r/len(grid)*i)%len(grid)]
	}
	return args
}

// TestResetIsolationCorpus is the reuse guarantee over the differential
// corpus: for every module, every pair of exports (A, B) and a spread of
// arguments, "A, reset, B" is indistinguishable from "B" — results, trap
// kind, Steps, Fuel, globals, call stack and every byte of memory. A runs
// both to completion and on fuel budgets that stop it in the middle of a
// frame, a loop or a host call.
func TestResetIsolationCorpus(t *testing.T) {
	for name, src := range watCorpus {
		mod, err := AssembleAndValidate(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Run(name, func(t *testing.T) {
			var funcs []Export
			for _, e := range mod.Exports {
				if e.Kind == ExportFunc {
					funcs = append(funcs, e)
				}
			}
			for ai, a := range funcs {
				fa, _ := mod.FuncTypeAt(a.Index)
				for bi, b := range funcs {
					fb, _ := mod.FuncTypeAt(b.Index)
					for r, fuelA := range []int64{20000, 3, 17, 150} {
						requireResetClean(t, mod, diffHosts, fuelA, 20000,
							a.Name, gridArgs(fa, ai+bi+3*r), b.Name, gridArgs(fb, ai+2*bi+r))
					}
				}
			}
		})
	}
}

// TestResetAfterHostReentryTrap traps three entries deep — guest, host, guest,
// host, guest — so the call unwinds through nested entry frames with the
// free-register mark raised; the reset instance must match a fresh one, and
// so must one whose register file a deep recursion grew past what a reset
// keeps.
func TestResetAfterHostReentryTrap(t *testing.T) {
	mod, err := AssembleAndValidate(`(module
	  (import "env" "again" (func $again (param i32) (result i32)))
	  (memory 1)
	  (global $entries (mut i32) (i32.const 0))
	  (func $outer (export "outer") (param $x i32) (result i32) (local $keep i64)
	    global.get $entries i32.const 1 i32.add global.set $entries
	    local.get $x i32.const 8 i32.mul local.get $x i32.store
	    local.get $x i32.const 3 i32.ge_s
	    if i32.const 0x7ffffff0 i32.load drop end
	    local.get $x call $again)
	  (func $deep (export "deep") (param $n i32) (result i32) (local $pad i64) (local $pad2 i64)
	    local.get $n i32.eqz
	    if (result i32) i32.const 0 else local.get $n i32.const 1 i32.sub call $deep i32.const 1 i32.add end))`)
	if err != nil {
		t.Fatal(err)
	}
	hosts := map[string]HostModule{"env": {"again": func(inst *Instance, a []uint64) ([]uint64, error) {
		return inst.Call("outer", EncodeI32(DecodeI32(a[0])+1))
	}}}
	probe, err := newResetCase(mod, hosts, -1)
	if err != nil {
		t.Fatal(err)
	}
	if out := probe.outcome("outer", []uint64{1}); probe.inst.globals[0] != 3 {
		t.Fatalf("outer(1) did not trap three entries deep: %s", out)
	}
	requireResetClean(t, mod, hosts, -1, -1, "outer", []uint64{1}, "outer", []uint64{2})
	requireResetClean(t, mod, hosts, -1, -1, "outer", []uint64{1}, "deep", []uint64{40})

	// A deep call raises the register file's high-water mark; the reset clears
	// exactly that prefix and keeps the storage, and a shallow call afterwards
	// leaves a shallow mark for the next reset.
	big, err := Instantiate(mod, hosts, WithMaxCallDepth(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := big.Call("deep", 30000); err != nil || len(big.regs) < 30000 {
		t.Fatalf("deep(30000): %v, register file of %d", err, len(big.regs))
	}
	storage := cap(big.regs)
	if err := big.Reset(big.Globals()); err != nil || len(big.regs) != 0 || cap(big.regs) != storage {
		t.Fatalf("reset left a register file of %d/%d (was %d): %v", len(big.regs), cap(big.regs), storage, err)
	}
	for r, v := range big.regs[:storage] {
		if v != 0 {
			t.Fatalf("register %d holds %#x after the reset", r, v)
		}
	}
	if res, err := big.Call("deep", 5); err != nil || res[0] != 5 || len(big.regs) > 100 {
		t.Fatalf("deep(5) after the reset: %v, %v, high-water mark %d", res, err, len(big.regs))
	}
}
