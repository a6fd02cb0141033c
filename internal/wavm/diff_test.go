package wavm

import (
	"bytes"
	"errors"
	"testing"

	"faasm.dev/faasm/internal/wamem"
)

// pair is one module instantiated twice — once for the lowered engine, once
// for the reference engine (ref_test.go) — and driven in lock step. Every
// call runs on both, and any difference in results, trap kind, globals,
// memory contents, Steps or Fuel fails the test. The package's tests build
// their instances through it, so each of them is also a differential test.
type pair struct {
	t        testing.TB
	low, ref *Instance
	// The engines' Steps and Fuel as of the last comparison: a trap leaves
	// the lowered engine up to a block ahead for good, so each call is
	// judged on what it added.
	lowSteps, refSteps uint64
	lowFuel, refFuel   int64
}

// newPair instantiates mod for both engines. opts is called once per
// engine, so options that carry state (WithMemory) give each its own.
func newPair(t testing.TB, mod *Module, imports map[string]HostModule, opts func() []InstanceOption) (*pair, error) {
	t.Helper()
	if opts == nil {
		opts = func() []InstanceOption { return nil }
	}
	low, lowErr := Instantiate(mod, imports, opts()...)
	ref, refErr := refInstantiate(mod, imports, opts()...)
	p := &pair{t: t, low: low, ref: ref}
	if (lowErr == nil) != (refErr == nil) {
		t.Fatalf("instantiate: lowered engine says %v, reference says %v", lowErr, refErr)
	}
	if lowErr != nil {
		p.sameError("instantiate", lowErr, refErr)
		return nil, lowErr
	}
	// The start function, if any, has already spent from the configured fuel.
	budget := Instance{Fuel: -1}
	for _, o := range opts() {
		o(&budget)
	}
	p.lowFuel, p.refFuel = budget.Fuel, budget.Fuel
	p.sameState("instantiate", false, false)
	return p, nil
}

// Call invokes an exported function on both engines and returns the lowered
// engine's outcome.
func (p *pair) Call(name string, args ...uint64) ([]uint64, error) {
	p.t.Helper()
	lowRes, lowErr := p.low.Call(name, args...)
	refRes, refErr := p.ref.refCall(name, args...)
	fuelTrap := p.sameError(name, lowErr, refErr)
	if lowErr == nil && !equalU64(lowRes, refRes) {
		p.t.Fatalf("%s%v: lowered engine returned %v, reference %v", name, args, lowRes, refRes)
	}
	p.sameState(name, lowErr != nil, fuelTrap)
	return lowRes, lowErr
}

// Steps returns the lowered engine's step count.
func (p *pair) Steps() uint64 { return p.low.Steps }

// sameError requires the two outcomes to agree: both fine, or the same trap
// kind, or the same plain error. One divergence is by design: the lowered
// engine tests fuel a block at a time, so it may report exhaustion where
// the reference, with less than one block of fuel left, ran into another
// trap first. It reports whether a fuel trap was involved, in which case
// the engines stopped at different instructions and their state may differ.
func (p *pair) sameError(what string, lowErr, refErr error) (fuelTrap bool) {
	p.t.Helper()
	var lt, rt *Trap
	switch {
	case lowErr == nil && refErr == nil:
		return false
	case errors.As(lowErr, &lt) && errors.As(refErr, &rt):
		if lt.Kind == TrapFuelExhausted && rt.Kind != TrapFuelExhausted && p.low != nil &&
			p.ref.Fuel >= 0 && uint64(p.ref.Fuel) < maxBlock(p.low.low) {
			return true
		}
		if lt.Kind != rt.Kind {
			p.t.Fatalf("%s: lowered engine trapped with %q, reference with %q", what, lt.Kind, rt.Kind)
		}
		return lt.Kind == TrapFuelExhausted
	case lowErr != nil && refErr != nil && lt == nil && rt == nil && lowErr.Error() == refErr.Error():
		return false
	}
	p.t.Fatalf("%s: lowered engine says %v, reference says %v", what, lowErr, refErr)
	return false
}

// sameState compares everything a guest can observe or be charged for.
// Steps must be identical unless the call trapped; on a trap the lowered
// engine, which charges a block on entry, may be ahead by less than a block.
func (p *pair) sameState(what string, trapped, fuelTrap bool) {
	p.t.Helper()
	low, ref, block := p.low, p.ref, maxBlock(p.low.low)
	lowSteps, refSteps := low.Steps-p.lowSteps, ref.Steps-p.refSteps
	lowFuel, refFuel := p.lowFuel-low.Fuel, p.refFuel-ref.Fuel
	p.lowSteps, p.refSteps, p.lowFuel, p.refFuel = low.Steps, ref.Steps, low.Fuel, ref.Fuel
	switch ahead := lowSteps - refSteps; {
	case fuelTrap:
		// The engines stopped at different instructions, both within one
		// block of running dry; nothing else is comparable.
		if ahead >= block && -ahead >= block {
			p.t.Fatalf("%s: %d steps vs the reference's %d up to a fuel trap: a block (%d) or more apart", what, lowSteps, refSteps, block)
		}
		return
	case !trapped && ahead != 0:
		p.t.Fatalf("%s: %d steps, reference %d", what, lowSteps, refSteps)
	case ahead >= block:
		p.t.Fatalf("%s: %d steps vs the reference's %d up to a trap: not less than a block (%d) ahead", what, lowSteps, refSteps, block)
	}
	if low.Fuel >= 0 && (uint64(lowFuel) != lowSteps || uint64(refFuel) != refSteps) {
		p.t.Fatalf("%s: fuel spent (%d, reference %d) is not steps taken (%d, reference %d)", what, lowFuel, refFuel, lowSteps, refSteps)
	}
	if !equalU64(low.globals, ref.globals) {
		p.t.Fatalf("%s: globals %v, reference %v", what, low.globals, ref.globals)
	}
	if at, ok := memDiff(low.mem, ref.mem); !ok {
		p.t.Fatalf("%s: memories differ at %#x", what, at)
	}
}

// maxBlock returns the largest step count any one basic block of l charges.
func maxBlock(l *lowered) uint64 {
	n := uint64(1)
	for _, f := range l.funcs {
		for _, in := range f.code {
			if in.op == lCharge && in.imm > n {
				n = in.imm
			}
		}
	}
	return n
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// memDiff compares two memories page by page, an untouched page equal to a
// page of zeroes; it returns the first differing address.
func memDiff(a, b *wamem.Memory) (uint64, bool) {
	if a == nil || b == nil {
		return 0, a == b
	}
	if a.Pages() != b.Pages() {
		return uint64(min(a.Pages(), b.Pages())) * wamem.PageSize, false
	}
	var zero [wamem.PageSize]byte
	for idx := uint64(0); idx < uint64(a.Pages()); idx++ {
		pa, pb := a.ReadablePage(idx), b.ReadablePage(idx)
		if pa == nil {
			pa = zero[:]
		}
		if pb == nil {
			pb = zero[:]
		}
		if !bytes.Equal(pa, pb) {
			for i := range pa {
				if pa[i] != pb[i] {
					return idx*wamem.PageSize + uint64(i), false
				}
			}
		}
	}
	return 0, true
}
