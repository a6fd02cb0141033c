package core

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"faasm.dev/faasm/internal/wamem"
	"faasm.dev/faasm/internal/wavm"
)

// Proto is a Proto-Faaslet (§5.2): a snapshot of a Faaslet's arbitrary
// execution state — linear memory (stack, heap, data, break) plus the
// module globals — captured after user-defined initialisation code has run.
// Restores are copy-on-write and cost O(page table); the same Proto can be
// restored concurrently into many Faaslets, and serialised Protos restore
// across hosts because they are independent of any OS thread or process.
type Proto struct {
	Function string
	mem      *wamem.Snapshot
	globals  []uint64
}

// For returns p as the image of function name: a view that shares p's pages
// and globals, so functions deployed from one module restore one snapshot
// while NewFromProto and SetProto still refuse a view of another name.
func (p *Proto) For(name string) *Proto {
	return &Proto{Function: name, mem: p.mem, globals: p.globals}
}

// Snapshot captures the Faaslet's current execution state as a Proto and
// installs it as the Faaslet's reset image. Call it after running
// initialisation code (e.g. interpreter warm-up), before serving requests.
// The capture copies nothing: the Proto aliases the memory's pages, and the
// live memory copies one only when it next writes to it.
func (f *Faaslet) Snapshot() (*Proto, error) {
	p := &Proto{
		Function: f.def.Name,
		mem:      f.mem.Snapshot(),
	}
	if f.inst != nil {
		p.globals = f.inst.Globals()
	}
	f.proto = p
	return p, nil
}

// Proto returns the reset image: the Proto the Faaslet was restored from or
// had installed, else the one New captured when the Faaslet was built.
func (f *Faaslet) Proto() *Proto { return f.proto }

// SetProto installs a snapshot (e.g. one restored from the global tier) as
// the Faaslet's reset image and restores it immediately.
func (f *Faaslet) SetProto(p *Proto) error {
	if p.Function != f.def.Name {
		return fmt.Errorf("core: proto for %s cannot restore into %s", p.Function, f.def.Name)
	}
	f.proto = p
	return f.restore()
}

// NewFromProto creates a fresh Faaslet already restored from p — the warm
// cold-start path: no data segments written and no start function run, only
// a shell, a page-table copy and a link against the shared host table. Its
// memory aliases p's pages copy-on-write, so Faaslets started from one Proto
// share every page they do not write.
func NewFromProto(def FuncDef, env *Env, p *Proto) (*Faaslet, error) {
	if def.Module == nil && def.Native == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoFunction, def.Name)
	}
	if p.Function != def.Name {
		return nil, fmt.Errorf("core: proto for %s cannot restore into %s", p.Function, def.Name)
	}
	f := newShell(def, env)
	f.mem = p.mem.Restore()
	f.proto = p
	if def.Module != nil {
		// The image already reflects initialisation: link without running the
		// start function, then take the image's globals.
		if err := f.link(wavm.WithSkipStart()); err != nil {
			return nil, err
		}
		if err := f.inst.Reset(p.globals); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// protoWire is the gob payload for cross-host transfer.
type protoWire struct {
	Function string
	MemBlob  []byte
	Globals  []uint64
}

// Serialize flattens the Proto for storage in the global tier, enabling
// cross-host restores (the paper's key difference from single-machine
// snapshot systems like SEUSS and Catalyzer).
func (p *Proto) Serialize() ([]byte, error) {
	blob, err := p.mem.Serialize()
	if err != nil {
		return nil, fmt.Errorf("core: serialise proto %s: %w", p.Function, err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(protoWire{
		Function: p.Function,
		MemBlob:  blob,
		Globals:  p.globals,
	}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DeserializeProto reverses Serialize.
func DeserializeProto(b []byte) (*Proto, error) {
	var w protoWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return nil, fmt.Errorf("core: decode proto: %w", err)
	}
	snap, err := wamem.DeserializeSnapshot(w.MemBlob)
	if err != nil {
		return nil, err
	}
	return &Proto{Function: w.Function, mem: snap, globals: w.Globals}, nil
}
