// Package faasm is the public API of the FAASM reproduction: a serverless
// runtime executing functions inside Faaslets — the lightweight isolation
// abstraction of Shillaker & Pietzuch, "Faasm: Lightweight Isolation for
// Efficient Stateful Serverless Computing" (USENIX ATC 2020).
//
// A Runtime manages a pool of Faaslets on one host: functions are either
// modules for the built-in WebAssembly-style VM (compiled from the wat-like
// text format or the FC language) or native guests constrained to the same
// host interface. Faaslets share in-memory state through the two-tier state
// architecture, chain calls through the runtime, and restore from
// Proto-Faaslet snapshots in well under a millisecond.
//
// Quick start:
//
//	rt := faasm.NewRuntime(faasm.Config{})
//	rt.RegisterNative("hello", func(ctx *faasm.Ctx) (int32, error) {
//	    ctx.WriteOutput([]byte("hi " + string(ctx.Input())))
//	    return 0, nil
//	})
//	out, _, _ := rt.Call("hello", []byte("faasm"))
package faasm

import (
	"time"

	"faasm.dev/faasm/internal/core"
	"faasm.dev/faasm/internal/fcc"
	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/hostapi"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/vfs"
	"faasm.dev/faasm/internal/wavm"
)

// Ctx is the host interface handle passed to native guests (Table 2 of the
// paper as Go methods).
type Ctx = core.Ctx

// NativeGuest is a function body executing against the host interface.
type NativeGuest = core.NativeGuest

// Module is a validated secure-IR module.
type Module = wavm.Module

// Proto is a Proto-Faaslet snapshot.
type Proto = core.Proto

// API is the platform-portable guest surface (also implemented by the
// container baseline used in the evaluation).
type API = hostapi.API

// Guest is a portable function body.
type Guest = hostapi.Guest

// Config configures a Runtime.
type Config struct {
	// Host names this runtime instance in the cluster (default "host-0").
	Host string
	// StoreAddr connects the global tier to a remote kvs server
	// (host:port); empty runs an in-process global tier.
	StoreAddr string
	// Files seeds the read-global filesystem tier.
	Files map[string][]byte
	// Capacity bounds concurrently executing calls (0 = unlimited).
	Capacity int
}

// Runtime is one FAASM host runtime.
type Runtime struct {
	inst   *frt.Instance
	client *kvs.Client
}

// NewRuntime starts a runtime.
func NewRuntime(cfg Config) *Runtime {
	var store kvs.Store
	var client *kvs.Client
	if cfg.StoreAddr != "" {
		client = kvs.NewClient(cfg.StoreAddr)
		store = client
	} else {
		store = kvs.NewEngine()
	}
	inst := frt.New(frt.Config{
		Host:     cfg.Host,
		Store:    store,
		Files:    vfs.NewMapGlobal(cfg.Files),
		Capacity: cfg.Capacity,
	})
	return &Runtime{inst: inst, client: client}
}

// RegisterNative deploys a native guest under name.
func (r *Runtime) RegisterNative(name string, fn NativeGuest) {
	r.inst.RegisterNative(name, fn)
}

// RegisterGuest deploys a portable guest under name.
func (r *Runtime) RegisterGuest(name string, g Guest) error {
	r.inst.RegisterNative(name, hostapi.WrapGuest(g))
	return nil
}

// WrapCtx adapts a native-guest Ctx to the portable API surface, e.g. to
// use distributed data objects from a native guest.
func WrapCtx(ctx *Ctx) API { return &hostapi.FaasmAPI{Ctx: ctx} }

// RegisterModule deploys a validated module under name.
func (r *Runtime) RegisterModule(name string, mod *Module) error {
	return r.inst.RegisterModule(name, mod)
}

// CompileText assembles and validates the wat-like text format — the full
// Fig 3 pipeline (untrusted compile, trusted codegen).
func CompileText(src string) (*Module, error) {
	return wavm.AssembleAndValidate(src)
}

// CompileFC compiles and validates FC source (the fcc toolchain).
func CompileFC(src string) (*Module, error) {
	return fcc.CompileAndValidate(src)
}

// Invoke starts an asynchronous call, returning its id.
func (r *Runtime) Invoke(function string, input []byte) (uint64, error) {
	return r.inst.Invoke(function, input)
}

// Await blocks until a call completes, returning its guest return code.
func (r *Runtime) Await(id uint64) (int32, error) { return r.inst.Await(id) }

// Output fetches a completed call's output bytes.
func (r *Runtime) Output(id uint64) ([]byte, error) { return r.inst.Output(id) }

// Call invokes synchronously: output bytes, return code, error.
func (r *Runtime) Call(function string, input []byte) ([]byte, int32, error) {
	return r.inst.Call(function, input)
}

// GenerateProto runs init inside a fresh Faaslet and snapshots it as the
// function's Proto-Faaslet (§5.2); subsequent cold starts restore from it.
func (r *Runtime) GenerateProto(function string, init func(ctx *Ctx) error) error {
	return r.inst.GenerateProto(function, init)
}

// SetState writes a value directly into the global tier.
func (r *Runtime) SetState(key string, val []byte) error {
	return r.inst.State().Global().Set(key, val)
}

// GetState reads a value from the global tier.
func (r *Runtime) GetState(key string) ([]byte, error) {
	return r.inst.State().Global().Get(key)
}

// Stats reports runtime counters.
type Stats struct {
	ColdStarts  int64
	WarmStarts  int64
	ProtoStarts int64
	Faaslets    int
	MedianExec  time.Duration
}

// Stats snapshots the runtime's counters.
func (r *Runtime) Stats() Stats {
	return Stats{
		ColdStarts:  r.inst.ColdStarts.Value(),
		WarmStarts:  r.inst.WarmStarts.Value(),
		ProtoStarts: r.inst.ProtoStarts.Value(),
		Faaslets:    r.inst.FaasletCount(),
		MedianExec:  r.inst.MedianExec(),
	}
}

// Shutdown releases the runtime's Faaslets.
func (r *Runtime) Shutdown() {
	r.inst.Shutdown()
	if r.client != nil {
		r.client.Close()
	}
}
