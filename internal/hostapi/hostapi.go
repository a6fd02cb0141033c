// Package hostapi defines the platform-neutral guest programming surface.
// The paper's evaluation runs the same application code on FAASM and on the
// Knative baseline, with a "Knative-specific implementation of the Faaslet
// host interface" (§6.1). This package is that seam: workloads are written
// once against API, and each platform supplies its implementation —
// internal/frt via Faaslets (zero-copy shared state), internal/baseline via
// containers (private copies + global KVS on every access).
package hostapi

import "faasm.dev/faasm/internal/core"

// API is the host interface as seen by portable guests.
type API interface {
	// Input returns the call's input byte array.
	Input() []byte
	// WriteOutput sets the call's output byte array.
	WriteOutput(b []byte)

	// Chain invokes another function, returning a call id.
	Chain(fn string, input []byte) (uint64, error)
	// Await blocks until a chained call completes, yielding its return code.
	Await(id uint64) (int32, error)
	// OutputOf fetches a completed chained call's output.
	OutputOf(id uint64) ([]byte, error)

	// StateView returns a mutable view of the state value. On FAASM this is
	// a zero-copy window into host-shared memory; on the baseline it is a
	// container-private copy fetched from the global tier. size < 0
	// discovers the size.
	StateView(key string, size int) ([]byte, error)
	// StateViewChunk is StateView for a byte range; only the range is
	// guaranteed fetched.
	StateViewChunk(key string, off, n int) ([]byte, error)
	// StatePush writes the view back to the global tier.
	StatePush(key string) error
	// StatePushChunk pushes only [off, off+n).
	StatePushChunk(key string, off, n int) error
	// StatePull refreshes the view from the global tier.
	StatePull(key string) error
	// StateAppend appends to the global value.
	StateAppend(key string, data []byte) error
	// StateReadAll fetches the authoritative global value.
	StateReadAll(key string) ([]byte, error)
}

// Guest is a portable function body.
type Guest func(api API) (int32, error)

// --- FAASM implementation: a thin adapter over core.Ctx ---

// FaasmAPI adapts a Faaslet Ctx to the portable API.
type FaasmAPI struct {
	Ctx *core.Ctx
}

// WrapGuest converts a portable Guest into a Faaslet-native guest.
func WrapGuest(g Guest) core.NativeGuest {
	return func(ctx *core.Ctx) (int32, error) {
		return g(&FaasmAPI{Ctx: ctx})
	}
}

// Input implements API.
func (a *FaasmAPI) Input() []byte { return a.Ctx.Input() }

// WriteOutput implements API.
func (a *FaasmAPI) WriteOutput(b []byte) { a.Ctx.WriteOutput(b) }

// Chain implements API.
func (a *FaasmAPI) Chain(fn string, input []byte) (uint64, error) { return a.Ctx.Chain(fn, input) }

// Await implements API.
func (a *FaasmAPI) Await(id uint64) (int32, error) { return a.Ctx.Await(id) }

// OutputOf implements API.
func (a *FaasmAPI) OutputOf(id uint64) ([]byte, error) { return a.Ctx.OutputOf(id) }

// StateView implements API: the zero-copy mapped view.
func (a *FaasmAPI) StateView(key string, size int) ([]byte, error) {
	return a.Ctx.MapState(key, size)
}

// StateViewChunk implements API: pulls only the covering chunks, then
// returns the in-place window.
func (a *FaasmAPI) StateViewChunk(key string, off, n int) ([]byte, error) {
	v, err := a.Ctx.State(key, -1)
	if err != nil {
		return nil, err
	}
	start := a.Ctx.TraceStart()
	pulled, err := v.EnsurePulledN(off, n)
	a.Ctx.TraceSpan("state.pull", key, start, pulled, err)
	a.Ctx.NoteStateAccess(key, int64(n))
	if err != nil {
		return nil, err
	}
	return v.Bytes()[off : off+n], nil
}

// StatePush implements API.
func (a *FaasmAPI) StatePush(key string) error {
	v, err := a.Ctx.State(key, -1)
	if err != nil {
		return err
	}
	start := a.Ctx.TraceStart()
	err = v.Push()
	a.Ctx.TraceSpan("state.push", key, start, int64(v.Size()), err)
	return err
}

// StatePushChunk implements API.
func (a *FaasmAPI) StatePushChunk(key string, off, n int) error {
	v, err := a.Ctx.State(key, -1)
	if err != nil {
		return err
	}
	start := a.Ctx.TraceStart()
	err = v.PushChunk(off, n)
	a.Ctx.TraceSpan("state.push", key, start, int64(n), err)
	return err
}

// StatePull implements API.
func (a *FaasmAPI) StatePull(key string) error {
	v, err := a.Ctx.State(key, -1)
	if err != nil {
		return err
	}
	start := a.Ctx.TraceStart()
	pulled, err := v.PullN()
	a.Ctx.TraceSpan("state.pull", key, start, pulled, err)
	a.Ctx.NoteStateAccess(key, int64(v.Size()))
	return err
}

// StateAppend implements API.
func (a *FaasmAPI) StateAppend(key string, data []byte) error {
	return a.Ctx.AppendState(key, data)
}

// StateReadAll implements API.
func (a *FaasmAPI) StateReadAll(key string) ([]byte, error) {
	return a.Ctx.ReadAllState(key)
}

var _ API = (*FaasmAPI)(nil)
