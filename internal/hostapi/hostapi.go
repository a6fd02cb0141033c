// Package hostapi defines the platform-neutral guest programming surface.
// The paper's evaluation runs the same application code on FAASM and on the
// Knative baseline, with a "Knative-specific implementation of the Faaslet
// host interface" (§6.1). This package is that seam: workloads are written
// once against API, and each platform supplies its implementation —
// core.Ctx on Faaslets (zero-copy shared state, the Table 2 calls every
// guest kind shares), internal/baseline's containers (private copies +
// global KVS on every access).
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

// WrapGuest converts a portable Guest into a Faaslet-native guest: on FAASM
// the native Ctx is itself the API.
func WrapGuest(g Guest) core.NativeGuest {
	return func(ctx *core.Ctx) (int32, error) { return g(ctx) }
}

var _ API = (*core.Ctx)(nil)
