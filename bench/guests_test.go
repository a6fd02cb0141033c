package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/upload"
	"faasm.dev/faasm/internal/wavm"
)

// deployLocal compiles a guest through the upload pipeline and registers it.
func deployLocal(t *testing.T, inst *frt.Instance, g guest, name string) {
	t.Helper()
	obj, err := upload.Codegen(g.Src, g.Lang)
	if err != nil {
		t.Fatalf("%s: codegen: %v", g.Name, err)
	}
	mod, err := wavm.DecodeObject(obj)
	if err != nil {
		t.Fatalf("%s: decode: %v", g.Name, err)
	}
	if err := inst.RegisterModule(name, mod); err != nil {
		t.Fatalf("%s: register: %v", g.Name, err)
	}
}

// TestGuestsAgreeWithOracles runs every guest once in-process and checks it
// against the same oracle the generator applies to daemon replies.
func TestGuestsAgreeWithOracles(t *testing.T) {
	store := kvs.NewEngine()
	inst := frt.New(frt.Config{Host: "guest-test", Store: store, TraceSample: -1})
	defer inst.Shutdown()

	compute, want, err := computeGuest()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []guest{echoGuest, fanoutGuest, stateReadGuest, stateWriteGuest, compute, coldGuest} {
		deployLocal(t, inst, g, g.Name)
	}
	call := func(fn string, in []byte) []byte {
		t.Helper()
		out, ret, err := inst.Call(fn, in)
		if err != nil || ret != 0 {
			t.Fatalf("%s: ret=%d err=%v", fn, ret, err)
		}
		return out
	}

	payload := []byte("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
	if out := call("echo", payload); !bytes.Equal(out, payload) {
		t.Fatalf("echo returned %q", out)
	}

	base := uint32(0xfffffff0) // wraps, like the guest's i32 arithmetic
	in := binary.LittleEndian.AppendUint32(nil, base)
	if got := binary.LittleEndian.Uint32(call("fanout", in)); got != fanoutSum(base) {
		t.Fatalf("fanout: got %d want %d", got, fanoutSum(base))
	}

	if got := math.Float64frombits(binary.LittleEndian.Uint64(call(compute.Name, nil))); !checksumMatches(got, want) {
		t.Fatalf("compute: got %v want %v", got, want)
	}

	model, ro := seededValue(1, 0), seededValue(1, 1)
	if err := store.Set(modelKey, model); err != nil {
		t.Fatal(err)
	}
	if err := store.Set("ro/00", ro); err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(call("state_read", []byte("ro/00"))); got != chunkWordSum(model)+chunkWordSum(ro) {
		t.Fatalf("state_read: got %d want %d", got, chunkWordSum(model)+chunkWordSum(ro))
	}

	if err := store.Set("rw/00000", make([]byte, stateValueBytes)); err != nil {
		t.Fatal(err)
	}
	stamp := uint64(0x1122334455667788)
	win := append(binary.LittleEndian.AppendUint64(nil, stamp), "rw/00000"...)
	if out := call("state_write", win); binary.LittleEndian.Uint64(out) != stamp {
		t.Fatalf("state_write echoed %x", out)
	}
	val, _ := store.Get("rw/00000")
	for c := 0; c < stateChunks; c++ {
		if binary.LittleEndian.Uint64(val[c*stateChunk:]) != stamp {
			t.Fatalf("state_write: chunk %d not stamped", c)
		}
	}
	if n, _ := store.Len(logKey); n != 16 {
		t.Fatalf("log is %d bytes, want 16", n)
	}

	x := uint32(70001)
	if got := binary.LittleEndian.Uint32(call("cold", binary.LittleEndian.AppendUint32(nil, x))); got != x+coldWord(x) {
		t.Fatalf("cold: got %d want %d", got, x+coldWord(x))
	}
}
