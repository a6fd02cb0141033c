package frt

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"faasm.dev/faasm/internal/core"
	"faasm.dev/faasm/internal/fcc"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/state"
)

// stateSpan is the part of a state.* span both guest kinds must agree on.
type stateSpan struct {
	Name, Key string
	Bytes     int64
}

// parityKey is a four-byte state key as the one i32 word an FC guest stores.
func parityKey(k string) int32 { return int32(binary.LittleEndian.Uint32([]byte(k))) }

// The wasm guest makes, in order: get_state of the whole 8 KiB "wkey",
// get_state_offset and pull_state_offset of one chunk each of the 16 KiB
// "ckey", pull_state and push_state of "wkey", push_state_offset of part of
// "ckey" and append_state of 16 bytes to "lkey".
var parityFC = fmt.Sprintf(`
#memory 1
extern faasm get_state(i32, i32, i32) *i32;
extern faasm get_state_offset(i32, i32, i32, i32) *i32;
extern faasm pull_state_offset(i32, i32, i32, i32);
extern faasm pull_state(i32, i32);
extern faasm push_state(i32, i32);
extern faasm push_state_offset(i32, i32, i32, i32);
extern faasm append_state(i32, i32, i32, i32);
func main() i32 {
	var k *i32 = 512;
	k[0] = %d; k[1] = %d; k[2] = %d;
	var w *i32 = get_state(512, 4, 8192);
	var c *i32 = get_state_offset(516, 4, %d, 100);
	pull_state_offset(516, 4, 0, 10);
	pull_state(512, 4);
	push_state(512, 4);
	push_state_offset(516, 4, %d, 100);
	append_state(520, 4, 1024, 16);
	return w[0] + c[0];
}`, parityKey("wkey"), parityKey("ckey"), parityKey("lkey"), state.ChunkSize, state.ChunkSize)

// parityNative makes the same calls through core.Ctx.
func parityNative(ctx *core.Ctx) (int32, error) {
	steps := []func() error{
		func() error { _, err := ctx.StateView("wkey", 8192); return err },
		func() error { _, err := ctx.StateViewChunk("ckey", state.ChunkSize, 100); return err },
		func() error { _, err := ctx.StateViewChunk("ckey", 0, 10); return err },
		func() error { return ctx.StatePull("wkey") },
		func() error { return ctx.StatePush("wkey") },
		func() error { return ctx.StatePushChunk("ckey", state.ChunkSize, 100) },
		func() error { return ctx.StateAppend("lkey", make([]byte, 16)) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			return int32(i + 1), err
		}
	}
	return 0, nil
}

// runParity runs fn once, traced, on a fresh host whose global tier holds
// the two values, and returns its state spans and access profile.
func runParity(t *testing.T, register func(inst *Instance) error) ([]stateSpan, int64, int64) {
	t.Helper()
	store := kvs.NewEngine()
	store.Set("wkey", make([]byte, 8192))
	store.Set("ckey", make([]byte, 4*state.ChunkSize))
	inst := New(Config{Host: "h1", Store: store, TraceSample: 1})
	t.Cleanup(inst.Shutdown)
	if err := register(inst); err != nil {
		t.Fatal(err)
	}
	_, ret, id, err := inst.CallTraced("fn", nil)
	if err != nil || ret != 0 {
		t.Fatalf("call: ret=%d err=%v", ret, err)
	}
	tr, ok := inst.Tracer().Get(id)
	if !ok {
		t.Fatalf("trace %d not retained", id)
	}
	var spans []stateSpan
	for _, sp := range tr.Spans {
		if strings.HasPrefix(sp.Name, "state.") {
			spans = append(spans, stateSpan{sp.Name, sp.Key, sp.Bytes})
		}
	}
	return spans, inst.AccessedStateBytes(), inst.profile.footprint("fn")
}

// Both guest kinds reach Table 2's state calls through the same Faaslet
// methods, so one sequence of calls records the same spans, byte counts
// and access profile from either.
func TestStateCallParityWasmNative(t *testing.T) {
	mod, err := fcc.CompileAndValidate(parityFC)
	if err != nil {
		t.Fatal(err)
	}
	wasmSpans, wasmAccessed, wasmFootprint := runParity(t, func(inst *Instance) error {
		return inst.RegisterModule("fn", mod)
	})
	nativeSpans, nativeAccessed, nativeFootprint := runParity(t, func(inst *Instance) error {
		return inst.RegisterNative("fn", parityNative)
	})

	want := []stateSpan{
		{"state.pull", "wkey", 8192},            // get_state: the whole value
		{"state.pull", "ckey", state.ChunkSize}, // get_state_offset: one chunk
		{"state.pull", "ckey", state.ChunkSize}, // pull_state_offset: another
		{"state.pull", "wkey", 8192},            // pull_state refreshes
		{"state.push", "wkey", 8192},
		{"state.push", "ckey", 100},
		{"state.append", "lkey", 16},
	}
	if !reflect.DeepEqual(nativeSpans, want) {
		t.Errorf("native spans = %v, want %v", nativeSpans, want)
	}
	if !reflect.DeepEqual(wasmSpans, nativeSpans) {
		t.Errorf("wasm spans = %v, native %v", wasmSpans, nativeSpans)
	}
	// Reads address 8192 + 100 + 10 + 8192 bytes; pushes and appends none.
	const accessed = 8192 + 100 + 10 + 8192
	if nativeAccessed != accessed || nativeFootprint != accessed {
		t.Errorf("native accessed %d, footprint %d, want %d", nativeAccessed, nativeFootprint, accessed)
	}
	if wasmAccessed != nativeAccessed || wasmFootprint != nativeFootprint {
		t.Errorf("wasm accessed %d, footprint %d; native %d, %d", wasmAccessed, wasmFootprint, nativeAccessed, nativeFootprint)
	}
}
