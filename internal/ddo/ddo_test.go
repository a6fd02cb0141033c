package ddo

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"faasm.dev/faasm/internal/core"
	"faasm.dev/faasm/internal/hostapi"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/state"
)

// testAPI builds the Ctx of a fresh Faaslet over a shared engine: on FAASM
// the Ctx is the API.
func testAPI(t *testing.T, engine *kvs.Engine, tier *state.LocalTier) hostapi.API {
	t.Helper()
	env := &core.Env{State: tier}
	f, err := core.New(core.FuncDef{
		Name:   "ddo-test",
		Native: func(ctx *core.Ctx) (int32, error) { return 0, nil },
	}, env)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewCtx(f)
}

func setup(t *testing.T) (hostapi.API, *kvs.Engine) {
	engine := kvs.NewEngine()
	tier := state.NewLocalTier(engine)
	return testAPI(t, engine, tier), engine
}

func TestVectorLocalThenPush(t *testing.T) {
	api, engine := setup(t)
	engine.Set("v", make([]byte, 4*8))
	v, err := OpenVector(api, "v", 4)
	if err != nil {
		t.Fatal(err)
	}
	v.Set(0, 1.5)
	v.Add(0, 0.5)
	v.Set(3, -2)
	if v.At(0) != 2 || v.At(3) != -2 {
		t.Fatalf("local values: %v %v", v.At(0), v.At(3))
	}
	// Global unchanged until push.
	g, _ := engine.Get("v")
	if binary.LittleEndian.Uint64(g) != 0 {
		t.Fatal("local write leaked")
	}
	if err := v.Push(); err != nil {
		t.Fatal(err)
	}
	g, _ = engine.Get("v")
	if math.Float64frombits(binary.LittleEndian.Uint64(g)) != 2 {
		t.Fatal("push missed")
	}
}

func TestVectorSharedWithinHost(t *testing.T) {
	// Two Faaslets on one host share the vector through the local tier.
	engine := kvs.NewEngine()
	tier := state.NewLocalTier(engine)
	engine.Set("w", make([]byte, 8))
	a := testAPI(t, engine, tier)
	b := testAPI(t, engine, tier)
	va, _ := OpenVector(a, "w", 1)
	vb, _ := OpenVector(b, "w", 1)
	va.Set(0, 42)
	if vb.At(0) != 42 {
		t.Fatal("co-located faaslets do not share the vector")
	}
}

func TestSparseMatrixChunkedAccess(t *testing.T) {
	api, engine := setup(t)
	entries := [][]SparseEntry{
		{{Row: 0, Val: 1}, {Row: 5, Val: 2}},
		{},
		{{Row: 3, Val: 4}},
		{{Row: 1, Val: 8}, {Row: 2, Val: 16}, {Row: 9, Val: 32}},
	}
	vals, rows, colptr := BuildSparseCSC(entries)
	vk, rk, ck := SparseKeys("sm")
	engine.Set(vk, vals)
	engine.Set(rk, rows)
	engine.Set(ck, colptr)

	sm, err := OpenSparseMatrix(api, "sm", len(entries))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sm.Columns(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	sc.Col(3, func(row int, val float64) { got = append(got, float64(row), val) })
	want := []float64{1, 8, 2, 16, 9, 32}
	if len(got) != len(want) {
		t.Fatalf("col 3 = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("col 3 = %v", got)
		}
	}
	if _, err := sm.Columns(3, 2); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestListAppendAll(t *testing.T) {
	api, _ := setup(t)
	l := OpenList(api, "log")
	records := [][]byte{[]byte("a"), []byte("bb"), {0, 1, 2}}
	for _, r := range records {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := l.All()
	if err != nil || len(got) != 3 {
		t.Fatalf("all: %v %v", got, err)
	}
	for i := range records {
		if !bytes.Equal(got[i], records[i]) {
			t.Fatalf("record %d = %v", i, got[i])
		}
	}
}
