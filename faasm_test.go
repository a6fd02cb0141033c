package faasm_test

import (
	"bytes"
	"testing"

	"faasm.dev/faasm"
	"faasm.dev/faasm/ddo"
)

func TestPublicAPIRoundTrip(t *testing.T) {
	rt := faasm.NewRuntime(faasm.Config{Host: "t"})
	defer rt.Shutdown()
	rt.RegisterNative("rev", func(ctx *faasm.Ctx) (int32, error) {
		in := ctx.Input()
		out := make([]byte, len(in))
		for i, b := range in {
			out[len(in)-1-i] = b
		}
		ctx.WriteOutput(out)
		return 0, nil
	})
	out, ret, err := rt.Call("rev", []byte("faasm"))
	if err != nil || ret != 0 || string(out) != "msaaf" {
		t.Fatalf("call: %q %d %v", out, ret, err)
	}
}

func TestPublicAPIAsyncInvoke(t *testing.T) {
	rt := faasm.NewRuntime(faasm.Config{})
	defer rt.Shutdown()
	rt.RegisterNative("id", func(ctx *faasm.Ctx) (int32, error) {
		ctx.WriteOutput(ctx.Input())
		return 7, nil
	})
	id, err := rt.Invoke("id", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	ret, err := rt.Await(id)
	if err != nil || ret != 7 {
		t.Fatalf("await: %d %v", ret, err)
	}
	out, err := rt.Output(id)
	if err != nil || string(out) != "x" {
		t.Fatalf("output: %q %v", out, err)
	}
}

func TestPublicAPICompilePipelines(t *testing.T) {
	modW, err := faasm.CompileText(`(module
	  (func $main (export "main") (result i32) i32.const 11))`)
	if err != nil {
		t.Fatal(err)
	}
	modF, err := faasm.CompileFC(`func main() i32 { return 22; }`)
	if err != nil {
		t.Fatal(err)
	}
	rt := faasm.NewRuntime(faasm.Config{})
	defer rt.Shutdown()
	if err := rt.RegisterModule("w", modW); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterModule("f", modF); err != nil {
		t.Fatal(err)
	}
	if _, ret, err := rt.Call("w", nil); err != nil || ret != 11 {
		t.Fatalf("wat module: %d %v", ret, err)
	}
	if _, ret, err := rt.Call("f", nil); err != nil || ret != 22 {
		t.Fatalf("fc module: %d %v", ret, err)
	}
}

func TestPublicAPIStateAndDDO(t *testing.T) {
	rt := faasm.NewRuntime(faasm.Config{})
	defer rt.Shutdown()
	if err := rt.SetState("counter", make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	rt.RegisterGuest("bump", func(api faasm.API) (int32, error) {
		l := ddo.OpenList(api, "bump-list")
		if err := l.Append([]byte{1}); err != nil {
			return 1, err
		}
		all, err := l.All()
		if err != nil {
			return 1, err
		}
		api.WriteOutput([]byte{byte(len(all))})
		return 0, nil
	})
	for i := 1; i <= 3; i++ {
		out, ret, err := rt.Call("bump", nil)
		if err != nil || ret != 0 || int(out[0]) != i {
			t.Fatalf("bump %d: %v %d %v", i, out, ret, err)
		}
	}
}

func TestPublicAPIProto(t *testing.T) {
	rt := faasm.NewRuntime(faasm.Config{})
	defer rt.Shutdown()
	rt.RegisterNative("f", func(ctx *faasm.Ctx) (int32, error) {
		b, _ := ctx.Memory().ReadBytes(0, 4)
		ctx.WriteOutput(b)
		return 0, nil
	})
	if err := rt.GenerateProto("f", func(ctx *faasm.Ctx) error {
		return ctx.Memory().WriteBytes(0, []byte("init"))
	}); err != nil {
		t.Fatal(err)
	}
	out, _, err := rt.Call("f", nil)
	if err != nil || !bytes.Equal(out, []byte("init")) {
		t.Fatalf("proto-backed call: %q %v", out, err)
	}
	if rt.Stats().ColdStarts != 1 {
		t.Fatalf("stats: %+v", rt.Stats())
	}
}

func TestPublicAPIFiles(t *testing.T) {
	rt := faasm.NewRuntime(faasm.Config{
		Files: map[string][]byte{"cfg/app.json": []byte(`{"v":1}`)},
	})
	defer rt.Shutdown()
	rt.RegisterNative("readcfg", func(ctx *faasm.Ctx) (int32, error) {
		b, err := ctx.FS().ReadFile("cfg/app.json")
		if err != nil {
			return 1, err
		}
		ctx.WriteOutput(b)
		return 0, nil
	})
	out, ret, err := rt.Call("readcfg", nil)
	if err != nil || ret != 0 || string(out) != `{"v":1}` {
		t.Fatalf("file read: %q %d %v", out, ret, err)
	}
}
