package upload

import (
	"testing"

	"faasm.dev/faasm/internal/wavm"
)

const watSrc = `(module (func $main (export "main") (result i32) i32.const 42))`
const fcSrc = `func main() i32 { return 43; }`

func TestCodegenPipelines(t *testing.T) {
	for _, tc := range []struct {
		lang string
		src  string
		want int32
	}{{"wat", watSrc, 42}, {"fc", fcSrc, 43}} {
		obj, err := Codegen(tc.src, tc.lang)
		if err != nil {
			t.Fatalf("%s: %v", tc.lang, err)
		}
		mod, err := wavm.DecodeObject(obj)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := wavm.Instantiate(mod, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := inst.Call("main")
		if err != nil || wavm.DecodeI32(res[0]) != tc.want {
			t.Fatalf("%s: %v %v", tc.lang, res, err)
		}
	}
}

func TestCodegenRejectsInvalid(t *testing.T) {
	if _, err := Codegen(`(module (func $f (result i32) f64.const 1.0))`, "wat"); err == nil {
		t.Fatal("invalid module passed codegen")
	}
	if _, err := Codegen(`func f() i32 { return x; }`, "fc"); err == nil {
		t.Fatal("invalid FC passed codegen")
	}
}

// The key covers the dialect Codegen reads: one source gets two keys as FC
// and as text, and the text format's key does not depend on how lang
// spells it.
func TestKeyCoversDialect(t *testing.T) {
	src := []byte(fcSrc)
	if Key("fc", src) == Key("wat", src) {
		t.Fatal("one source got one key as fc and as wat")
	}
	if Key("", src) != Key("wat", src) {
		t.Fatal("the text format got two keys")
	}
	if Key("wat", src) == Key("wat", append(src, ' ')) {
		t.Fatal("two sources got one key")
	}
}

// FuzzCodegen feeds arbitrary sources in either dialect to the trusted
// code generator: each must fail with an error or yield an object file the
// runtime's decoder accepts, and Key must take any input.
func FuzzCodegen(f *testing.F) {
	for _, seed := range []struct{ src, lang string }{
		{watSrc, "wat"},
		{fcSrc, "fc"},
		{`(module (func $f (result i32) f64.const 1.0))`, "wat"},
		{`func f() i32 { return x; }`, "fc"},
		{`(module (memory 1) (data (i32.const 8) "v1")
		  (import "faasm" "write_call_output" (func $out (param i32 i32)))
		  (func $main (export "main") (result i32) i32.const 8 i32.const 2 call $out i32.const 0))`, "wat"},
		{"not a program", "fc"},
	} {
		f.Add(seed.src, seed.lang)
	}
	f.Fuzz(func(t *testing.T, src, lang string) {
		Key(lang, []byte(src))
		obj, err := Codegen(src, lang)
		if err != nil {
			return
		}
		if _, err := wavm.DecodeObject(obj); err != nil {
			t.Fatalf("Codegen(%q, %q) produced an object the decoder refuses: %v", src, lang, err)
		}
	})
}
