package upload

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"faasm.dev/faasm/internal/objstore"
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

func TestHTTPUploadFetch(t *testing.T) {
	store := objstore.NewMemory()
	svc := New(store)
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	base := "http://" + addr

	// Upload.
	req, _ := http.NewRequest(http.MethodPut, base+"/f/answer?lang=fc", strings.NewReader(fcSrc))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("upload: %s %s", resp.Status, body)
	}

	// Fetch and run.
	resp, err = http.Get(base + "/f/answer")
	if err != nil {
		t.Fatal(err)
	}
	obj, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	mod, err := wavm.DecodeObject(obj)
	if err != nil {
		t.Fatal(err)
	}
	inst, _ := wavm.Instantiate(mod, nil)
	res, err := inst.Call("main")
	if err != nil || wavm.DecodeI32(res[0]) != 43 {
		t.Fatalf("round trip: %v %v", res, err)
	}
}

func TestHTTPRejectsBadUploads(t *testing.T) {
	svc := New(objstore.NewMemory())
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	base := "http://" + addr

	req, _ := http.NewRequest(http.MethodPut, base+"/f/bad?lang=fc",
		bytes.NewReader([]byte("not a program")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad source: %s", resp.Status)
	}

	resp, err = http.Get(base + "/f/missing")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing function: %s", resp.Status)
	}

	resp, err = http.Get(fmt.Sprintf("%s/f/", base))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty name: %s", resp.Status)
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

// putBody uploads body as wat under name and returns the reply's status and
// body; a request that gets no reply reads as status 0.
func putBody(base, name string, body io.Reader) (int, string) {
	req, err := http.NewRequest(http.MethodPut, base+"/f/"+name+"?lang=wat", body)
	if err != nil {
		return 0, err.Error()
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err.Error()
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(msg)
}

// A body one byte over the cap is refused whole, declared or chunked, and
// stores nothing; one at the cap is read to its end.
func TestOversizedUploadRefused(t *testing.T) {
	store := objstore.NewMemory()
	svc := New(store)
	addr, err := svc.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	base := "http://" + addr
	over := strings.Repeat(" ", maxSource+1-len(watSrc)) + watSrc
	for name, body := range map[string]io.Reader{
		"sized":   strings.NewReader(over),
		"chunked": struct{ io.Reader }{strings.NewReader(over)},
	} {
		if code, msg := putBody(base, name, body); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: %d %s, want 413", name, code, msg)
		}
	}
	if keys := store.List(""); len(keys) != 0 {
		t.Fatalf("refused uploads stored %v", keys)
	}
	if code, msg := putBody(base, "at-cap", struct{ io.Reader }{strings.NewReader(over[1:])}); code != http.StatusOK {
		t.Fatalf("body at the cap: %d %s", code, msg)
	}
}

// Names uploaded with one content share one stored object, which goes when
// its last name moves to other content; an upload its deployer refuses
// stores nothing.
func TestOneObjectPerContent(t *testing.T) {
	store := objstore.NewMemory()
	svc := New(store)
	refuse := errors.New("refused")
	svc.Deploy = func(name, key string, object func() ([]byte, error)) error {
		if _, err := object(); err != nil {
			return err
		}
		if name == "refused" {
			return refuse
		}
		return nil
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	put := func(name, src string, want int) {
		t.Helper()
		if code, msg := putBody(srv.URL, name, strings.NewReader(src)); code != want {
			t.Fatalf("PUT %s: %d %s, want %d", name, code, msg, want)
		}
	}
	objects := func(want int) {
		t.Helper()
		if keys := store.List("wasm/"); len(keys) != want {
			t.Fatalf("store holds %v, want %d objects", keys, want)
		}
	}
	v2 := `(module (func $main (export "main") (result i32) i32.const 2))`
	put("a", watSrc, http.StatusOK)
	put("b", watSrc, http.StatusOK)
	objects(1)
	for _, name := range []string{"a", "b"} {
		resp, err := http.Get(srv.URL + "/f/" + name)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %v %v", name, resp, err)
		}
		resp.Body.Close()
	}
	put("a", v2, http.StatusOK)
	objects(2)
	put("b", v2, http.StatusOK)
	objects(1)
	put("refused", `(module (func $main (export "main") (result i32) i32.const 3))`, http.StatusUnprocessableEntity)
	put("bad", "not a module", http.StatusUnprocessableEntity)
	objects(1)
	if len(svc.refs) != 1 || svc.refs[Key("wat", []byte(v2))] != 2 {
		t.Fatalf("refs = %v, want two names on one key", svc.refs)
	}
}

// Concurrent uploads of one new content end with one stored object that
// counts each name once.
func TestConcurrentUploadsOfOneContent(t *testing.T) {
	store := objstore.NewMemory()
	svc := New(store)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	const names = 8
	var wg sync.WaitGroup
	for n := 0; n < names; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, msg := putBody(srv.URL, fmt.Sprint("fn", n), strings.NewReader(watSrc)); code != http.StatusOK {
				t.Errorf("PUT fn%d: %d %s", n, code, msg)
			}
		}()
	}
	wg.Wait()
	key := Key("wat", []byte(watSrc))
	if keys := store.List("wasm/"); len(keys) != 1 || svc.refs[key] != names {
		t.Fatalf("store holds %v, refs %v", keys, svc.refs)
	}
	for n := 0; n < names; n++ {
		putBody(srv.URL, fmt.Sprint("fn", n), strings.NewReader(`(module (func $main (export "main") (result i32) i32.const 9))`))
	}
	if keys := store.List("wasm/"); len(keys) != 1 || svc.refs[key] != 0 {
		t.Fatalf("after every name moved: store holds %v, refs %v", keys, svc.refs)
	}
}
