package upload

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
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
