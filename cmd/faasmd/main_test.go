package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/hostapi"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/obsv"
	"faasm.dev/faasm/internal/queue"
	"faasm.dev/faasm/internal/shardkvs"
)

// newTestServer builds the real daemon mux over an in-process instance with
// an echo function deployed, tracing 1-in-sample invocations.
func newTestServer(t *testing.T, sample int) (*httptest.Server, *frt.Instance) {
	t.Helper()
	eng := kvs.NewEngine()
	inst := frt.New(frt.Config{
		Host:        "test-0",
		Store:       eng,
		TraceSample: sample,
	})
	eng.Instrument(inst.Registry(), "global")
	inst.RegisterNative("echo", hostapi.WrapGuest(func(api hostapi.API) (int32, error) {
		api.WriteOutput(api.Input())
		return 0, nil
	}))
	srv := httptest.NewServer(newMux(inst, nil))
	t.Cleanup(srv.Close)
	t.Cleanup(inst.Shutdown)
	return srv, inst
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := copyAll(&sb, resp); err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, sb.String(), resp.Header
}

func copyAll(sb *strings.Builder, resp *http.Response) (int64, error) {
	buf := make([]byte, 32*1024)
	var n int64
	for {
		m, err := resp.Body.Read(buf)
		sb.Write(buf[:m])
		n += int64(m)
		if err != nil {
			if err.Error() == "EOF" {
				return n, nil
			}
			return n, err
		}
	}
}

func invoke(t *testing.T, srv *httptest.Server, fn, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(srv.URL+"/invoke/"+fn, "application/octet-stream", strings.NewReader(body))
	if err != nil {
		t.Fatalf("invoke %s: %v", fn, err)
	}
	return resp
}

func TestStatusEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, 1)
	code, body, _ := get(t, srv.URL+"/status")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"host: test-0", "functions:", "cold:", "pool misses:", "locality: hits"} {
		if !strings.Contains(body, want) {
			t.Fatalf("status missing %q:\n%s", want, body)
		}
	}
}

// After one call /status reports a non-zero median execution time, read from
// the exec histogram.
func TestStatusMedianExec(t *testing.T) {
	srv, _ := newTestServer(t, 1)
	invoke(t, srv, "echo", "hi").Body.Close()
	_, body, _ := get(t, srv.URL+"/status")
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, "median exec: "); ok {
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				t.Fatalf("median exec %q: %v, %v", v, d, err)
			}
			return
		}
	}
	t.Fatalf("/status has no median exec line:\n%s", body)
}

// A function that touches state must surface its locally-resident bytes on
// /status once its access profile exists.
func TestStatusResidency(t *testing.T) {
	srv, inst := newTestServer(t, 1)
	inst.RegisterNative("writer", hostapi.WrapGuest(func(api hostapi.API) (int32, error) {
		if _, err := api.StateView("status/key", 4096); err != nil {
			return 1, err
		}
		return 0, api.StatePush("status/key")
	}))
	invoke(t, srv, "writer", "").Body.Close()

	_, body, _ := get(t, srv.URL+"/status")
	if !strings.Contains(body, "resident writer: 4096 bytes") {
		t.Fatalf("/status missing residency line:\n%s", body)
	}
}

func TestMetricsExposition(t *testing.T) {
	srv, _ := newTestServer(t, 1)
	for i := 0; i < 3; i++ {
		resp := invoke(t, srv, "echo", "hi")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke = %d", resp.StatusCode)
		}
	}
	code, body, hdr := get(t, srv.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE faasm_frt_exec_seconds histogram",
		"faasm_frt_exec_seconds_count",
		`faasm_frt_warm_starts_total{host="test-0"}`,
		`faasm_sched_decisions_total{host="test-0",placement="local_cold"} 1`,
		"faasm_mbus_calls_created_total",
		`faasm_kvs_keys{tier="global"}`,
		"faasm_state_replica_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestTraceEndpoints(t *testing.T) {
	srv, _ := newTestServer(t, 1)
	resp := invoke(t, srv, "echo", "traced")
	resp.Body.Close()
	id := resp.Header.Get("X-Faasm-Trace")
	if id == "" {
		t.Fatal("no X-Faasm-Trace header with -trace-sample 1")
	}

	code, body, hdr := get(t, srv.URL+"/trace/"+id)
	if code != http.StatusOK {
		t.Fatalf("trace = %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type = %q", ct)
	}
	var snap obsv.TraceSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("trace json: %v\n%s", err, body)
	}
	if snap.Fn != "echo" || snap.Host != "test-0" {
		t.Fatalf("trace fn=%q host=%q", snap.Fn, snap.Host)
	}
	names := map[string]bool{}
	for _, sp := range snap.Spans {
		names[sp.Name] = true
	}
	if !names["exec"] {
		t.Fatalf("trace has no exec span: %+v", snap.Spans)
	}

	if code, _, _ := get(t, srv.URL+"/trace/bogus"); code != http.StatusBadRequest {
		t.Fatalf("bad id = %d, want 400", code)
	}
	if code, _, _ := get(t, srv.URL+"/trace/18446744073709551615"); code != http.StatusNotFound {
		t.Fatalf("unknown id = %d, want 404", code)
	}

	code, body, _ = get(t, srv.URL+"/traces?slowest=5")
	if code != http.StatusOK {
		t.Fatalf("traces = %d", code)
	}
	var snaps []obsv.TraceSnapshot
	if err := json.Unmarshal([]byte(body), &snaps); err != nil {
		t.Fatalf("traces json: %v\n%s", err, body)
	}
	if len(snaps) == 0 {
		t.Fatal("no retained traces listed")
	}
	if code, _, _ := get(t, srv.URL+"/traces?slowest=-1"); code != http.StatusBadRequest {
		t.Fatalf("bad slowest = %d, want 400", code)
	}
}

// An uploaded wasm guest's state calls show in its trace: pull_state of an
// 8 KiB value is a state.pull span carrying the value's size, and the
// get_state that follows, a local hit, another that moved no bytes.
func TestUploadedGuestTraceShowsStatePull(t *testing.T) {
	srv, inst := newTestServer(t, 1)
	if err := inst.State().Global().Set("kv8k", make([]byte, 8192)); err != nil {
		t.Fatal(err)
	}
	key := int32(binary.LittleEndian.Uint32([]byte("kv8k")))
	src := fmt.Sprintf(`#memory 1
extern faasm pull_state(i32, i32);
extern faasm get_state(i32, i32, i32) *i32;
func main() i32 {
	var k *i32 = 512;
	k[0] = %d;
	pull_state(512, 4);
	var v *i32 = get_state(512, 4, 8192);
	return v[0];
}`, key)
	if code := put(t, srv.URL+"/f/puller?lang=fc", src); code != http.StatusOK {
		t.Fatalf("upload: %d", code)
	}
	resp := invoke(t, srv, "puller", "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invoke = %d", resp.StatusCode)
	}
	code, body, _ := get(t, srv.URL+"/trace/"+resp.Header.Get("X-Faasm-Trace"))
	if code != http.StatusOK {
		t.Fatalf("trace = %d: %s", code, body)
	}
	var snap obsv.TraceSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("trace json: %v\n%s", err, body)
	}
	var pulls []int64
	for _, sp := range snap.Spans {
		if sp.Name == "state.pull" && sp.Key == "kv8k" {
			pulls = append(pulls, sp.Bytes)
		}
	}
	if len(pulls) != 2 || pulls[0] != 8192 || pulls[1] != 0 {
		t.Fatalf("state.pull bytes = %v, want [8192 0]; spans %+v", pulls, snap.Spans)
	}
}

// TestConcurrentScrapeUnderTraffic hammers /invoke while scraping /metrics
// and /traces — the data race check for the whole exposition path (run
// under -race in CI).
func TestConcurrentScrapeUnderTraffic(t *testing.T) {
	srv, _ := newTestServer(t, 2)
	const (
		writers = 4
		calls   = 50
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				resp := invoke(t, srv, "echo", "x")
				resp.Body.Close()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			code, body, _ := get(t, srv.URL+"/metrics")
			if code != http.StatusOK || !strings.Contains(body, "faasm_frt_exec_seconds_count") {
				t.Fatalf("final scrape: %d", code)
			}
			return
		default:
			if code, _, _ := get(t, srv.URL+"/metrics"); code != http.StatusOK {
				t.Fatalf("scrape = %d", code)
			}
			if code, _, _ := get(t, srv.URL+"/traces?slowest=3"); code != http.StatusOK {
				t.Fatalf("traces scrape = %d", code)
			}
		}
	}
}

func TestStatusReportsShardHealth(t *testing.T) {
	ring := shardkvs.NewLocal(2, shardkvs.Options{Replication: 2})
	inst := frt.New(frt.Config{Host: "test-0", Store: ring})
	t.Cleanup(inst.Shutdown)
	srv := httptest.NewServer(newMux(inst, ring))
	t.Cleanup(srv.Close)

	code, body, _ := get(t, srv.URL+"/status")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	for _, want := range []string{"state tier: failovers", "shard shard-0: in-sync", "shard shard-1: in-sync"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/status missing %q:\n%s", want, body)
		}
	}
}

func TestAsyncInvokeEndpoints(t *testing.T) {
	eng := kvs.NewEngine()
	inst := frt.New(frt.Config{
		Host:  "test-0",
		Store: eng,
		Queue: &queue.Config{Poll: time.Millisecond},
	})
	t.Cleanup(inst.Shutdown)
	inst.RegisterNative("echo", hostapi.WrapGuest(func(api hostapi.API) (int32, error) {
		api.WriteOutput(api.Input())
		return 0, nil
	}))
	srv := httptest.NewServer(newMux(inst, nil))
	t.Cleanup(srv.Close)

	resp, err := http.Post(srv.URL+"/invoke/echo?async=1", "application/octet-stream", strings.NewReader("ping"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async invoke = %d, want 202", resp.StatusCode)
	}
	id := resp.Header.Get("X-Faasm-Call-ID")
	if id == "" {
		t.Fatal("no call id header")
	}

	// The consumer loop picks the item up; poll /call/<id> for the result.
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body, _ := get(t, srv.URL+"/call/"+id)
		if code == http.StatusOK {
			var rec struct {
				Status int    `json:"Status"`
				Output []byte `json:"Output"`
			}
			if err := json.Unmarshal([]byte(body), &rec); err != nil {
				t.Fatalf("decode result: %v\n%s", err, body)
			}
			if string(rec.Output) != "ping" {
				t.Fatalf("result output = %q", rec.Output)
			}
			break
		}
		if code != http.StatusNotFound {
			t.Fatalf("GET /call/%s = %d", id, code)
		}
		if time.Now().After(deadline) {
			t.Fatal("async call never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if _, body, _ := get(t, srv.URL+"/status"); !strings.Contains(body, "queue: enqueued 1") {
		t.Fatalf("/status missing queue line:\n%s", body)
	}
	if _, body, _ := get(t, srv.URL+"/metrics"); !strings.Contains(body, "faasm_queue_enqueued_total") {
		t.Fatalf("/metrics missing faasm_queue_enqueued_total:\n%s", body)
	}
}

func TestAsyncDisabledReturns501(t *testing.T) {
	srv, _ := newTestServer(t, 1) // built without a Queue
	resp, err := http.Post(srv.URL+"/invoke/echo?async=1", "application/octet-stream", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("async invoke without queue = %d, want 501", resp.StatusCode)
	}
	if code, _, _ := get(t, srv.URL+"/call/1"); code != http.StatusNotImplemented {
		t.Fatalf("GET /call without queue = %d, want 501", code)
	}
}

// zeros reads as an endless run of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// overCap is a body one byte over limit, with its length declared
// (sized) or hidden from net/http (chunked).
func overCap(limit int64, sized bool) (io.Reader, int64) {
	body := io.LimitReader(zeros{}, limit+1)
	if sized {
		return body, limit + 1
	}
	return struct{ io.Reader }{body}, -1
}

// send makes a method request of url with body, declaring length when it is
// not -1, and returns the reply's status and body; a request that gets no
// reply fails t.
func send(t *testing.T, method, url string, body io.Reader, length int64) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if length >= 0 {
		req.ContentLength = length
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading the reply: %v", method, url, err)
	}
	return resp.StatusCode, string(out)
}

// TestInvokeBodyFraming posts inputs with a declared length (read in one
// sized read), with none (chunked: read to EOF) and empty; each must reach
// the guest whole and come back with the return-code header. An input one
// byte over the cap is refused with 413, declared or chunked, rather than
// reaching the guest cut short.
func TestInvokeBodyFraming(t *testing.T) {
	srv, _ := newTestServer(t, -1)
	big := strings.Repeat("0123456789abcdef", 8192) // 128 KiB
	for name, body := range map[string]io.Reader{
		"sized":   strings.NewReader(big),
		"chunked": struct{ io.Reader }{strings.NewReader(big)}, // hides the length from net/http
		"empty":   strings.NewReader(""),
	} {
		resp, err := http.Post(srv.URL+"/invoke/echo", "application/octet-stream", body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		want := big
		if name == "empty" {
			want = ""
		}
		if err != nil || resp.StatusCode != http.StatusOK || string(got) != want {
			t.Fatalf("%s: status %d, %d bytes back, %v", name, resp.StatusCode, len(got), err)
		}
		if rc := resp.Header.Get("X-Faasm-Return-Code"); rc != "0" {
			t.Fatalf("%s: return-code header %q", name, rc)
		}
	}
	for name, sized := range map[string]bool{"sized over cap": true, "chunked over cap": false} {
		body, length := overCap(maxInput, sized)
		if code, msg := send(t, http.MethodPost, srv.URL+"/invoke/echo", body, length); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: %d %.80q, want 413", name, code, msg)
		}
	}
}

// versionSource is a module whose main outputs the two-byte version v.
func versionSource(v string) string {
	return `(module (memory 1) (data (i32.const 8) "` + v + `")
	  (import "faasm" "write_call_output" (func $out (param i32 i32)))
	  (func $main (export "main") (result i32) i32.const 8 i32.const 2 call $out i32.const 0))`
}

func put(t *testing.T, url, body string) int {
	t.Helper()
	code, err := tryPut(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return code
}

func tryPut(url, body string) (int, error) {
	req, err := http.NewRequest(http.MethodPut, url, strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("PUT %s: %w", url, err)
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// Re-uploading a function replaces the body its next call runs, although the
// first call left a warm Faaslet of the old one; an upload that cannot be
// deployed is refused and leaves the deployed version serving.
func TestReuploadTakesEffect(t *testing.T) {
	srv, _ := newTestServer(t, -1)
	call := func() string {
		t.Helper()
		resp := invoke(t, srv, "ver", "")
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke ver: %d %v", resp.StatusCode, err)
		}
		return string(out)
	}
	for _, v := range []string{"v1", "v2"} {
		if code := put(t, srv.URL+"/f/ver?lang=wat", versionSource(v)); code != http.StatusOK {
			t.Fatalf("upload %s: %d", v, code)
		}
		if got := call(); got != v {
			t.Fatalf("after uploading %s the call returned %q", v, got)
		}
	}
	trapping := `(module (memory 1) (func $init unreachable) (start $init)
	  (func $main (export "main") (result i32) i32.const 0))`
	if code := put(t, srv.URL+"/f/ver?lang=wat", trapping); code != http.StatusUnprocessableEntity {
		t.Fatalf("upload with a trapping start function: %d, want 422", code)
	}
	if got := call(); got != "v2" {
		t.Fatalf("after a refused upload the call returned %q, want v2", got)
	}
}

// A client that stalls part-way through its request headers is disconnected
// once the header timeout passes, instead of holding its connection forever.
func TestStalledHeaderDisconnected(t *testing.T) {
	_, inst := newTestServer(t, -1)
	srv := newServer("127.0.0.1:0", newMux(inst, nil))
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.IdleTimeout != idleTimeout {
		t.Fatalf("server timeouts %v/%v, want %v/%v", srv.ReadHeaderTimeout, srv.IdleTimeout, readHeaderTimeout, idleTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond // the constant, shortened for the test
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /invoke/echo HTTP/1.1\r\nHost: faasmd\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(5 * time.Second))
	n, err := conn.Read(make([]byte, 512))
	if !errors.Is(err, io.EOF) {
		t.Fatalf("stalled client read %d bytes, %v: want the server to close the connection", n, err)
	}
	if waited := time.Since(start); waited < srv.ReadHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the header timeout", waited)
	}
}

// Names uploaded with one content share one image; a redeploy moves one name
// and no other, and an image no name uses any more is gone.
func TestUploadsShareContent(t *testing.T) {
	inst := frt.New(frt.Config{Host: "test-0", TraceSample: -1})
	t.Cleanup(inst.Shutdown)
	srv := httptest.NewServer(newMux(inst, nil))
	t.Cleanup(srv.Close)
	call := func(fn string) string {
		t.Helper()
		resp := invoke(t, srv, fn, "")
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("invoke %s: %d %v", fn, resp.StatusCode, err)
		}
		return string(out)
	}
	held := func(images int) {
		t.Helper()
		if n := inst.Images(); n != images {
			t.Fatalf("%d images, want %d", n, images)
		}
	}
	for _, fn := range []string{"a", "b"} {
		if code := put(t, srv.URL+"/f/"+fn+"?lang=wat", versionSource("v1")); code != http.StatusOK {
			t.Fatalf("upload %s: %d", fn, code)
		}
	}
	held(1)
	if call("a") != "v1" || call("b") != "v1" {
		t.Fatal("a name of shared content answered wrong")
	}
	for inst.PoolSize("b") != 1 {
		runtime.Gosched() // b's Faaslet is reset in the background
	}
	put(t, srv.URL+"/f/a?lang=wat", versionSource("v2"))
	held(2)
	if got := call("a"); got != "v2" {
		t.Fatalf("a after its re-upload: %q", got)
	}
	if n := inst.PoolSize("b"); n != 1 {
		t.Fatalf("b's pool holds %d after a's re-upload, want 1", n)
	}
	if got := call("b"); got != "v1" {
		t.Fatalf("b after a's re-upload: %q", got)
	}
	put(t, srv.URL+"/f/b?lang=wat", versionSource("v2"))
	held(1)
	trapping := `(module (memory 1) (func $init unreachable) (start $init)
	  (func $main (export "main") (result i32) i32.const 0))`
	for _, fn := range []string{"a", "c"} {
		if code := put(t, srv.URL+"/f/"+fn+"?lang=wat", trapping); code != http.StatusUnprocessableEntity {
			t.Fatalf("upload of a trapping start as %s: %d, want 422", fn, code)
		}
	}
	held(1)
	if got := call("a"); got != "v2" {
		t.Fatalf("a after a refused upload: %q", got)
	}
}

// Concurrent uploads of one new content end with one image, referenced once
// per name: moving all names but one keeps it, and moving the last drops it.
func TestConcurrentUploadsOfOneContent(t *testing.T) {
	inst := frt.New(frt.Config{Host: "test-0", TraceSample: -1})
	t.Cleanup(inst.Shutdown)
	srv := httptest.NewServer(newMux(inst, nil))
	t.Cleanup(srv.Close)
	const names = 8
	var wg sync.WaitGroup
	for n := 0; n < names; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code, err := tryPut(fmt.Sprintf("%s/f/fn%d?lang=wat", srv.URL, n), versionSource("v1")); code != http.StatusOK {
				t.Errorf("upload fn%d: %d %v", n, code, err)
			}
		}()
	}
	wg.Wait()
	if n := inst.Images(); n != 1 {
		t.Fatalf("%d images after concurrent uploads", n)
	}
	for n := 0; n < names; n++ {
		put(t, fmt.Sprintf("%s/f/fn%d?lang=wat", srv.URL, n), versionSource("v2"))
		want := 2
		if n == names-1 {
			want = 1
		}
		if imgs := inst.Images(); imgs != want {
			t.Fatalf("after moving %d names: %d images, want %d", n+1, imgs, want)
		}
	}
}

// A bad name is refused with 400 and source that code generation rejects
// with 422; neither adds an image. /f/ takes uploads only.
func TestHTTPRejectsBadUploads(t *testing.T) {
	srv, inst := newTestServer(t, -1)
	for _, tc := range []struct {
		method, target, body string
		want                 int
	}{
		{http.MethodPut, "/f/?lang=wat", versionSource("v1"), http.StatusBadRequest},
		{http.MethodPut, "/f/a/b?lang=wat", versionSource("v1"), http.StatusBadRequest},
		{http.MethodPut, "/f/bad?lang=fc", "not a program", http.StatusUnprocessableEntity},
		{http.MethodPut, "/f/bad?lang=wat", "not a module", http.StatusUnprocessableEntity},
		{http.MethodGet, "/f/x", "", http.StatusMethodNotAllowed},
	} {
		code, msg := send(t, tc.method, srv.URL+tc.target, strings.NewReader(tc.body), -1)
		if code != tc.want {
			t.Fatalf("%s %s: %d %s, want %d", tc.method, tc.target, code, msg, tc.want)
		}
	}
	if n := inst.Images(); n != 0 {
		t.Fatalf("refused uploads left %d images", n)
	}
}

// A source one byte over the cap is refused whole, declared or chunked, and
// adds no image; one at the cap is read to its end and deployed.
func TestOversizedUploadRefused(t *testing.T) {
	srv, inst := newTestServer(t, -1)
	for name, sized := range map[string]bool{"sized": true, "chunked": false} {
		body, length := overCap(maxSource, sized)
		if code, msg := send(t, http.MethodPut, srv.URL+"/f/"+name+"?lang=wat", body, length); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: %d %.80q, want 413", name, code, msg)
		}
	}
	if n := inst.Images(); n != 0 {
		t.Fatalf("refused uploads left %d images", n)
	}
	src := versionSource("v1")
	atCap := strings.Repeat(" ", maxSource-len(src)) + src
	if code, msg := send(t, http.MethodPut, srv.URL+"/f/at-cap?lang=wat", struct{ io.Reader }{strings.NewReader(atCap)}, -1); code != http.StatusOK {
		t.Fatalf("source at the cap: %d %s", code, msg)
	}
	if n := inst.Images(); n != 1 {
		t.Fatalf("%d images after the upload at the cap, want 1", n)
	}
}

// uploadHeapGrowth uploads src(n) as function fn<n> for each n below names
// through a fresh daemon mux, calls each once, checks that it answers
// want(n), and returns how much live heap grew per function.
func uploadHeapGrowth(t *testing.T, names int, src, want func(n int) string) int64 {
	t.Helper()
	inst := frt.New(frt.Config{Host: "test-0", TraceSample: -1})
	t.Cleanup(inst.Shutdown)
	mux := newMux(inst, nil)
	serve := func(method, target, body string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, target, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	live := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second cycle empties sync.Pool victim caches too
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	log.SetOutput(io.Discard) // one "deployed" line per upload
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	before := live()
	for n := 0; n < names; n++ {
		serve(http.MethodPut, fmt.Sprintf("/f/fn%d?lang=wat", n), src(n))
	}
	for n := 0; n < names; n++ {
		if out := serve(http.MethodPost, fmt.Sprintf("/invoke/fn%d", n), ""); out != want(n) {
			t.Fatalf("fn%d answered %q, want %q", n, out, want(n))
		}
	}
	grew := (int64(live()) - int64(before)) / int64(names)
	runtime.KeepAlive(mux)
	t.Logf("live heap grew %d B per function", grew)
	return grew
}

// dataModule is a module with a 64 KiB data segment whose last four bytes
// are tail; main outputs them.
func dataModule(tail string) string {
	return fmt.Sprintf(`(module
	  (import "faasm" "write_call_output" (func $out (param i32 i32)))
	  (memory 2)
	  (data (i32.const 65536) "%s%s")
	  (func $main (export "main") (result i32)
	    i32.const 131068 i32.const 4 call $out i32.const 0))`, strings.Repeat("abcd", 16<<10-1), tail)
}

// One module uploaded under many names costs each name a record, not a
// copy of the module: after every name is called once, live heap grows by
// at most 16 KiB per function although the module carries a 64 KiB data
// segment.
func TestUploadHeapBudget(t *testing.T) {
	const budget = 16 << 10
	src := dataModule("abcd")
	grew := uploadHeapGrowth(t, 500,
		func(int) string { return src },
		func(int) string { return "abcd" })
	if grew > budget {
		t.Fatalf("live heap grew %d B per function, budget %d", grew, budget)
	}
}

// Distinct modules each cost one image, and nothing beside it: after every
// name is called once, live heap grows by at most 80 KiB per function, of
// which the image's 64 KiB data page is most.
func TestDistinctUploadHeapBudget(t *testing.T) {
	const budget = 80 << 10
	tail := func(n int) string { return fmt.Sprintf("%04d", n) }
	grew := uploadHeapGrowth(t, 500,
		func(n int) string { return dataModule(tail(n)) },
		tail)
	if grew > budget {
		t.Fatalf("live heap grew %d B per function, budget %d", grew, budget)
	}
}
