package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/hostapi"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/objstore"
	"faasm.dev/faasm/internal/obsv"
	"faasm.dev/faasm/internal/queue"
	"faasm.dev/faasm/internal/shardkvs"
	"faasm.dev/faasm/internal/upload"
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
	objects := objstore.NewMemory()
	srv := httptest.NewServer(newMux(inst, upload.New(objects), objects, nil))
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
	ring := shardkvs.NewLocal(2, shardkvs.Options{Replication: 2, ReadFailover: true})
	inst := frt.New(frt.Config{Host: "test-0", Store: ring})
	t.Cleanup(inst.Shutdown)
	objects := objstore.NewMemory()
	srv := httptest.NewServer(newMux(inst, upload.New(objects), objects, ring))
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
	objects := objstore.NewMemory()
	srv := httptest.NewServer(newMux(inst, upload.New(objects), objects, nil))
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

// TestInvokeBodyFraming posts inputs with a declared length (read in one
// sized read), with none (chunked: read to EOF) and empty; each must reach
// the guest whole and come back with the return-code header.
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
}
