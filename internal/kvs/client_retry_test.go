package kvs_test

// A pooled client connection can be closed server-side while it sits idle
// (server restart, idle timeout at an LB). The client must absorb that by
// retrying once on a fresh connection instead of surfacing a spurious error
// to the state tier.

import (
	"testing"
	"time"

	"faasm.dev/faasm/internal/kvs"
)

// restartServer closes srv and brings a new server up on the same address,
// backed by engine. The listening socket can linger briefly, so binding is
// retried.
func restartServer(t *testing.T, srv *kvs.Server, engine *kvs.Engine) *kvs.Server {
	t.Helper()
	addr := srv.Addr()
	srv.Close()
	var next *kvs.Server
	var err error
	for i := 0; i < 50; i++ {
		next, err = kvs.NewServer(engine, addr)
		if err == nil {
			return next
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("rebind %s: %v", addr, err)
	return nil
}

func TestClientRetriesStalePooledConn(t *testing.T) {
	engine := kvs.NewEngine()
	srv, err := kvs.NewServer(engine, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := kvs.NewClient(srv.Addr())
	defer c.Close()

	// Seed and touch the conn so it lands in the pool.
	if err := c.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// Kill every established conn; the pooled one is now stale.
	srv = restartServer(t, srv, engine)

	// Single-op path: must succeed via the one-shot redial, not error.
	v, err := c.Get("k")
	if err != nil {
		t.Fatalf("get over stale pooled conn: %v", err)
	}
	if string(v) != "v1" {
		t.Fatalf("get = %q", v)
	}

	// Batch path: stale again after another restart.
	srv = restartServer(t, srv, engine)
	vals, err := c.MGet([]string{"k", "missing"})
	if err != nil {
		t.Fatalf("mget over stale pooled conn: %v", err)
	}
	if string(vals[0]) != "v1" || vals[1] != nil {
		t.Fatalf("mget = %q %q", vals[0], vals[1])
	}

	// A dead server (no listener at all) must still error.
	srv.Close()
	if err := c.Set("k", []byte("v2")); err == nil {
		t.Fatal("set against a dead server must error")
	}
}

// A shard that is briefly down (restarting, failing over) must cost the
// caller a backoff, not an error: connect-refused dials retry with
// exponential backoff until the listener returns.
func TestClientBacksOffConnectRefused(t *testing.T) {
	engine := kvs.NewEngine()
	if err := engine.Set("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Reserve an address, then close it so the first dials are refused.
	srv, err := kvs.NewServer(engine, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	srv.Close()

	c := kvs.NewClient(addr)
	c.Retry = kvs.RetryPolicy{Max: 8, Base: 25 * time.Millisecond, Cap: 100 * time.Millisecond}
	defer c.Close()

	// Bring the server back while the client is mid-backoff.
	up := make(chan *kvs.Server, 1)
	go func() {
		time.Sleep(60 * time.Millisecond)
		for i := 0; i < 50; i++ {
			next, err := kvs.NewServer(engine, addr)
			if err == nil {
				up <- next
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		up <- nil
	}()

	start := time.Now()
	v, err := c.Get("k")
	if err != nil {
		t.Fatalf("get through a restart: %v", err)
	}
	if string(v) != "v1" {
		t.Fatalf("get = %q", v)
	}
	if waited := time.Since(start); waited < 25*time.Millisecond {
		t.Fatalf("succeeded in %v: no backoff happened before the server was up", waited)
	}
	if srv := <-up; srv != nil {
		srv.Close()
	}

	// With retries disabled the same dead-address dial errors immediately.
	c2 := kvs.NewClient(addr)
	c2.Retry = kvs.RetryPolicy{Max: -1}
	c2.DialTimeout = time.Second
	defer c2.Close()
	if _, err := c2.Get("k"); err == nil {
		t.Fatal("get with retries disabled must surface the dial error")
	} else if !kvs.IsUnavailable(err) {
		t.Fatalf("dial failure must classify unavailable, got %v", err)
	}
}
