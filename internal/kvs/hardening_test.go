package kvs_test

// Adversarial protocol tests: malformed requests must produce a clean ERR
// (or a dropped connection) and must never hang the server or take down
// service for well-behaved clients.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"faasm.dev/faasm/internal/kvs"
)

// rawConn dials the server for hand-crafted protocol abuse.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	t.Cleanup(func() { conn.Close() })
	return conn
}

func newTestServer(t *testing.T) *kvs.Server {
	t.Helper()
	srv, err := kvs.NewServer(kvs.NewEngine(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// serverStillHealthy verifies a fresh well-behaved client gets service.
func serverStillHealthy(t *testing.T, srv *kvs.Server) {
	t.Helper()
	c := kvs.NewClient(srv.Addr())
	defer c.Close()
	if err := c.Set("health", []byte("ok")); err != nil {
		t.Fatalf("server unhealthy after abuse: %v", err)
	}
	v, err := c.Get("health")
	if err != nil || string(v) != "ok" {
		t.Fatalf("server unhealthy after abuse: %q %v", v, err)
	}
}

func TestMalformedRequestLines(t *testing.T) {
	srv := newTestServer(t)
	for _, line := range []string{
		"",                                // empty command
		"NOSUCHCOMMAND a b c",             // unknown command
		"GET",                             // missing key
		"GET \"unterminated",              // unterminated quote
		"SET \"k\" notanumber",            // non-numeric payload length
		"GETRANGE \"k\" x y",              // non-numeric range
		"INCR \"k\" 99999999999999999999", // delta overflow
		"LOCK \"k\" w nan",                // bad ttl
	} {
		conn := rawConn(t, srv.Addr())
		fmt.Fprintf(conn, "%s\n", line)
		reply, err := bufio.NewReader(conn).ReadString('\n')
		// A reply is required only if the connection survives; either way it
		// must be an ERR, not a hang or a success.
		if err == nil && !strings.HasPrefix(reply, "ERR ") {
			t.Errorf("line %q: reply %q, want ERR", line, reply)
		}
		conn.Close()
	}
	serverStillHealthy(t, srv)
}

func TestExpiryCommandHardening(t *testing.T) {
	// The expiry commands take the same abuse as the rest of the protocol:
	// zero, negative, non-numeric and overflowing TTLs and bad arities must
	// all produce a clean ERR (or a dropped connection) — never a hang, a
	// wrapped deadline or an immortal key.
	srv := newTestServer(t)
	for _, line := range []string{
		"SETEX \"k\" 0 3",                    // zero ttl
		"SETEX \"k\" -5 3",                   // negative ttl
		"SETEX \"k\" nan 3",                  // non-numeric ttl
		"SETEX \"k\" 99999999999999999999 3", // ttl overflows int64
		"SETEX \"k\" 9223372036854775807 3",  // ms count overflows Duration
		"SETEX \"k\"",                        // missing fields
		"SETEX \"k\" 100",                    // missing payload length
		"TTL",                                // missing key
		"TTL \"k\" extra",                    // too many fields
	} {
		conn := rawConn(t, srv.Addr())
		fmt.Fprintf(conn, "%s\n", line)
		reply, err := bufio.NewReader(conn).ReadString('\n')
		if err == nil && !strings.HasPrefix(reply, "ERR ") {
			t.Errorf("line %q: reply %q, want ERR", line, reply)
		}
		conn.Close()
	}
	serverStillHealthy(t, srv)
	// None of the abuse may have landed a key.
	c := kvs.NewClient(srv.Addr())
	defer c.Close()
	if v, _ := c.Get("k"); v != nil {
		t.Fatalf("rejected SETEX landed a value: %q", v)
	}
}

func TestSetExOversizedDeclaredPayload(t *testing.T) {
	// SETEX enforces the same payload cap as SET: an absurd declared length
	// gets ERR and the connection drops (no resync mid-payload).
	srv := newTestServer(t)
	conn := rawConn(t, srv.Addr())
	fmt.Fprintf(conn, "SETEX \"k\" 1000 %d\n", int64(1)<<60)
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no reply to oversized declaration: %v", err)
	}
	if !strings.HasPrefix(reply, "ERR ") {
		t.Fatalf("reply %q, want ERR", reply)
	}
	if _, err := bufio.NewReader(conn).ReadString('\n'); err == nil {
		t.Fatal("connection survived an unreadable payload declaration")
	}
	serverStillHealthy(t, srv)
}

func TestExpiryCommandsWorkThroughAbusePath(t *testing.T) {
	// Hardening must not break the legitimate commands it guards.
	srv := newTestServer(t)
	c := kvs.NewClient(srv.Addr())
	defer c.Close()
	if err := c.SetEx("lease", []byte("up"), 200*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if d, err := c.TTL("lease"); err != nil || d <= 0 || d > time.Second {
		t.Fatalf("ttl over the wire = %v %v", d, err)
	}
	// A plain SET over the wire clears the expiry.
	if err := c.Set("lease", []byte("up")); err != nil {
		t.Fatal(err)
	}
	if d, err := c.TTL("lease"); err != nil || d != kvs.TTLPersistent {
		t.Fatalf("ttl after SET over the wire = %v %v, want persistent", d, err)
	}
}

func TestOversizedDeclaredPayload(t *testing.T) {
	srv := newTestServer(t)
	conn := rawConn(t, srv.Addr())
	// Declare an absurd payload length; the server must refuse instead of
	// allocating it or blocking forever for bytes that never come.
	fmt.Fprintf(conn, "SET \"k\" %d\n", int64(1)<<60)
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no reply to oversized declaration: %v", err)
	}
	if !strings.HasPrefix(reply, "ERR ") {
		t.Fatalf("reply %q, want ERR", reply)
	}
	// The connection must be dropped (no resync mid-payload is possible).
	if _, err := bufio.NewReader(conn).ReadString('\n'); err == nil {
		t.Fatal("connection survived an unreadable payload declaration")
	}
	serverStillHealthy(t, srv)
}

func TestNegativePayloadLength(t *testing.T) {
	srv := newTestServer(t)
	conn := rawConn(t, srv.Addr())
	fmt.Fprintf(conn, "SET \"k\" -5\n")
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no reply: %v", err)
	}
	if !strings.HasPrefix(reply, "ERR ") {
		t.Fatalf("reply %q, want ERR", reply)
	}
	serverStillHealthy(t, srv)
}

func TestMidPayloadDisconnect(t *testing.T) {
	srv := newTestServer(t)
	conn := rawConn(t, srv.Addr())
	// Declare 1000 bytes, send 10, vanish. The server goroutine must
	// abandon the read and keep serving others.
	fmt.Fprintf(conn, "SET \"k\" 1000\n")
	conn.Write([]byte("only ten b"))
	conn.Close()
	serverStillHealthy(t, srv)
	// The partial write must not have landed.
	c := kvs.NewClient(srv.Addr())
	defer c.Close()
	if v, _ := c.Get("k"); v != nil {
		t.Fatalf("truncated payload was stored: %q", v)
	}
}

func TestEndlessLineWithoutNewline(t *testing.T) {
	srv := newTestServer(t)
	conn := rawConn(t, srv.Addr())
	// Stream a newline-free request far past the line limit: the server
	// must cut the connection with ERR instead of buffering forever.
	junk := strings.Repeat("A", 32*1024)
	var wrote int
	for i := 0; i < 64; i++ {
		n, err := conn.Write([]byte(junk))
		wrote += n
		if err != nil {
			break // server already cut us off — that's the point
		}
	}
	if wrote < 64*1024 {
		t.Logf("server cut the stream after %d bytes", wrote)
	}
	reply, err := bufio.NewReader(conn).ReadString('\n')
	if err == nil && !strings.HasPrefix(reply, "ERR ") {
		t.Fatalf("reply %q, want ERR or dropped connection", reply)
	}
	serverStillHealthy(t, srv)
}

func TestPayloadAtLimitStillWorks(t *testing.T) {
	// Hardening must not break legitimate large values.
	srv := newTestServer(t)
	c := kvs.NewClient(srv.Addr())
	defer c.Close()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := c.Set("big", big); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("big")
	if err != nil || len(v) != len(big) {
		t.Fatalf("big value round trip: %d bytes, %v", len(v), err)
	}
}

func TestLockWireTTLBounded(t *testing.T) {
	// A LOCK lease too long for a time.Duration must be refused, not wrapped:
	// 18446744073710 ms times 1e6 overflows int64 to a ~0.45 ms lease, which
	// a second writer would acquire almost at once.
	srv := newTestServer(t)
	conn := rawConn(t, srv.Addr())
	r := bufio.NewReader(conn)
	fmt.Fprintf(conn, "LOCK \"k\" w 18446744073710\n")
	first, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if first != "ERR bad ttl\n" {
		// The lease was granted: it must still exclude a second writer.
		other := rawConn(t, srv.Addr())
		other.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
		fmt.Fprintf(other, "LOCK \"k\" w 1000\n")
		if second, err := bufio.NewReader(other).ReadString('\n'); err == nil {
			t.Fatalf("oversized LOCK ttl granted %q, then a second writer acquired %q", first, second)
		}
		return
	}
	// The rejection is a plain ERR on a live connection, negative TTLs get
	// the same, and 0 still means the engine's default lease.
	for _, line := range []string{"LOCK \"k\" w -1\n", "LOCK \"k\" r -9223372036854775808\n"} {
		fmt.Fprint(conn, line)
		if reply, err := r.ReadString('\n'); err != nil || reply != "ERR bad ttl\n" {
			t.Fatalf("%q: reply %q, %v; want ERR bad ttl", line, reply, err)
		}
	}
	fmt.Fprintf(conn, "LOCK \"k\" w 0\n")
	if reply, err := r.ReadString('\n'); err != nil || !strings.HasPrefix(reply, "INT ") {
		t.Fatalf("LOCK with default lease: %q, %v", reply, err)
	}
}

// TestRangeLengthNearMaxInt reads windows whose length is close to MaxInt64:
// the end offset must not overflow into a negative slice bound (a panic that
// would take the shard process down), and the read truncates at the value's
// end like any other.
func TestRangeLengthNearMaxInt(t *testing.T) {
	srv := newTestServer(t)
	c := kvs.NewClient(srv.Addr())
	defer c.Close()
	if err := c.Set("k", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	conn := rawConn(t, srv.Addr())
	r := bufio.NewReader(conn)
	fmt.Fprintf(conn, "GETRANGE \"k\" 5 9223372036854775807\nGETRANGES \"k\" 8 9223372036854775806\n")
	for _, want := range []string{"VAL 5\n", "56789", "MULTI 1\n", "VAL 2\n", "89"} {
		got := make([]byte, len(want))
		if _, err := io.ReadFull(r, got); err != nil || string(got) != want {
			t.Fatalf("reply %q, %v; want %q", got, err, want)
		}
	}
	eng := kvs.NewEngine()
	eng.Set("k", []byte("0123456789"))
	if v, err := eng.GetRange("k", 5, math.MaxInt); err != nil || string(v) != "56789" {
		t.Fatalf("in-process: %q %v", v, err)
	}
	serverStillHealthy(t, srv)
}

// TestClientRejectsOverrunningReply: the client reads a GETRANGES payload
// straight into the caller's window, so a reply longer than the window it
// answers (a broken or hostile server) must fail the read and leave the
// bytes past the window untouched.
func TestClientRejectsOverrunningReply(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		bufio.NewReader(conn).ReadString('\n')
		io.WriteString(conn, "MULTI 1\nVAL 8\nOVERRUN!")
	}()
	c := kvs.NewClient(ln.Addr().String())
	defer c.Close()
	dst := []byte("........")
	if _, err := c.GetRangesInto("k", []kvs.Range{{Off: 0, N: 4}}, dst); err == nil {
		t.Fatal("an 8-byte reply to a 4-byte window must fail")
	}
	if string(dst[4:]) != "...." {
		t.Fatalf("reply overran its window: %q", dst)
	}
}
