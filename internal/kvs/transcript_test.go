package kvs

// The golden wire transcript: one scripted session covering every command,
// well-formed and malformed, driven through net.Pipe into a served Engine on
// a fixed clock. The full reply stream is compared byte for byte against
// testdata/wire_transcript.golden, so any change to what the server says —
// reply framing, ERR text, which errors drop the connection — shows up as a
// diff. Regenerate with `go test ./internal/kvs -run TestWireTranscript -update`
// only for a deliberate protocol change.

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// step is one request (line(s) plus any payload) and the number of replies
// it draws. fatal steps end with the server dropping the connection; the
// transcript reconnects for the next step.
type step struct {
	send    string
	replies int
	fatal   bool
}

func transcriptScript() []step {
	one := func(s string) step { return step{send: s, replies: 1} }
	fatal := func(s string) step { return step{send: s, replies: 1, fatal: true} }
	many := func(prefix, item string, n int) string {
		return prefix + strings.Repeat(item, n) + "\n"
	}
	return []step{
		// Happy path, every command.
		one("PING\n"),
		one("PING extra args\n"),
		one("SET \"k\" 5\nhello"),
		one("GET \"k\"\n"),
		one("GET \"missing\"\n"),
		one("SET \"empty\" 0\n"),
		one("GET \"empty\"\n"),
		one("SETEX \"lease\" 1500 3\nabc"),
		one("TTL \"lease\"\n"),
		one("TTL \"k\"\n"),
		one("TTL \"missing\"\n"),
		one("PERSIST \"lease\"\n"), // removed command: ERR unknown command
		one("GETRANGE \"k\" 1 3\n"),
		one("GETRANGE \"k\" 3 100\n"),
		one("GETRANGE \"k\" 9 1\n"),
		one("GETRANGE \"k\" -1 1\n"),
		one("SETRANGE \"k\" 7 2\nXY"),
		one("GET \"k\"\n"),
		one("APPEND \"k\" 3\n123"),
		one("LEN \"k\"\n"),
		one("LEN \"missing\"\n"),
		one("DEL \"empty\"\n"),
		one("SADD \"s\" \"b\"\n"),
		one("SADD \"s\" \"a\\nquoted\"\n"),
		one("SADD \"s\" \"b\"\n"),
		one("SMEMBERS \"s\"\n"),
		one("SREM \"s\" \"b\"\n"),
		one("SREM \"s\" \"b\"\n"),
		one("SMEMBERS \"none\"\n"),
		one("INCR \"n\" 5\n"),
		one("INCR \"n\" -7\n"),
		one("INCR \"k\" 1\n"),
		one("LOCK \"l\" w 1000\n"),
		one("UNLOCK \"l\" 1\n"),
		one("LOCK \"l\" r 0\n"),
		one("UNLOCK \"l\" 2\n"),
		one("UNLOCK \"l\" 99\n"),
		one("MSET 2\n\"m1\" 2\nv1\"m2\" 0\n"),
		one("MGET \"m1\" \"m2\" \"missing\" \"k\"\n"),
		one("MSET 0\n"),
		one("GETRANGES \"k\" 0 2 2 2 50 1\n"),
		one("GETRANGES \"k\" -1 2\n"),
		one("KEYS\n"),
		one("bare GET\n"),
		// Malformed but survivable: the server replies ERR and keeps reading.
		one("\n"),
		one("   \n"),
		one("GET \"unterminated\n"),
		one("GET \"bad\\qescape\"\n"),
		one("FLY \"k\"\n"),
		one("get \"k\"\n"),
		one("GET\n"),
		one("GET \"k\" extra\n"),
		one("SET \"k\"\n"),
		one("TTL \"k\" extra\n"),
		one("MGET\n"),
		one("MSET\n"),
		one("GETRANGES \"k\"\n"),
		one("GETRANGES \"k\" 0\n"),
		one("GETRANGES \"k\" 0 1 2\n"),
		one("KEYS extra\n"),
		one("GETRANGE \"k\" x 1\n"),
		one("GETRANGE \"k\" 0 y\n"),
		one("GETRANGES \"k\" 0 1 x 1\n"),
		one("INCR \"n\" 99999999999999999999\n"),
		one("INCR \"n\" x\n"),
		one("LOCK \"l\" w nan\n"),
		one("UNLOCK \"l\" -1\n"),
		one("UNLOCK \"l\" x\n"),
		// A bad SETRANGE offset is rejected before the payload is read, so
		// the payload bytes are parsed as the next request line.
		{send: "SETRANGE \"k\" x 5\nPING\n", replies: 2},
		// Connection-fatal: the server replies ERR and hangs up.
		fatal("SET \"k\" x\n"),
		fatal("SET \"k\" -1\n"),
		fatal(fmt.Sprintf("SET \"k\" %d\n", MaxPayload+1)),
		fatal("APPEND \"k\" nan\n"),
		fatal("SETRANGE \"k\" 0 nan\n"),
		fatal("SETEX \"k\" 0 1\nx"),
		fatal("SETEX \"k\" -5 1\nx"),
		fatal("SETEX \"k\" nan 1\nx"),
		fatal("SETEX \"k\" 9223372036855 1\nx"),
		fatal("SETEX \"k\" 100 nan\n"),
		fatal("MSET nan\n"),
		fatal("MSET -1\n"),
		fatal(fmt.Sprintf("MSET %d\n", MaxBatch+1)),
		fatal("MSET 1\n\"a\"\n"),
		fatal("MSET 1\n\"a\" nan\n"),
		fatal("MSET 1\n\"unterminated 1\n"),
		fatal(fmt.Sprintf("MSET 2\n\"a\" %d\n", MaxPayload+1)),
		fatal(many("MGET", " \"k\"", MaxBatch+1)),
		fatal(many("GETRANGES \"k\"", " 0 1", MaxBatch+1)),
		fatal(strings.Repeat("A", maxLine+10) + "\n"),
		// The batch limits themselves are still legal.
		one(many("MGET", " \"m1\"", MaxBatch)),
		one("GET \"k\"\n"),
	}
}

// readReply consumes one complete reply (including a MULTI's entries and a
// VAL's payload) and returns its raw bytes.
func readReply(r *bufio.Reader) ([]byte, error) {
	var out bytes.Buffer
	var one func() error
	one = func() error {
		line, err := r.ReadString('\n')
		out.WriteString(line)
		if err != nil {
			return err
		}
		status := strings.TrimSuffix(line, "\n")
		switch {
		case strings.HasPrefix(status, "VAL "):
			n, err := strconv.Atoi(status[4:])
			if err != nil {
				return err
			}
			buf := make([]byte, n)
			if _, err := io.ReadFull(r, buf); err != nil {
				return err
			}
			out.Write(buf)
		case strings.HasPrefix(status, "MULTI "):
			n, err := strconv.Atoi(status[6:])
			if err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if b, _ := r.Peek(1); len(b) == 1 && b[0] == '"' {
					line, err := r.ReadString('\n')
					out.WriteString(line)
					if err != nil {
						return err
					}
					continue
				}
				if err := one(); err != nil {
					return err
				}
			}
		}
		return nil
	}
	err := one()
	return out.Bytes(), err
}

// clip keeps the transcript readable: long requests and replies (the
// batch-limit cases) are shown by their head, length and checksum.
func clip(b []byte) string {
	const max = 120
	if len(b) <= max {
		return strconv.Quote(string(b))
	}
	return fmt.Sprintf("%s... (%d bytes, crc32 %08x)", strconv.Quote(string(b[:max])), len(b), crc32.ChecksumIEEE(b))
}

func runTranscript(t *testing.T) []byte {
	e := NewEngine()
	epoch := time.Date(2020, 7, 15, 12, 0, 0, 0, time.UTC)
	e.SetNowFunc(func() time.Time { return epoch })
	var out bytes.Buffer
	var client net.Conn
	var r *bufio.Reader
	var served chan struct{}
	connect := func() {
		s := &Server{engine: e, conns: map[net.Conn]struct{}{}, done: make(chan struct{})}
		var server net.Conn
		client, server = net.Pipe()
		served = make(chan struct{})
		go func() {
			defer close(served)
			s.serve(server)
		}()
		r = bufio.NewReader(client)
	}
	connect()
	for i, st := range transcriptScript() {
		client.SetDeadline(time.Now().Add(10 * time.Second))
		// The request goes out from its own goroutine: a fatal step may be
		// refused part-way, and an unbuffered pipe would block the writer.
		go client.Write([]byte(st.send))
		fmt.Fprintf(&out, "> %s\n", clip([]byte(st.send)))
		for j := 0; j < st.replies; j++ {
			reply, err := readReply(r)
			if err != nil {
				t.Fatalf("step %d (%q): reply %d: %v after %q", i, st.send, j, err, reply)
			}
			fmt.Fprintf(&out, "< %s\n", clip(reply))
		}
		if st.fatal {
			if b, err := r.ReadByte(); !errors.Is(err, io.EOF) {
				t.Fatalf("step %d (%q): connection survived a fatal request (read %q, %v)", i, st.send, b, err)
			}
			out.WriteString("< (connection closed)\n")
			<-served
			client.Close()
			connect()
		}
	}
	client.Close()
	<-served
	return out.Bytes()
}

func TestWireTranscript(t *testing.T) {
	got := runTranscript(t)
	const golden = "testdata/wire_transcript.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("wire transcript differs at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("wire transcript length differs: got %d lines, want %d", len(gl), len(wl))
	}
}
