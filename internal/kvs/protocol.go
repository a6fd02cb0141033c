package kvs

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The wire protocol is a line-oriented request/response exchange. Keys and
// members travel quoted (strconv.Quote) so they may contain any bytes;
// binary payloads follow a declared length:
//
//	request:  CMD "key" args... [payloadLen]\n [payload bytes]
//	response: OK | NIL | INT n | ERR msg | VAL n\n<bytes> | MULTI n\n"m1"\n...
//
// It deliberately mirrors the shape of RESP (the paper's global tier is
// Redis) while staying trivially parseable.
//
// Batch commands move a whole group in one exchange: MGET "k"... replies
// MULTI n followed by one VAL/NIL per key; GETRANGES "key" off n [off n]...
// replies MULTI n with one VAL/NIL per window; MSET n is followed by n
// entries of the form "key" len\n<payload> and replies a single OK. The
// client pipelines them — requests written, one flush, replies read — so a
// batch costs one network round trip per command window of up to MaxBatch
// entries (MSET windows additionally travel in a single flush), instead of
// one round trip per key.
//
// Key expiry is a tier-side primitive, mirroring Redis SETEX: the server's
// engine judges expiry on its own clock, so clients never compare stored
// deadlines against their clocks. SETEX "key" ttlMS len\n<payload> writes a
// value that the tier hides once ttlMS milliseconds elapse; TTL "key"
// replies INT remainingMS (-1 persistent, -2 missing); a plain SET clears an
// expiry.
//
// Every command is one row of the commands table below; the server parses
// and serves requests from it and the client renders requests and picks its
// retry and deadline policy from the same row.

// MaxPayload bounds a single declared payload length. A malicious or corrupt
// length field must not make the server allocate unbounded memory or block
// reading bytes that will never arrive; oversized declarations get an ERR
// and the connection is dropped.
const MaxPayload = 64 << 20

// MaxBatch bounds the entries in one batch command, for the same reason
// MaxPayload bounds one payload: a declared batch size must not make the
// server hold unbounded buffered writes. Clients split larger batches into
// several commands within one pipelined exchange.
const MaxBatch = 1024

// maxLine bounds one request line (command, quoted keys, numeric args).
const maxLine = 64 * 1024

// shape is how one request field parses (server) and renders (client).
type shape uint8

const (
	argKey   shape = iota // a key or set member, quoted on the wire
	argWord               // a bare token (LOCK's r/w mode)
	argNum                // a signed decimal; malformed → the row's bad reply
	argToken              // an unsigned decimal; malformed → the row's bad reply
	argLease              // a ms lease in [0, maxTTLMillis], 0 = engine default; malformed → the row's bad reply
	argTTL                // a ms TTL in [1, maxTTLMillis]; malformed drops the connection
	argLen                // a payload length; the payload follows the line
	argCount              // a batch count; that many `"key" len\n<payload>` entries follow the line
)

// command is one row of the command table.
type command struct {
	name string
	// args are the fields after the name; each, when set, is a group
	// repeated one to MaxBatch times after args (MGET's keys, GETRANGES'
	// windows). anyArgs accepts and ignores any fields (PING).
	args, each []shape
	anyArgs    bool
	// bad is the ERR reply to a malformed argNum, argToken or argLease
	// field. The connection survives it: nothing follows the line.
	bad string
	// once marks commands whose effect or reply changes when applied twice
	// (INCR, APPEND, SADD, SREM, LOCK): the client never replays
	// them after a pre-reply failure on a connection that may have carried
	// the request.
	once bool
	// blocks marks LOCK, which legitimately waits server-side for the
	// holder: the client's OpTimeout does not bound it.
	blocks bool
	// serve runs the request; writeReply encodes its result.
	serve func(e *Engine, a *request) (any, error)
}

// request is a parsed request's arguments, in field order per kind.
type request struct {
	keys    []string      // argKey and argWord fields
	nums    []int64       // argNum and argToken fields (tokens bit-cast)
	ttl     time.Duration // the argTTL or argLease field
	payload []byte        // the argLen field's payload
	pairs   []Pair        // the argCount field's entries
	// buf is the connection's reply buffer: a ranged read copies its
	// windows into it, and the dispatcher keeps it for the next request.
	buf []byte
}

// read serves a ranged read of the request's key from the connection's
// reply buffer (see Engine.readWindows).
func (a *request) read(e *Engine, ranges []Range) ([][]byte, error) {
	out, buf, err := e.readWindows(a.keys[0], ranges, a.buf)
	a.buf = buf
	return out, err
}

var commands = func() map[string]*command {
	rows := []command{
		{name: "PING", anyArgs: true, serve: func(e *Engine, a *request) (any, error) {
			return okReply{}, nil
		}},
		{name: "GET", args: []shape{argKey}, serve: func(e *Engine, a *request) (any, error) {
			return e.Get(a.keys[0])
		}},
		{name: "SET", args: []shape{argKey, argLen}, serve: func(e *Engine, a *request) (any, error) {
			return okReply{}, e.Set(a.keys[0], a.payload)
		}},
		{name: "SETEX", args: []shape{argKey, argTTL, argLen}, serve: func(e *Engine, a *request) (any, error) {
			return okReply{}, e.SetEx(a.keys[0], a.payload, a.ttl)
		}},
		{name: "TTL", args: []shape{argKey}, serve: func(e *Engine, a *request) (any, error) {
			return wireTTL(e.TTL(a.keys[0]))
		}},
		{name: "GETRANGE", args: []shape{argKey, argNum, argNum}, bad: "bad range", serve: func(e *Engine, a *request) (any, error) {
			out, err := a.read(e, []Range{{Off: int(a.nums[0]), N: int(a.nums[1])}})
			if err != nil {
				return nil, err
			}
			return out[0], nil
		}},
		{name: "SETRANGE", args: []shape{argKey, argNum, argLen}, bad: "bad offset", serve: func(e *Engine, a *request) (any, error) {
			return okReply{}, e.SetRange(a.keys[0], int(a.nums[0]), a.payload)
		}},
		{name: "APPEND", args: []shape{argKey, argLen}, once: true, serve: func(e *Engine, a *request) (any, error) {
			return e.Append(a.keys[0], a.payload)
		}},
		{name: "LEN", args: []shape{argKey}, serve: func(e *Engine, a *request) (any, error) {
			return e.Len(a.keys[0])
		}},
		{name: "DEL", args: []shape{argKey}, serve: func(e *Engine, a *request) (any, error) {
			return okReply{}, e.Delete(a.keys[0])
		}},
		{name: "SADD", args: []shape{argKey, argKey}, once: true, serve: func(e *Engine, a *request) (any, error) {
			return e.SAdd(a.keys[0], a.keys[1])
		}},
		{name: "SREM", args: []shape{argKey, argKey}, once: true, serve: func(e *Engine, a *request) (any, error) {
			return e.SRem(a.keys[0], a.keys[1])
		}},
		{name: "SMEMBERS", args: []shape{argKey}, serve: func(e *Engine, a *request) (any, error) {
			return e.SMembers(a.keys[0])
		}},
		{name: "INCR", args: []shape{argKey, argNum}, bad: "bad delta", once: true, serve: func(e *Engine, a *request) (any, error) {
			return e.Incr(a.keys[0], a.nums[0])
		}},
		// Blocking acquire: the paper's global locks block the caller. Each
		// connection carries one outstanding request, so blocking the
		// connection's goroutine here is safe.
		{name: "LOCK", args: []shape{argKey, argWord, argLease}, bad: "bad ttl", once: true, blocks: true, serve: func(e *Engine, a *request) (any, error) {
			return e.Lock(a.keys[0], a.keys[1] == "w", a.ttl)
		}},
		{name: "UNLOCK", args: []shape{argKey, argToken}, bad: "bad token", serve: func(e *Engine, a *request) (any, error) {
			return okReply{}, e.Unlock(a.keys[0], uint64(a.nums[0]))
		}},
		{name: "KEYS", serve: func(e *Engine, a *request) (any, error) {
			return keyLines(e.AllKeys())
		}},
		{name: "MGET", each: []shape{argKey}, serve: func(e *Engine, a *request) (any, error) {
			return e.MGet(a.keys)
		}},
		{name: "MSET", args: []shape{argCount}, serve: func(e *Engine, a *request) (any, error) {
			return okReply{}, e.MSet(a.pairs)
		}},
		{name: "GETRANGES", args: []shape{argKey}, each: []shape{argNum, argNum}, bad: "bad range", serve: func(e *Engine, a *request) (any, error) {
			ranges := make([]Range, len(a.nums)/2)
			for i := range ranges {
				ranges[i] = Range{Off: int(a.nums[2*i]), N: int(a.nums[2*i+1])}
			}
			return a.read(e, ranges)
		}},
	}
	m := make(map[string]*command, len(rows))
	for i := range rows {
		m[rows[i].name] = &rows[i]
	}
	return m
}()

// arity reports whether n fields after the name fit the row.
func (c *command) arity(n int) bool {
	switch {
	case c.anyArgs:
		return true
	case c.each == nil:
		return n == len(c.args)
	}
	n -= len(c.args)
	return n >= len(c.each) && n%len(c.each) == 0
}

// parse reads the arguments in field order. A malformed argNum, argToken or
// argLease field returns the row's soft ERR text before anything after it is read;
// anything the server cannot resynchronise past — a bad payload length or
// TTL, an oversized batch, a broken batch entry — is a connection-fatal
// error.
func (c *command) parse(fields []string, r *bufio.Reader) (a *request, soft string, err error) {
	a = &request{}
	if c.anyArgs {
		return a, "", nil
	}
	if c.each != nil {
		if reps := (len(fields) - len(c.args)) / len(c.each); reps > MaxBatch {
			return nil, "", fmt.Errorf("batch size %d exceeds limit %d", reps, MaxBatch)
		}
	}
	entries := 0
	for i, f := range fields {
		sh := shape(0)
		if i < len(c.args) {
			sh = c.args[i]
		} else {
			sh = c.each[(i-len(c.args))%len(c.each)]
		}
		switch sh {
		case argKey, argWord:
			a.keys = append(a.keys, f)
		case argNum:
			n, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, c.bad, nil
			}
			a.nums = append(a.nums, n)
		case argToken:
			n, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return nil, c.bad, nil
			}
			a.nums = append(a.nums, int64(n))
		case argLease:
			ms, err := strconv.ParseInt(f, 10, 64)
			if err != nil || ms < 0 || ms > maxTTLMillis {
				return nil, c.bad, nil
			}
			a.ttl = time.Duration(ms) * time.Millisecond
		case argTTL:
			if a.ttl, err = parseTTLMillis(f); err != nil {
				return nil, "", err
			}
		case argLen:
			if a.payload, err = readPayload(r, f); err != nil {
				return nil, "", err
			}
		case argCount:
			n, err := strconv.Atoi(f)
			if err != nil || n < 0 {
				return nil, "", fmt.Errorf("bad batch size %q", f)
			}
			if n > MaxBatch {
				return nil, "", fmt.Errorf("batch size %d exceeds limit %d", n, MaxBatch)
			}
			entries = n
		}
	}
	if entries > 0 {
		if a.pairs, err = readPairs(r, entries); err != nil {
			return nil, "", err
		}
	}
	return a, "", nil
}

// Server serves an Engine over TCP.
type Server struct {
	engine *Engine
	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	done   chan struct{}
}

// NewServer starts a server on addr (e.g. "127.0.0.1:0") backed by engine.
func NewServer(engine *Engine, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("kvs: listen %s: %w", addr, err)
	}
	s := &Server{engine: engine, ln: ln, conns: map[net.Conn]struct{}{}, done: make(chan struct{})}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and closes all connections.
func (s *Server) Close() error {
	close(s.done)
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return err
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				continue
			}
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReaderSize(conn, maxLine)
	w := bufio.NewWriterSize(conn, 64*1024)
	var buf []byte // reply buffer for ranged reads, reused across requests
	for {
		line, err := readLine(r)
		if err == nil {
			buf, err = s.dispatch(line, r, w, buf)
		} else if err != errLineTooLong {
			return // the client hung up
		}
		if err != nil {
			// Protocol-fatal: surface the reason if we still can, then drop
			// the connection rather than resynchronise mid-payload.
			replyErr(w, err)
			w.Flush()
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// dispatch handles one request line, with buf as the connection's reply
// buffer, and returns that buffer (possibly grown) for the next request. The
// reply is in w, not buf, by the time dispatch returns. It returns an error
// only for connection-fatal conditions.
func (s *Server) dispatch(line string, r *bufio.Reader, w *bufio.Writer, buf []byte) ([]byte, error) {
	fields, err := splitFields(line)
	if err != nil || len(fields) == 0 {
		w.WriteString("ERR bad request\n")
		return buf, nil
	}
	cmd := commands[fields[0]]
	if cmd == nil || !cmd.arity(len(fields)-1) {
		fmt.Fprintf(w, "ERR unknown command %q\n", fields[0])
		return buf, nil
	}
	a, soft, err := cmd.parse(fields[1:], r)
	if err != nil {
		return buf, err
	}
	if soft != "" {
		w.WriteString("ERR " + soft + "\n")
		return buf, nil
	}
	a.buf = buf
	v, err := cmd.serve(s.engine, a)
	writeReply(w, v, err)
	return a.buf, nil
}

var errLineTooLong = errors.New("request line too long")

// readLine reads one protocol line — a request or a batch entry header —
// capped at the reader's buffer size, so an endless newline-free stream
// cannot grow server memory.
func readLine(r *bufio.Reader) (string, error) {
	raw, err := r.ReadSlice('\n')
	if err != nil {
		if errors.Is(err, bufio.ErrBufferFull) {
			return "", errLineTooLong
		}
		return "", err
	}
	return string(raw[:len(raw)-1]), nil
}

// readPayload reads the payload a length field declares.
func readPayload(r *bufio.Reader, lenField string) ([]byte, error) {
	n, err := strconv.Atoi(lenField)
	if err != nil || n < 0 {
		return nil, fmt.Errorf("bad payload length %q", lenField)
	}
	if n > MaxPayload {
		return nil, fmt.Errorf("payload length %d exceeds limit %d", n, MaxPayload)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readPairs consumes n MSET entries ("key" len\n<payload>),
// enforcing the aggregate payload bound — the batch buffers before
// applying, so the total, not just each entry, must respect it.
func readPairs(r *bufio.Reader, n int) ([]Pair, error) {
	pairs := make([]Pair, 0, n)
	var total int
	for i := 0; i < n; i++ {
		line, err := readLine(r)
		if err != nil {
			return nil, err
		}
		sub, err := splitFields(line)
		if err != nil || len(sub) != 2 {
			return nil, fmt.Errorf("bad batch entry %q", line)
		}
		payload, err := readPayload(r, sub[1])
		if err != nil {
			return nil, err
		}
		if total += len(payload); total > MaxPayload {
			return nil, fmt.Errorf("batch payload total exceeds limit %d", MaxPayload)
		}
		pairs = append(pairs, Pair{Key: sub[0], Val: payload})
	}
	return pairs, nil
}

// okReply is the result of a command that replies OK.
type okReply struct{}

func replyErr(w *bufio.Writer, err error) {
	w.WriteString("ERR ")
	w.WriteString(strings.ReplaceAll(err.Error(), "\n", " "))
	w.WriteByte('\n')
}

// writeReply encodes a handler's result: an error as ERR, okReply as OK,
// integers and booleans as INT, a value as VAL (NIL when absent), a value
// list as MULTI of VAL/NIL entries and a string list as MULTI of quoted
// lines.
func writeReply(w *bufio.Writer, v any, err error) {
	if err != nil {
		replyErr(w, err)
		return
	}
	switch v := v.(type) {
	case okReply:
		w.WriteString("OK\n")
	case int, int64, uint64:
		fmt.Fprintf(w, "INT %d\n", v)
	case bool:
		if v {
			w.WriteString("INT 1\n")
		} else {
			w.WriteString("INT 0\n")
		}
	case []byte:
		writeVal(w, v)
	case [][]byte:
		fmt.Fprintf(w, "MULTI %d\n", len(v))
		for _, b := range v {
			writeVal(w, b)
		}
	case []string:
		fmt.Fprintf(w, "MULTI %d\n", len(v))
		for _, s := range v {
			w.WriteString(strconv.Quote(s))
			w.WriteByte('\n')
		}
	default:
		panic(fmt.Sprintf("kvs: no wire encoding for %T", v))
	}
}

func writeVal(w *bufio.Writer, v []byte) {
	if v == nil {
		w.WriteString("NIL\n")
		return
	}
	w.WriteString("VAL ")
	w.WriteString(strconv.Itoa(len(v)))
	w.WriteByte('\n')
	w.Write(v)
}

// keyLines renders KEYS entries as kind:key.
func keyLines(infos []KeyInfo, err error) ([]string, error) {
	out := make([]string, len(infos))
	for i, ki := range infos {
		out[i] = string(ki.Kind) + ":" + ki.Key
	}
	return out, err
}

// wireTTL renders a TTL result in milliseconds: -1 persistent, -2 missing,
// and a live key rounded up so it never reports 0 (which would be
// indistinguishable from "expiring this instant"). Divide before rounding:
// adding first would overflow for a maximal TTL and report a ~292-year
// lease as 1ms.
func wireTTL(d time.Duration, err error) (int64, error) {
	switch d {
	case TTLPersistent:
		return -1, err
	case TTLMissing:
		return -2, err
	}
	ms := int64(d / time.Millisecond)
	if d%time.Millisecond != 0 {
		ms++
	}
	return max(ms, 1), err
}

// maxTTLMillis bounds a wire TTL so converting it to a time.Duration cannot
// overflow into a negative (already-expired, or worse, never-expiring)
// deadline.
const maxTTLMillis = math.MaxInt64 / int64(time.Millisecond)

// parseTTLMillis validates a TTL field: it must be a positive millisecond
// count small enough to survive the Duration conversion. Zero, negative,
// overflowing and non-numeric TTLs are all rejected — an unbounded or
// wrapped TTL would silently turn a lease into a permanent record.
func parseTTLMillis(field string) (time.Duration, error) {
	ms, err := strconv.ParseInt(field, 10, 64)
	if err != nil || ms <= 0 || ms > maxTTLMillis {
		return 0, fmt.Errorf("bad ttl %q", field)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// splitFields splits a request line into fields, unquoting quoted ones.
func splitFields(line string) ([]string, error) {
	var out []string
	i := 0
	for i < len(line) {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		if i >= len(line) {
			break
		}
		if line[i] == '"' {
			// Find the closing quote, honouring escapes.
			j := i + 1
			for j < len(line) {
				if line[j] == '\\' {
					j += 2
					continue
				}
				if line[j] == '"' {
					break
				}
				j++
			}
			if j >= len(line) {
				return nil, errors.New("unterminated quote")
			}
			s, err := strconv.Unquote(line[i : j+1])
			if err != nil {
				return nil, err
			}
			out = append(out, s)
			i = j + 1
		} else {
			j := i
			for j < len(line) && line[j] != ' ' {
				j++
			}
			out = append(out, line[i:j])
			i = j
		}
	}
	return out, nil
}
