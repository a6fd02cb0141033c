package kvs

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"time"

	"faasm.dev/faasm/internal/obsv"
)

// Client defaults.
const (
	// DefaultDialTimeout is Client.DialTimeout's default.
	DefaultDialTimeout = 5 * time.Second
	// DefaultRetryMax is RetryPolicy.Max's default.
	DefaultRetryMax = 2
)

// RetryPolicy bounds the client's reconnect-and-retry loop. Zero values take
// the field defaults, so a zero RetryPolicy is the default policy, not "no
// retries" — set Max to a negative value to disable retries outright.
type RetryPolicy struct {
	// Max is the retry attempts after the first try (0 = DefaultRetryMax;
	// negative disables retries). Only connect/timeout-class failures
	// (IsUnavailable) are ever retried, and never after the first reply
	// byte has arrived.
	Max int
	// Base is the backoff before the first retry (default 20ms). Each
	// further retry doubles it, capped at Cap (default 1s), with ±50% jitter
	// so a thundering herd of clients does not re-dial in lockstep.
	Base time.Duration
	Cap  time.Duration
}

func (p RetryPolicy) max() int {
	if p.Max < 0 {
		return 0
	}
	if p.Max == 0 {
		return DefaultRetryMax
	}
	return p.Max
}

// sleep blocks for the backoff preceding retry attempt (1-based).
func (p RetryPolicy) sleep(attempt int) {
	base := p.Base
	if base <= 0 {
		base = 20 * time.Millisecond
	}
	ceil := p.Cap
	if ceil <= 0 {
		ceil = time.Second
	}
	d := base
	for i := 1; i < attempt && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	// Jitter in [d/2, 3d/2): decorrelates clients without ever collapsing
	// the delay to zero.
	d = d/2 + time.Duration(rand.Int63n(int64(d)+1))
	time.Sleep(d)
}

// Client is a TCP Store client with a small connection pool, so blocking
// LOCK calls do not stall unrelated operations. It counts transferred bytes
// for the network-transfer experiments (Figs 6b, 8b).
//
// DialTimeout, OpTimeout and Retry tune the failure behaviour; set them
// before the client is shared between goroutines (they are read without
// synchronisation once traffic starts).
type Client struct {
	addr string
	pool chan *clientConn
	max  int

	// DialTimeout bounds one connection attempt (0 = DefaultDialTimeout).
	DialTimeout time.Duration
	// OpTimeout, when set, bounds each request/reply exchange except LOCK —
	// a lease acquire legitimately blocks server-side until the holder
	// releases, so deadlining it would break mutual exclusion under
	// contention. 0 (the default) leaves exchanges unbounded.
	OpTimeout time.Duration
	// Retry governs redial-and-retry on unavailability; see RetryPolicy.
	Retry RetryPolicy

	// Sent and Received count request and reply bytes of completed
	// exchanges.
	Sent     obsv.Counter
	Received obsv.Counter
}

type clientConn struct {
	conn       net.Conn
	r          *bufio.Reader
	w          *bufio.Writer
	read, sent int64 // bytes moved over conn
}

// Read and Write count what the buffered reader and writer move over the
// connection.
func (cc *clientConn) Read(p []byte) (int, error) {
	n, err := cc.conn.Read(p)
	cc.read += int64(n)
	return n, err
}

func (cc *clientConn) Write(p []byte) (int, error) {
	n, err := cc.conn.Write(p)
	cc.sent += int64(n)
	return n, err
}

// consumed is the byte count the client has parsed off the connection.
func (cc *clientConn) consumed() int64 { return cc.read - int64(cc.r.Buffered()) }

// NewClient returns a client for the server at addr with the default
// timeouts and retry policy.
func NewClient(addr string) *Client {
	const poolSize = 8
	return &Client{addr: addr, pool: make(chan *clientConn, poolSize), max: poolSize}
}

func (c *Client) dial() (*clientConn, error) {
	timeout := c.DialTimeout
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	conn, err := net.DialTimeout("tcp", c.addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("kvs: dial %s: %w", c.addr, err)
	}
	cc := &clientConn{conn: conn}
	cc.r = bufio.NewReaderSize(cc, 64*1024)
	cc.w = bufio.NewWriterSize(cc, 64*1024)
	return cc, nil
}

// getConn returns a connection and whether it came from the pool. Pooled
// connections may have been closed server-side while idle; exchange replays
// retriable commands on those.
func (c *Client) getConn() (*clientConn, bool, error) {
	select {
	case cc := <-c.pool:
		return cc, true, nil
	default:
	}
	cc, err := c.dial()
	return cc, false, err
}

func (c *Client) putConn(cc *clientConn) {
	select {
	case c.pool <- cc:
	default:
		cc.conn.Close()
	}
}

// Close drains and closes pooled connections.
func (c *Client) Close() error {
	for {
		select {
		case cc := <-c.pool:
			cc.conn.Close()
		default:
			return nil
		}
	}
}

// exchange runs one request/reply exchange for cmd: send writes the entire —
// possibly multi-request — batch (a write error surfaces at the flush), then
// after a single flush recv parses the entire reply stream. Sent counts the
// request bytes of the successful attempt, Received the reply bytes recv
// consumed.
//
// Three failure classes, three policies:
//
//   - Dial failures: nothing was sent, so a retry can never double-apply —
//     every command (including the once commands) redials with Retry's
//     bounded exponential backoff. This is what rides out a shard restart.
//   - Pre-reply failures on a pooled connection: the conn was probably
//     closed server-side while idle; retriable commands replay immediately
//     on a fresh conn without consuming a backoff attempt (bounded by the
//     pool size). There is a narrow race where the server executed the
//     request and died before flushing the reply; replaying is harmless for
//     value reads/writes (same bytes land again) but would double-apply
//     INCR and APPEND, leak a LOCK lease or misreport a set result,
//     so the table marks those commands once and the error surfaces.
//   - Pre-reply failures on a fresh connection (send error, op deadline,
//     peer death): retriable commands back off and retry while the failure
//     classifies as unavailability; semantic errors surface immediately.
//
// Failures after the first reply byte never retry, regardless of policy:
// the reply is underway and the stream position is unrecoverable. OpTimeout
// bounds every exchange except a blocking command's (LOCK).
func (c *Client) exchange(cmd *command, send func(w *bufio.Writer), recv func(r *bufio.Reader) error) error {
	useDeadline := !cmd.blocks && c.OpTimeout > 0
	var sent int64
	attempt := func(cc *clientConn) (err error, started bool) {
		if useDeadline {
			cc.conn.SetDeadline(time.Now().Add(c.OpTimeout))
		}
		sent = cc.sent
		send(cc.w)
		if err := cc.w.Flush(); err != nil {
			return err, false
		}
		sent = cc.sent - sent
		// Peek blocks until the first reply byte (or the conn's death)
		// without consuming it, separating "stale conn, safe to retry"
		// from "reply underway, must not replay".
		if _, err := cc.r.Peek(1); err != nil {
			return err, false
		}
		start := cc.consumed()
		err = recv(cc.r)
		c.Received.Add(cc.consumed() - start)
		return err, true
	}
	maxRetries := c.Retry.max()
	retries, staleReplays := 0, 0
	for {
		cc, fromPool, err := c.getConn()
		if err != nil {
			if retries >= maxRetries {
				return err
			}
			retries++
			c.Retry.sleep(retries)
			continue
		}
		err, started := attempt(cc)
		if err == nil {
			if useDeadline {
				cc.conn.SetDeadline(time.Time{})
			}
			c.Sent.Add(sent)
			c.putConn(cc)
			return nil
		}
		cc.conn.Close()
		if started || cmd.once {
			return err
		}
		if fromPool && staleReplays < c.max {
			staleReplays++
			continue
		}
		if !IsUnavailable(err) || retries >= maxRetries {
			return err
		}
		retries++
		c.Retry.sleep(retries)
	}
}

// request renders a request line from cmd's shapes: keys quoted, words and
// numbers bare, the length field as len(payload).
func (cmd *command) request(payload []byte, args ...any) []byte {
	line := append(make([]byte, 0, 64), cmd.name...)
	for _, sh := range cmd.args {
		line = append(line, ' ')
		switch sh {
		case argLen:
			line = strconv.AppendInt(line, int64(len(payload)), 10)
			continue
		case argKey:
			line = strconv.AppendQuote(line, args[0].(string))
		default:
			line = fmt.Append(line, args[0])
		}
		args = args[1:]
	}
	return append(line, '\n')
}

// call runs one single-line command and decodes its reply from the status
// line on.
func call[T any](c *Client, name string, payload []byte, decode func(status string, r *bufio.Reader) (T, error), args ...any) (T, error) {
	cmd := commands[name]
	line := cmd.request(payload, args...)
	var out T
	err := c.exchange(cmd,
		func(w *bufio.Writer) {
			w.Write(line)
			w.Write(payload)
		},
		func(r *bufio.Reader) error {
			status, err := readStatus(r)
			if err == nil {
				out, err = decode(status, r)
			}
			return err
		})
	return out, err
}

// readStatus reads one reply line without its newline.
func readStatus(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return line[:len(line)-1], nil
}

func readOK(status string, _ *bufio.Reader) (struct{}, error) {
	if status != "OK" {
		return struct{}{}, replyError(status)
	}
	return struct{}{}, nil
}

func readInt(status string, _ *bufio.Reader) (int64, error) {
	if !strings.HasPrefix(status, "INT ") {
		return 0, replyError(status)
	}
	return strconv.ParseInt(status[4:], 10, 64)
}

func replyError(status string) error {
	if strings.HasPrefix(status, "ERR ") {
		return fmt.Errorf("kvs: server: %s", status[4:])
	}
	return fmt.Errorf("kvs: unexpected reply %q", status)
}

// valLen parses a VAL/NIL status line: the payload length, -1 for NIL.
func valLen(status string) (int, error) {
	if status == "NIL" {
		return -1, nil
	}
	if !strings.HasPrefix(status, "VAL ") {
		return 0, replyError(status)
	}
	n, err := strconv.Atoi(status[4:])
	if err != nil || n < 0 {
		return 0, fmt.Errorf("kvs: bad VAL length %q", status)
	}
	return n, nil
}

func readVal(status string, r *bufio.Reader) ([]byte, error) {
	n, err := valLen(status)
	if n < 0 || err != nil {
		return nil, err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// readValInto decodes a VAL/NIL reply straight into dst, returning the
// payload length (0 for NIL). A payload longer than dst is a protocol error.
func readValInto(status string, r *bufio.Reader, dst []byte) (int, error) {
	n, err := valLen(status)
	if n <= 0 || err != nil {
		return 0, err
	}
	if n > len(dst) {
		return 0, fmt.Errorf("kvs: VAL length %d overruns a %d-byte window", n, len(dst))
	}
	_, err = io.ReadFull(r, dst[:n])
	return n, err
}

// readMulti decodes a MULTI reply of want entries (any count when want < 0),
// handing entry i — the line after the status line — to entry.
func readMulti(status string, r *bufio.Reader, want int, entry func(i int, line string, r *bufio.Reader) error) error {
	if !strings.HasPrefix(status, "MULTI ") {
		return replyError(status)
	}
	n, err := strconv.Atoi(status[6:])
	if err != nil || n < 0 {
		return fmt.Errorf("kvs: bad MULTI count %q", status)
	}
	if want >= 0 && n != want {
		return fmt.Errorf("kvs: bad batch reply count %q (want %d)", status, want)
	}
	for i := 0; i < n; i++ {
		line, err := readStatus(r)
		if err == nil {
			err = entry(i, line, r)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// readQuoted decodes a MULTI reply of quoted strings (SMEMBERS, KEYS).
func readQuoted(status string, r *bufio.Reader) ([]string, error) {
	var out []string
	err := readMulti(status, r, -1, func(_ int, line string, _ *bufio.Reader) error {
		s, err := strconv.Unquote(line)
		out = append(out, s)
		return err
	})
	return out, err
}

// callOK runs a command that replies OK.
func (c *Client) callOK(name string, payload []byte, args ...any) error {
	_, err := call(c, name, payload, readOK, args...)
	return err
}

// Get implements Store.
func (c *Client) Get(key string) ([]byte, error) { return call(c, "GET", nil, readVal, key) }

// Set implements Store.
func (c *Client) Set(key string, val []byte) error { return c.callOK("SET", val, key) }

// ttlMillis renders a TTL for the wire: client-side validation mirrors the
// server's, and sub-millisecond TTLs round up to the wire's granularity
// rather than down to an instantly-rejected zero.
func ttlMillis(ttl time.Duration) (int64, error) {
	if ttl <= 0 {
		return 0, fmt.Errorf("kvs: ttl must be positive, got %v", ttl)
	}
	return max(ttl.Milliseconds(), 1), nil
}

// SetEx implements Store. Safe to replay on a stale pooled conn: a second
// application writes the same bytes and re-arms an equivalent lease.
func (c *Client) SetEx(key string, val []byte, ttl time.Duration) error {
	ms, err := ttlMillis(ttl)
	if err != nil {
		return err
	}
	return c.callOK("SETEX", val, key, ms)
}

// TTL implements Store.
func (c *Client) TTL(key string) (time.Duration, error) {
	n, err := call(c, "TTL", nil, readInt, key)
	switch {
	case err != nil:
		return 0, err
	case n == -1:
		return TTLPersistent, nil
	case n == -2:
		return TTLMissing, nil
	case n > 0:
		return time.Duration(n) * time.Millisecond, nil
	}
	return 0, fmt.Errorf("kvs: bad TTL reply %d", n)
}

// GetRange implements Store.
func (c *Client) GetRange(key string, off, n int) ([]byte, error) {
	return call(c, "GETRANGE", nil, readVal, key, off, n)
}

// SetRange implements Store.
func (c *Client) SetRange(key string, off int, val []byte) error {
	return c.callOK("SETRANGE", val, key, off)
}

// Append implements Store.
func (c *Client) Append(key string, val []byte) (int, error) {
	n, err := call(c, "APPEND", val, readInt, key)
	return int(n), err
}

// Len implements Store.
func (c *Client) Len(key string) (int, error) {
	n, err := call(c, "LEN", nil, readInt, key)
	return int(n), err
}

// Delete implements Store.
func (c *Client) Delete(key string) error { return c.callOK("DEL", nil, key) }

// SAdd implements Store.
func (c *Client) SAdd(key, member string) (bool, error) {
	n, err := call(c, "SADD", nil, readInt, key, member)
	return n == 1, err
}

// SRem implements Store.
func (c *Client) SRem(key, member string) (bool, error) {
	n, err := call(c, "SREM", nil, readInt, key, member)
	return n == 1, err
}

// SMembers implements Store.
func (c *Client) SMembers(key string) ([]string, error) {
	return call(c, "SMEMBERS", nil, readQuoted, key)
}

// AllKeys implements Store.
func (c *Client) AllKeys() ([]KeyInfo, error) {
	lines, err := call(c, "KEYS", nil, readQuoted)
	if err != nil {
		return nil, err
	}
	out := make([]KeyInfo, 0, len(lines))
	for _, m := range lines {
		if len(m) < 2 || m[1] != ':' {
			return nil, fmt.Errorf("kvs: bad KEYS entry %q", m)
		}
		out = append(out, KeyInfo{Kind: Kind(m[0]), Key: m[2:]})
	}
	return out, nil
}

// Incr implements Store.
func (c *Client) Incr(key string, delta int64) (int64, error) {
	return call(c, "INCR", nil, readInt, key, delta)
}

// Lock implements Store. The call blocks server-side until acquired. A
// non-positive ttl takes the engine's default lease, as it does in-process.
func (c *Client) Lock(key string, write bool, ttl time.Duration) (uint64, error) {
	mode := "r"
	if write {
		mode = "w"
	}
	n, err := call(c, "LOCK", nil, readInt, key, mode, max(ttl.Milliseconds(), 0))
	return uint64(n), err
}

// Unlock implements Store.
func (c *Client) Unlock(key string, token uint64) error {
	return c.callOK("UNLOCK", nil, key, token)
}

// batchGet runs a batched read (MGET, GETRANGES): the command name, then
// lead, then arg(i) for each entry (with its leading space), one command
// line per window of at most MaxBatch entries that fits the server's line
// cap. Entry i of the replies goes to entry. Each window is its own
// exchange: bounding what is in flight keeps client and server from
// deadlocking on full TCP buffers when both sides would otherwise stream
// megabytes blindly.
func (c *Client) batchGet(name, lead string, n int, arg func(i int) string, entry func(i int, status string, r *bufio.Reader) error) error {
	cmd := commands[name]
	var line strings.Builder
	for i := 0; i < n; {
		line.Reset()
		line.WriteString(name + lead)
		first, count := i, 0
		for ; i < n && count < MaxBatch; i, count = i+1, count+1 {
			a := arg(i)
			if count > 0 && line.Len()+len(a) >= maxLine-1 {
				break
			}
			line.WriteString(a)
		}
		line.WriteByte('\n')
		req := line.String()
		err := c.exchange(cmd,
			func(w *bufio.Writer) { w.WriteString(req) },
			func(r *bufio.Reader) error {
				status, err := readStatus(r)
				if err != nil {
					return err
				}
				return readMulti(status, r, count, func(j int, line string, r *bufio.Reader) error {
					return entry(first+j, line, r)
				})
			})
		if err != nil {
			return err
		}
	}
	return nil
}

// MGet implements Store: one pipelined exchange — request written, one
// flush, all replies read — per MGET command of up to MaxBatch keys,
// instead of one round trip per key.
func (c *Client) MGet(keys []string) ([][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	out := make([][]byte, len(keys))
	err := c.batchGet("MGET", "", len(keys), func(i int) string { return " " + strconv.Quote(keys[i]) },
		func(i int, status string, r *bufio.Reader) (err error) {
			out[i], err = readVal(status, r)
			return err
		})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MSet implements Store: the whole batch — split into MSET commands of at
// most MaxBatch entries — is written and flushed once, then one OK per
// command is read back. Unlike MGet, one exchange is safe at any size: the
// server consumes the request stream before each tiny OK reply, so reply
// backpressure cannot wedge the writing client.
func (c *Client) MSet(pairs []Pair) error {
	if len(pairs) == 0 {
		return nil
	}
	// Chunk on both the server's entry cap and its aggregate payload bound
	// (the server buffers a whole MSET before applying).
	var chunks [][]Pair
	start, bytes := 0, 0
	for i, p := range pairs {
		if i > start && (i-start >= MaxBatch || bytes+len(p.Val) > MaxPayload) {
			chunks = append(chunks, pairs[start:i])
			start, bytes = i, 0
		}
		bytes += len(p.Val)
	}
	chunks = append(chunks, pairs[start:])
	cmd := commands["MSET"]
	return c.exchange(cmd,
		func(w *bufio.Writer) {
			for _, ch := range chunks {
				w.Write(cmd.request(nil, len(ch)))
				for _, p := range ch {
					fmt.Fprintf(w, "%s %d\n", strconv.Quote(p.Key), len(p.Val))
					w.Write(p.Val)
				}
			}
		},
		func(r *bufio.Reader) error {
			for range chunks {
				status, err := readStatus(r)
				if err == nil {
					_, err = readOK(status, r)
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
}

// GetRangesInto implements Store: all windows of one key in one pipelined
// exchange per GETRANGES command of up to MaxBatch windows, each payload
// read off the connection straight into its window of dst. The
// single-observation guarantee holds per command: a batch needing several
// command windows may observe different value versions across them (see
// the Batcher contract).
func (c *Client) GetRangesInto(key string, ranges []Range, dst []byte) (int, error) {
	if err := checkWindows(ranges, len(dst)); err != nil {
		return 0, err
	}
	total := 0
	err := c.batchGet("GETRANGES", " "+strconv.Quote(key), len(ranges), func(i int) string {
		return " " + strconv.Itoa(ranges[i].Off) + " " + strconv.Itoa(ranges[i].N)
	}, func(i int, status string, r *bufio.Reader) error {
		rg := ranges[i]
		n, err := readValInto(status, r, dst[rg.Off:rg.Off+rg.N])
		total += n
		return err
	})
	return total, err
}

var _ Store = (*Client)(nil)
