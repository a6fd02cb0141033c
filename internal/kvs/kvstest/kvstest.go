// Package kvstest is the shared conformance suite for kvs.Store
// implementations. The in-process Engine, the TCP Client and the sharded
// ring (internal/shardkvs) must all exhibit identical store semantics; each
// runs this suite so behaviour cannot drift between deployment modes.
package kvstest

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/simnet"
)

// Factory builds a fresh, empty store for one subtest. Implementations
// should register cleanup via t.Cleanup.
type Factory func(t *testing.T) kvs.Store

// Run exercises the full Store contract against stores built by mk. The
// Fallback subtests hold the per-key batch form — a simnet.FaultShard with no
// faults armed, whose batch methods decompose into its single ops — to the
// same batch semantics as the store's own batch path.
func Run(t *testing.T, mk Factory) {
	t.Run("GetSetDelete", func(t *testing.T) { testGetSetDelete(t, mk(t)) })
	t.Run("BinaryAndOddKeys", func(t *testing.T) { testBinaryAndOddKeys(t, mk(t)) })
	t.Run("Ranges", func(t *testing.T) { testRanges(t, mk(t)) })
	t.Run("AppendAndLen", func(t *testing.T) { testAppendAndLen(t, mk(t)) })
	t.Run("Sets", func(t *testing.T) { testSets(t, mk(t)) })
	t.Run("Incr", func(t *testing.T) { testIncr(t, mk(t)) })
	t.Run("LocksExclusion", func(t *testing.T) { testLocksExclusion(t, mk(t)) })
	t.Run("ReadersShareWritersExclude", func(t *testing.T) { testReadersShareWritersExclude(t, mk(t)) })
	t.Run("ConcurrentIncrement", func(t *testing.T) { testConcurrentIncrement(t, mk(t)) })
	t.Run("LockProtectsReadModifyWrite", func(t *testing.T) { testLockRMW(t, mk(t)) })
	t.Run("BatchMGet", func(t *testing.T) { testBatchMGet(t, mk(t)) })
	t.Run("BatchMSet", func(t *testing.T) { testBatchMSet(t, mk(t)) })
	t.Run("BatchGetRanges", func(t *testing.T) { testBatchGetRanges(t, mk(t)) })
	t.Run("BatchLarge", func(t *testing.T) { testBatchLarge(t, mk(t)) })
	t.Run("BatchConcurrentPerKeyAtomicity", func(t *testing.T) { testBatchAtomicity(t, mk(t)) })
	t.Run("FallbackMGet", func(t *testing.T) { testBatchMGet(t, simnet.NewFaultShard(mk(t), nil)) })
	t.Run("FallbackMSet", func(t *testing.T) { testBatchMSet(t, simnet.NewFaultShard(mk(t), nil)) })
	t.Run("FallbackGetRanges", func(t *testing.T) { testBatchGetRanges(t, simnet.NewFaultShard(mk(t), nil)) })
	t.Run("TTLExpireInvisible", func(t *testing.T) { testTTLExpireInvisible(t, mk(t)) })
	t.Run("TTLReSetExtends", func(t *testing.T) { testTTLReSetExtends(t, mk(t)) })
	t.Run("TTLPersistCancels", func(t *testing.T) { testTTLPersistCancels(t, mk(t)) })
	t.Run("TTLQueriesAndGuards", func(t *testing.T) { testTTLQueriesAndGuards(t, mk(t)) })
	t.Run("BatchMSetEx", func(t *testing.T) { testBatchMSetEx(t, mk(t)) })
	t.Run("FallbackMSetEx", func(t *testing.T) { testBatchMSetEx(t, simnet.NewFaultShard(mk(t), nil)) })
}

func testBatchMGet(t *testing.T, s kvs.Store) {
	if vals, err := s.MGet(nil); err != nil || len(vals) != 0 {
		t.Fatalf("empty mget: %v %v", vals, err)
	}
	s.Set("a", []byte("alpha"))
	s.Set("b/binary\"key", []byte{0, 255, '\n'})
	s.Set("empty", []byte{})
	vals, err := s.MGet([]string{"a", "missing", "b/binary\"key", "empty", "a"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 5 {
		t.Fatalf("mget returned %d values", len(vals))
	}
	if string(vals[0]) != "alpha" || string(vals[4]) != "alpha" {
		t.Fatalf("mget order not preserved: %q %q", vals[0], vals[4])
	}
	if vals[1] != nil {
		t.Fatalf("missing key should be nil, got %q", vals[1])
	}
	if !bytes.Equal(vals[2], []byte{0, 255, '\n'}) {
		t.Fatalf("binary value: %q", vals[2])
	}
	if vals[3] == nil || len(vals[3]) != 0 {
		t.Fatalf("present empty value must be empty, not nil: %v", vals[3])
	}
}

func testBatchMSet(t *testing.T, s kvs.Store) {
	if err := s.MSet(nil); err != nil {
		t.Fatalf("empty mset: %v", err)
	}
	pairs := []kvs.Pair{
		{Key: "x", Val: []byte("1")},
		{Key: "odd key\"", Val: []byte{7, 0, 9}},
		{Key: "dup", Val: []byte("first")},
		{Key: "dup", Val: []byte("last")},
	}
	if err := s.MSet(pairs); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("x"); string(v) != "1" {
		t.Fatalf("x = %q", v)
	}
	if v, _ := s.Get("odd key\""); !bytes.Equal(v, []byte{7, 0, 9}) {
		t.Fatalf("odd key = %q", v)
	}
	if v, _ := s.Get("dup"); string(v) != "last" {
		t.Fatalf("duplicated key must keep the last value, got %q", v)
	}
	// Overwrite through a second batch.
	if err := s.MSet([]kvs.Pair{{Key: "x", Val: []byte("2")}}); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("x"); string(v) != "2" {
		t.Fatalf("overwrite: x = %q", v)
	}
}

func testBatchGetRanges(t *testing.T, s kvs.Store) {
	if n, err := s.GetRangesInto("k", nil, nil); err != nil || n != 0 {
		t.Fatalf("empty getrangesinto: %d %v", n, err)
	}
	s.Set("k", []byte("0123456789"))
	// dst mirrors the value: each window lands at its own offset, and what
	// no window covers, or a read truncates short of, keeps its old bytes.
	dst := []byte("......................")
	n, err := s.GetRangesInto("k", []kvs.Range{
		{Off: 2, N: 3},  // interior
		{Off: 8, N: 10}, // truncated past the end
		{Off: 12, N: 5}, // entirely past the end
		{Off: 0, N: 0},  // empty window on a present value
		{Off: 0, N: 1},  // first byte
		{Off: 3, N: 2},  // overlaps the interior window
		{Off: 22, N: 0}, // empty window at the end of dst
	}, dst)
	if err != nil {
		t.Fatal(err)
	}
	if want := "0.234...89............"; string(dst) != want || n != 3+2+1+2 {
		t.Fatalf("windows: dst %q, %d bytes read; want %q, 8 bytes", dst, n, want)
	}
	whole := make([]byte, 10)
	if n, err := s.GetRangesInto("k", []kvs.Range{{Off: 0, N: 10}}, whole); err != nil || n != 10 || string(whole) != "0123456789" {
		t.Fatalf("whole: %q %d %v", whole, n, err)
	}
	// Negative bounds and windows outside dst error.
	for _, rg := range []kvs.Range{{Off: -1, N: 2}, {Off: 0, N: -1}, {Off: 9, N: 2}, {Off: 11, N: 0}} {
		if _, err := s.GetRangesInto("k", []kvs.Range{rg}, whole); err == nil {
			t.Fatalf("window %v of a 10-byte dst must error", rg)
		}
	}
	// Ranges of a missing key read nothing and leave dst alone.
	if n, err := s.GetRangesInto("nope", []kvs.Range{{Off: 0, N: 4}}, whole); err != nil || n != 0 || string(whole) != "0123456789" {
		t.Fatalf("missing key ranges: %q %d %v", whole, n, err)
	}
}

// testBatchLarge pushes a batch past the wire protocol's MaxBatch, so the
// TCP client must split it into several pipelined commands and reassemble
// the replies in order.
func testBatchLarge(t *testing.T, s kvs.Store) {
	const n = kvs.MaxBatch + 137
	pairs := make([]kvs.Pair, n)
	keys := make([]string, n)
	for i := range pairs {
		keys[i] = fmt.Sprintf("large-%d", i)
		pairs[i] = kvs.Pair{Key: keys[i], Val: []byte(fmt.Sprintf("v%d", i))}
	}
	if err := s.MSet(pairs); err != nil {
		t.Fatal(err)
	}
	vals, err := s.MGet(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != n {
		t.Fatalf("large mget returned %d of %d", len(vals), n)
	}
	for i, v := range vals {
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("large mget[%d] = %q", i, v)
		}
	}
}

// testBatchAtomicity checks each key in a batch is written atomically:
// concurrent MSets of the same keys with distinct sentinel values must never
// let a reader observe a torn value.
func testBatchAtomicity(t *testing.T, s kvs.Store) {
	keys := []string{"at-0", "at-1", "at-2", "at-3"}
	mkPairs := func(fill byte) []kvs.Pair {
		pairs := make([]kvs.Pair, len(keys))
		for i, k := range keys {
			val := bytes.Repeat([]byte{fill}, 512)
			pairs[i] = kvs.Pair{Key: k, Val: val}
		}
		return pairs
	}
	s.MSet(mkPairs('a'))
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(fill byte) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := s.MSet(mkPairs(fill)); err != nil {
					t.Error(err)
					return
				}
			}
		}(byte('a' + w))
	}
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			return
		default:
		}
		vals, err := s.MGet(keys)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if len(v) != 512 {
				t.Fatalf("torn read on %s: %d bytes", keys[i], len(v))
			}
			for _, b := range v {
				if b != v[0] {
					t.Fatalf("torn read on %s: mixed fills %q %q", keys[i], v[0], b)
				}
			}
		}
	}
}

// --- Tier-side key expiry (SETEX/TTL/PERSIST) conformance ---
//
// Expiry is judged on the store's own clock, never the test's; these tests
// therefore only assert orderings (visible now, gone eventually) with real
// sleeps and generous poll deadlines, so they hold identically for the
// in-process engine, the TCP client and the sharded ring.

// ttlShort is the lease length the expiry tests arm. Long enough that the
// pre-expiry asserts cannot race it on a loaded CI machine, short enough to
// keep the suite quick.
const ttlShort = 80 * time.Millisecond

// waitGone polls until key is invisible to Get, failing after a generous
// deadline. Polling (rather than one calibrated sleep) keeps the suite
// robust against scheduler hiccups and replica-clock skew in the ring.
func waitGone(t *testing.T, s kvs.Store, key string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := s.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if v == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("key %q never expired", key)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func testTTLExpireInvisible(t *testing.T, s kvs.Store) {
	if err := s.SetEx("gone", []byte("v"), ttlShort); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("gone"); string(v) != "v" {
		t.Fatalf("fresh SetEx invisible: %q", v)
	}
	if d, err := s.TTL("gone"); err != nil || d <= 0 || d > ttlShort+time.Second {
		t.Fatalf("armed ttl = %v %v, want in (0, ~%v]", d, err, ttlShort)
	}
	s.Set("stays", []byte("s"))
	waitGone(t, s, "gone")
	// Expired means invisible everywhere, not just to Get.
	vals, err := s.MGet([]string{"gone", "stays"})
	if err != nil || vals[0] != nil || string(vals[1]) != "s" {
		t.Fatalf("mget after expiry: %v %v", vals, err)
	}
	if n, _ := s.Len("gone"); n != 0 {
		t.Fatalf("len after expiry = %d", n)
	}
	if v, _ := s.GetRange("gone", 0, 1); v != nil {
		t.Fatalf("getrange after expiry: %q", v)
	}
	if n, _ := s.GetRangesInto("gone", []kvs.Range{{Off: 0, N: 1}}, make([]byte, 1)); n != 0 {
		t.Fatalf("getrangesinto after expiry read %d bytes", n)
	}
	if d, _ := s.TTL("gone"); d != kvs.TTLMissing {
		t.Fatalf("ttl after expiry = %v, want TTLMissing", d)
	}
	if removed, _ := s.Persist("gone"); removed {
		t.Fatal("persist resurrected an expired key")
	}
	infos, err := s.AllKeys()
	if err != nil {
		t.Fatal(err)
	}
	for _, ki := range infos {
		if ki.Kind == kvs.KindValue && ki.Key == "gone" {
			t.Fatal("expired key still enumerated by AllKeys")
		}
	}
}

func testTTLReSetExtends(t *testing.T, s kvs.Store) {
	if err := s.SetEx("ext", []byte("1"), ttlShort); err != nil {
		t.Fatal(err)
	}
	time.Sleep(ttlShort / 2)
	// Re-arming replaces the deadline: the key must survive well past the
	// first lease — exactly how a heartbeat keeps a liveness lease alive.
	if err := s.SetEx("ext", []byte("2"), 5*ttlShort); err != nil {
		t.Fatal(err)
	}
	time.Sleep(ttlShort)
	if v, _ := s.Get("ext"); string(v) != "2" {
		t.Fatalf("re-SetEx did not extend the lease: %q", v)
	}
	if d, _ := s.TTL("ext"); d <= 0 {
		t.Fatalf("extended ttl = %v, want positive", d)
	}
	// And the extension is a lease, not immortality.
	waitGone(t, s, "ext")
}

func testTTLPersistCancels(t *testing.T, s kvs.Store) {
	if err := s.SetEx("p", []byte("v"), ttlShort); err != nil {
		t.Fatal(err)
	}
	removed, err := s.Persist("p")
	if err != nil || !removed {
		t.Fatalf("persist on expiring key: %v %v, want removed", removed, err)
	}
	time.Sleep(ttlShort + ttlShort/2)
	if v, _ := s.Get("p"); string(v) != "v" {
		t.Fatalf("persisted key expired anyway: %q", v)
	}
	if d, _ := s.TTL("p"); d != kvs.TTLPersistent {
		t.Fatalf("ttl after persist = %v, want TTLPersistent", d)
	}
	// Nothing left to remove the second time.
	if removed, _ := s.Persist("p"); removed {
		t.Fatal("second persist reported an expiry removed")
	}
}

func testTTLQueriesAndGuards(t *testing.T, s kvs.Store) {
	if d, err := s.TTL("missing"); err != nil || d != kvs.TTLMissing {
		t.Fatalf("ttl of missing key = %v %v, want TTLMissing", d, err)
	}
	s.Set("plain", []byte("x"))
	if d, _ := s.TTL("plain"); d != kvs.TTLPersistent {
		t.Fatalf("ttl of plain key = %v, want TTLPersistent", d)
	}
	if removed, _ := s.Persist("plain"); removed {
		t.Fatal("persist on a persistent key reported an expiry removed")
	}
	// A plain Set clears a previous expiry (Redis SET semantics).
	if err := s.SetEx("cleared", []byte("old"), ttlShort); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("cleared", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if d, _ := s.TTL("cleared"); d != kvs.TTLPersistent {
		t.Fatalf("ttl after Set = %v, want TTLPersistent", d)
	}
	time.Sleep(ttlShort + ttlShort/2)
	if v, _ := s.Get("cleared"); string(v) != "new" {
		t.Fatalf("Set-cleared key expired anyway: %q", v)
	}
	// Non-positive TTLs are rejected outright, batched or not.
	if err := s.SetEx("bad", []byte("x"), 0); err == nil {
		t.Fatal("zero ttl accepted")
	}
	if err := s.SetEx("bad", []byte("x"), -time.Second); err == nil {
		t.Fatal("negative ttl accepted")
	}
	if err := s.MSetEx([]kvs.Pair{{Key: "bad", Val: []byte("x")}}, -time.Second); err == nil {
		t.Fatal("negative batch ttl accepted")
	}
	if v, _ := s.Get("bad"); v != nil {
		t.Fatalf("rejected SetEx landed a value: %q", v)
	}
}

func testBatchMSetEx(t *testing.T, s kvs.Store) {
	if err := s.MSetEx(nil, ttlShort); err != nil {
		t.Fatalf("empty msetex: %v", err)
	}
	pairs := []kvs.Pair{
		{Key: "ex-0", Val: []byte("a")},
		{Key: "ex-1", Val: []byte{0, 255, '\n'}},
		{Key: "ex-dup", Val: []byte("first")},
		{Key: "ex-dup", Val: []byte("last")},
	}
	s.Set("ex-keep", []byte("k"))
	if err := s.MSetEx(pairs, ttlShort); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get("ex-dup"); string(v) != "last" {
		t.Fatalf("duplicated key must keep the last value, got %q", v)
	}
	for _, k := range []string{"ex-0", "ex-1", "ex-dup"} {
		if d, _ := s.TTL(k); d <= 0 {
			t.Fatalf("batch key %s ttl = %v, want positive", k, d)
		}
	}
	for _, k := range []string{"ex-0", "ex-1", "ex-dup"} {
		waitGone(t, s, k)
	}
	// The untouched persistent neighbour survives the batch's expiry.
	if v, _ := s.Get("ex-keep"); string(v) != "k" {
		t.Fatalf("persistent key lost: %q", v)
	}
}

func testGetSetDelete(t *testing.T, s kvs.Store) {
	v, err := s.Get("missing")
	if err != nil || v != nil {
		t.Fatalf("missing key: %v %v", v, err)
	}
	if err := s.Set("k", []byte("value")); err != nil {
		t.Fatal(err)
	}
	v, err = s.Get("k")
	if err != nil || string(v) != "value" {
		t.Fatalf("get: %q %v", v, err)
	}
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	v, _ = s.Get("k")
	if v != nil {
		t.Fatal("delete did not remove key")
	}
}

func testBinaryAndOddKeys(t *testing.T, s kvs.Store) {
	key := "state/with spaces/and\"quotes\""
	val := []byte{0, 1, 2, 255, '\n', '"', 0}
	if err := s.Set(key, val); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("binary round trip: %v %v", got, err)
	}
}

func testRanges(t *testing.T, s kvs.Store) {
	if err := s.Set("k", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	v, err := s.GetRange("k", 2, 3)
	if err != nil || string(v) != "234" {
		t.Fatalf("getrange: %q %v", v, err)
	}
	// Truncated read past the end.
	v, _ = s.GetRange("k", 8, 10)
	if string(v) != "89" {
		t.Fatalf("truncated range: %q", v)
	}
	// Entirely past the end.
	v, _ = s.GetRange("k", 50, 5)
	if v != nil {
		t.Fatalf("past-end range: %q", v)
	}
	// SetRange with zero-extension.
	if err := s.SetRange("k", 12, []byte("AB")); err != nil {
		t.Fatal(err)
	}
	v, _ = s.Get("k")
	if len(v) != 14 || v[10] != 0 || string(v[12:]) != "AB" {
		t.Fatalf("setrange extend: %q", v)
	}
	// In-place overwrite.
	if err := s.SetRange("k", 0, []byte("XY")); err != nil {
		t.Fatal(err)
	}
	v, _ = s.Get("k")
	if string(v[:2]) != "XY" {
		t.Fatalf("setrange overwrite: %q", v)
	}
}

func testAppendAndLen(t *testing.T, s kvs.Store) {
	n, err := s.Append("log", []byte("aa"))
	if err != nil || n != 2 {
		t.Fatalf("append: %d %v", n, err)
	}
	n, err = s.Append("log", []byte("bbb"))
	if err != nil || n != 5 {
		t.Fatalf("append 2: %d %v", n, err)
	}
	l, err := s.Len("log")
	if err != nil || l != 5 {
		t.Fatalf("len: %d %v", l, err)
	}
	l, _ = s.Len("missing")
	if l != 0 {
		t.Fatalf("missing len = %d", l)
	}
}

func testSets(t *testing.T, s kvs.Store) {
	added, err := s.SAdd("warm", "host-b")
	if err != nil || !added {
		t.Fatalf("sadd: %v %v", added, err)
	}
	added, _ = s.SAdd("warm", "host-b")
	if added {
		t.Fatal("duplicate sadd reported new")
	}
	s.SAdd("warm", "host-a")
	members, err := s.SMembers("warm")
	if err != nil || len(members) != 2 || members[0] != "host-a" || members[1] != "host-b" {
		t.Fatalf("smembers: %v %v", members, err)
	}
	removed, _ := s.SRem("warm", "host-a")
	if !removed {
		t.Fatal("srem existing returned false")
	}
	removed, _ = s.SRem("warm", "host-a")
	if removed {
		t.Fatal("srem missing returned true")
	}
}

func testIncr(t *testing.T, s kvs.Store) {
	v, err := s.Incr("calls", 1)
	if err != nil || v != 1 {
		t.Fatalf("incr: %d %v", v, err)
	}
	v, _ = s.Incr("calls", 41)
	if v != 42 {
		t.Fatalf("incr 2: %d", v)
	}
	v, _ = s.Incr("calls", -2)
	if v != 40 {
		t.Fatalf("decr: %d", v)
	}
}

func testLocksExclusion(t *testing.T, s kvs.Store) {
	tok, err := s.Lock("key", true, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	acquired := make(chan uint64)
	go func() {
		tok2, err := s.Lock("key", true, time.Second)
		if err != nil {
			t.Error(err)
		}
		acquired <- tok2
	}()
	select {
	case <-acquired:
		t.Fatal("second writer acquired while first held")
	case <-time.After(50 * time.Millisecond):
	}
	if err := s.Unlock("key", tok); err != nil {
		t.Fatal(err)
	}
	select {
	case tok2 := <-acquired:
		s.Unlock("key", tok2)
	case <-time.After(2 * time.Second):
		t.Fatal("second writer never acquired")
	}
}

func testReadersShareWritersExclude(t *testing.T, s kvs.Store) {
	r1, err := s.Lock("key", false, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Lock("key", false, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wAcquired := make(chan uint64)
	go func() {
		w, _ := s.Lock("key", true, time.Second)
		wAcquired <- w
	}()
	select {
	case <-wAcquired:
		t.Fatal("writer acquired under readers")
	case <-time.After(50 * time.Millisecond):
	}
	s.Unlock("key", r1)
	s.Unlock("key", r2)
	select {
	case w := <-wAcquired:
		s.Unlock("key", w)
	case <-time.After(2 * time.Second):
		t.Fatal("writer never acquired after readers released")
	}
}

func testConcurrentIncrement(t *testing.T, s kvs.Store) {
	var wg sync.WaitGroup
	const workers, per = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := s.Incr("n", 1); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	v, _ := s.Incr("n", 0)
	if v != workers*per {
		t.Fatalf("lost updates: %d != %d", v, workers*per)
	}
}

func testLockRMW(t *testing.T, s kvs.Store) {
	// The §4.2 consistent-write recipe: lock, read, modify, write, unlock.
	s.Set("v", []byte("0"))
	var wg sync.WaitGroup
	const workers, per = 4, 25
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tok, err := s.Lock("v", true, time.Second)
				if err != nil {
					t.Error(err)
					return
				}
				cur, _ := s.Get("v")
				var n int
				fmt.Sscanf(string(cur), "%d", &n)
				s.Set("v", []byte(fmt.Sprintf("%d", n+1)))
				s.Unlock("v", tok)
			}
		}()
	}
	wg.Wait()
	final, _ := s.Get("v")
	if string(final) != fmt.Sprintf("%d", workers*per) {
		t.Fatalf("read-modify-write lost updates: %s", final)
	}
}

// CountingStore wraps a Store and counts every operation that reaches the
// global tier. Hot-path tests use it to assert that steady-state warm
// invocations perform zero global-tier operations in the scheduler.
type CountingStore struct {
	kvs.Store
	ops atomic.Int64
}

// NewCountingStore wraps inner with an operation counter.
func NewCountingStore(inner kvs.Store) *CountingStore {
	return &CountingStore{Store: inner}
}

// Ops reports operations counted so far.
func (c *CountingStore) Ops() int64 { return c.ops.Load() }

// ResetOps zeroes the counter.
func (c *CountingStore) ResetOps() { c.ops.Store(0) }

// Get implements kvs.Store.
func (c *CountingStore) Get(key string) ([]byte, error) { c.ops.Add(1); return c.Store.Get(key) }

// Set implements kvs.Store.
func (c *CountingStore) Set(key string, val []byte) error {
	c.ops.Add(1)
	return c.Store.Set(key, val)
}

// SetEx implements kvs.Store.
func (c *CountingStore) SetEx(key string, val []byte, ttl time.Duration) error {
	c.ops.Add(1)
	return c.Store.SetEx(key, val, ttl)
}

// TTL implements kvs.Store.
func (c *CountingStore) TTL(key string) (time.Duration, error) {
	c.ops.Add(1)
	return c.Store.TTL(key)
}

// Persist implements kvs.Store.
func (c *CountingStore) Persist(key string) (bool, error) {
	c.ops.Add(1)
	return c.Store.Persist(key)
}

// GetRange implements kvs.Store.
func (c *CountingStore) GetRange(key string, off, n int) ([]byte, error) {
	c.ops.Add(1)
	return c.Store.GetRange(key, off, n)
}

// SetRange implements kvs.Store.
func (c *CountingStore) SetRange(key string, off int, val []byte) error {
	c.ops.Add(1)
	return c.Store.SetRange(key, off, val)
}

// Append implements kvs.Store.
func (c *CountingStore) Append(key string, val []byte) (int, error) {
	c.ops.Add(1)
	return c.Store.Append(key, val)
}

// Len implements kvs.Store.
func (c *CountingStore) Len(key string) (int, error) { c.ops.Add(1); return c.Store.Len(key) }

// Delete implements kvs.Store.
func (c *CountingStore) Delete(key string) error { c.ops.Add(1); return c.Store.Delete(key) }

// SAdd implements kvs.Store.
func (c *CountingStore) SAdd(key, member string) (bool, error) {
	c.ops.Add(1)
	return c.Store.SAdd(key, member)
}

// SRem implements kvs.Store.
func (c *CountingStore) SRem(key, member string) (bool, error) {
	c.ops.Add(1)
	return c.Store.SRem(key, member)
}

// SMembers implements kvs.Store.
func (c *CountingStore) SMembers(key string) ([]string, error) {
	c.ops.Add(1)
	return c.Store.SMembers(key)
}

// Incr implements kvs.Store.
func (c *CountingStore) Incr(key string, delta int64) (int64, error) {
	c.ops.Add(1)
	return c.Store.Incr(key, delta)
}

// Lock implements kvs.Store.
func (c *CountingStore) Lock(key string, write bool, ttl time.Duration) (uint64, error) {
	c.ops.Add(1)
	return c.Store.Lock(key, write, ttl)
}

// Unlock implements kvs.Store.
func (c *CountingStore) Unlock(key string, token uint64) error {
	c.ops.Add(1)
	return c.Store.Unlock(key, token)
}

// MGet implements kvs.Store. A batch counts as one operation — the round
// trip is what the counter models.
func (c *CountingStore) MGet(keys []string) ([][]byte, error) {
	c.ops.Add(1)
	return c.Store.MGet(keys)
}

// MSet implements kvs.Store.
func (c *CountingStore) MSet(pairs []kvs.Pair) error {
	c.ops.Add(1)
	return c.Store.MSet(pairs)
}

// MSetEx implements kvs.Store.
func (c *CountingStore) MSetEx(pairs []kvs.Pair, ttl time.Duration) error {
	c.ops.Add(1)
	return c.Store.MSetEx(pairs, ttl)
}

// GetRangesInto implements kvs.Store.
func (c *CountingStore) GetRangesInto(key string, ranges []kvs.Range, dst []byte) (int, error) {
	c.ops.Add(1)
	return c.Store.GetRangesInto(key, ranges, dst)
}
