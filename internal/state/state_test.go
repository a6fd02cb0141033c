package state

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/wamem"
)

func newTier() (*LocalTier, *kvs.Engine) {
	e := kvs.NewEngine()
	return NewLocalTier(e), e
}

func TestValueSizeDiscovery(t *testing.T) {
	lt, e := newTier()
	e.Set("weights", make([]byte, 1000))
	v, err := lt.Value("weights", -1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != 1000 {
		t.Fatalf("size = %d", v.Size())
	}
	// Unknown key without size: error.
	if _, err := lt.Value("ghost", -1); !errors.Is(err, ErrUnknownSize) {
		t.Fatalf("ghost: %v", err)
	}
	// Size conflict on re-lookup: error.
	if _, err := lt.Value("weights", 2000); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("mismatch: %v", err)
	}
	// Same size: same handle.
	v2, err := lt.Value("weights", 1000)
	if err != nil || v2 != v {
		t.Fatal("replica not shared")
	}
}

func TestPullPushRoundTrip(t *testing.T) {
	lt, e := newTier()
	authoritative := []byte("the global truth here")
	e.Set("k", authoritative)
	v, err := lt.Value("k", -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.PullN(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.Bytes(), authoritative) {
		t.Fatalf("pulled %q", v.Bytes())
	}
	// Mutate locally, push, verify global.
	copy(v.Bytes(), []byte("THE"))
	if err := v.Push(); err != nil {
		t.Fatal(err)
	}
	g, _ := e.Get("k")
	if string(g[:3]) != "THE" {
		t.Fatalf("global after push: %q", g)
	}
}

func TestLocalWritesInvisibleUntilPush(t *testing.T) {
	lt, e := newTier()
	e.Set("k", []byte("aaaa"))
	v, _ := lt.Value("k", -1)
	v.PullN()
	v.Set([]byte("bbbb"))
	g, _ := e.Get("k")
	if string(g) != "aaaa" {
		t.Fatal("local set leaked to global tier before push")
	}
	v.Push()
	g, _ = e.Get("k")
	if string(g) != "bbbb" {
		t.Fatal("push did not update global tier")
	}
}

func TestSharedSegmentBetweenFaaslets(t *testing.T) {
	// Two Faaslets on the same host map the same replica segment and see
	// each other's writes with no pull/push — §3.3's sharing property
	// threaded through the state tier.
	lt, e := newTier()
	e.Set("shared", make([]byte, 64))
	v, _ := lt.Value("shared", -1)
	v.PullN()

	memA := wamem.MustNew(1, 0)
	memB := wamem.MustNew(2, 0)
	baseA, err := memA.MapShared(v.Segment())
	if err != nil {
		t.Fatal(err)
	}
	baseB, _ := memB.MapShared(v.Segment())

	if err := memA.WriteU64(baseA+8, 12345); err != nil {
		t.Fatal(err)
	}
	got, err := memB.ReadU64(baseB + 8)
	if err != nil || got != 12345 {
		t.Fatalf("cross-faaslet read: %d %v", got, err)
	}
	// And the state API sees it too.
	if binary.LittleEndian.Uint64(v.Bytes()[8:]) != 12345 {
		t.Fatal("state API does not see mapped write")
	}
}

func TestChunkedPullTransfersOnlyNeededBytes(t *testing.T) {
	lt, e := newTier()
	big := make([]byte, 100*ChunkSize)
	for i := range big {
		big[i] = byte(i / ChunkSize)
	}
	e.Set("matrix", big)
	v, _ := lt.Value("matrix", -1)

	// Pull a slice in the middle.
	got, err := readAt(v, 10*ChunkSize+100, 50)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 10 {
		t.Fatalf("chunk content = %d", got[0])
	}
	pulled := lt.Pulled.Value()
	if pulled > 2*ChunkSize {
		t.Fatalf("pulled %d bytes for a 50-byte read", pulled)
	}
	// Re-reading the same range transfers nothing more.
	if _, err := readAt(v, 10*ChunkSize+100, 50); err != nil {
		t.Fatal(err)
	}
	if lt.Pulled.Value() != pulled {
		t.Fatal("re-read re-pulled")
	}
}

func TestPushChunk(t *testing.T) {
	lt, e := newTier()
	e.Set("v", make([]byte, 3*ChunkSize))
	v, _ := lt.Value("v", -1)
	v.PullN()
	copy(v.Bytes()[ChunkSize:], []byte("chunk1"))
	if err := v.PushChunk(ChunkSize, 6); err != nil {
		t.Fatal(err)
	}
	g, _ := e.Get("v")
	if string(g[ChunkSize:ChunkSize+6]) != "chunk1" {
		t.Fatal("chunk push missed")
	}
	// Other chunks unchanged.
	if g[0] != 0 {
		t.Fatal("push chunk touched other bytes")
	}
	if lt.Pushed.Value() != 6 {
		t.Fatalf("pushed bytes = %d", lt.Pushed.Value())
	}
}

func TestSetAtAndGetRangeChecks(t *testing.T) {
	lt, e := newTier()
	e.Set("v", make([]byte, 100))
	v, _ := lt.Value("v", -1)
	if err := v.SetAt(90, []byte("0123456789A")); err == nil {
		t.Fatal("overflow SetAt accepted")
	}
	if err := v.SetAt(-1, []byte("x")); err == nil {
		t.Fatal("negative offset accepted")
	}
	if err := v.Set(make([]byte, 99)); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("short set: %v", err)
	}
}

func TestNewValueWithExplicitSize(t *testing.T) {
	lt, e := newTier()
	v, err := lt.Value("fresh", 256)
	if err != nil {
		t.Fatal(err)
	}
	v.Set(bytes.Repeat([]byte{7}, 256))
	if err := v.Push(); err != nil {
		t.Fatal(err)
	}
	g, _ := e.Get("fresh")
	if len(g) != 256 || g[0] != 7 {
		t.Fatalf("pushed fresh value: %d bytes", len(g))
	}
}

func TestAppendGoesStraightToGlobal(t *testing.T) {
	lt, e := newTier()
	lt.Append("results", []byte("a"))
	lt.Append("results", []byte("b"))
	g, _ := e.Get("results")
	if string(g) != "ab" {
		t.Fatalf("appended: %q", g)
	}
	all, err := lt.ReadAll("results")
	if err != nil || string(all) != "ab" {
		t.Fatalf("readall: %q %v", all, err)
	}
}

func TestLocalLockMutualExclusion(t *testing.T) {
	lt, e := newTier()
	e.Set("v", make([]byte, 8))
	v, _ := lt.Value("v", -1)
	v.PullN()
	// Many goroutines increment a counter in the value under the local
	// write lock: no lost updates.
	var wg sync.WaitGroup
	const workers, per = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				v.LockWrite()
				n := binary.LittleEndian.Uint64(v.Bytes())
				binary.LittleEndian.PutUint64(v.Bytes(), n+1)
				v.UnlockWrite()
			}
		}()
	}
	wg.Wait()
	if n := binary.LittleEndian.Uint64(v.Bytes()); n != workers*per {
		t.Fatalf("lost updates: %d", n)
	}
}

func TestConsistentUpdateAcrossTiers(t *testing.T) {
	// Two local tiers (two hosts) updating one global counter under the
	// global write lock (lock → pull → mutate → push → unlock) must not
	// lose increments — §4.2's global consistency recipe.
	e := kvs.NewEngine()
	host1 := NewLocalTier(e)
	host2 := NewLocalTier(e)
	e.Set("counter", make([]byte, 8))

	var wg sync.WaitGroup
	const per = 50
	for _, lt := range []*LocalTier{host1, host2} {
		wg.Add(1)
		go func(lt *LocalTier) {
			defer wg.Done()
			v, err := lt.Value("counter", -1)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < per; i++ {
				if err := increment(lt, v); err != nil {
					t.Error(err)
					return
				}
			}
		}(lt)
	}
	wg.Wait()
	g, _ := e.Get("counter")
	if n := binary.LittleEndian.Uint64(g); n != 2*per {
		t.Fatalf("cross-host lost updates: %d != %d", n, 2*per)
	}
}

// increment adds one to the counter in v's first word under the global
// write lock.
func increment(lt *LocalTier, v *Value) error {
	tok, err := lt.LockGlobal(v.Key(), true)
	if err != nil {
		return err
	}
	defer lt.UnlockGlobal(v.Key(), tok)
	if _, err := v.PullN(); err != nil {
		return err
	}
	v.LockWrite()
	binary.LittleEndian.PutUint64(v.Bytes(), binary.LittleEndian.Uint64(v.Bytes())+1)
	v.UnlockWrite()
	return v.Push()
}

// readAt copies [off, off+n) out of v the way the host interface reads
// state: pull the missing covering chunks, then read under the local lock.
func readAt(v *Value, off, n int) ([]byte, error) {
	if _, err := v.EnsurePulledN(off, n); err != nil {
		return nil, err
	}
	v.LockRead()
	defer v.UnlockRead()
	return append([]byte(nil), v.Bytes()[off:off+n]...), nil
}

func TestEvictAndKeys(t *testing.T) {
	lt, e := newTier()
	e.Set("a", []byte("x"))
	lt.Value("a", -1)
	if len(lt.Keys()) != 1 {
		t.Fatal("key not registered")
	}
	if lt.LocalBytes() == 0 {
		t.Fatal("no local bytes accounted")
	}
	lt.Evict("a")
	if len(lt.Keys()) != 0 {
		t.Fatal("evict failed")
	}
}

func TestConcurrentChunkPulls(t *testing.T) {
	lt, e := newTier()
	data := make([]byte, 50*ChunkSize)
	for i := range data {
		data[i] = byte(i % 251)
	}
	e.Set("m", data)
	v, _ := lt.Value("m", -1)
	var wg sync.WaitGroup
	for w := 0; w < 10; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 0; c < 50; c++ {
				off := ((c*7 + w) % 50) * ChunkSize
				got, err := readAt(v, off, ChunkSize)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, data[off:off+ChunkSize]) {
					t.Errorf("chunk at %d corrupt", off)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Every chunk pulled at most once despite 10 racing readers.
	if lt.Pulled.Value() > int64(len(data)) {
		t.Fatalf("pulled %d bytes for a %d-byte value", lt.Pulled.Value(), len(data))
	}
}

func BenchmarkLocalGet(b *testing.B) {
	lt, e := newTier()
	e.Set("v", make([]byte, 64*1024))
	v, _ := lt.Value("v", -1)
	v.PullN()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := readAt(v, 1024, 4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSharedBytesAccess(b *testing.B) {
	// Direct pointer-style access: the zero-copy path.
	lt, e := newTier()
	e.Set("v", make([]byte, 64*1024))
	v, _ := lt.Value("v", -1)
	v.PullN()
	buf := v.Bytes()
	b.ResetTimer()
	var sink byte
	for i := 0; i < b.N; i++ {
		sink ^= buf[i%len(buf)]
	}
	_ = sink
}

// trackingStore wraps a store and records every ranged read, so tests can
// assert how many global-tier exchanges a pull issued and which spans moved.
type trackingStore struct {
	kvs.Store
	mu         sync.Mutex
	batchCalls int // GetRangesInto calls (batched exchanges)
	spans      []kvs.Range
}

func (ts *trackingStore) GetRangesInto(key string, ranges []kvs.Range, dst []byte) (int, error) {
	ts.mu.Lock()
	ts.batchCalls++
	ts.spans = append(ts.spans, ranges...)
	ts.mu.Unlock()
	return ts.Store.GetRangesInto(key, ranges, dst)
}

func TestPullChunksCoalescesMissingSpans(t *testing.T) {
	e := kvs.NewEngine()
	ts := &trackingStore{Store: e}
	lt := NewLocalTier(ts)
	// 8 chunks of authoritative data.
	data := make([]byte, 8*ChunkSize)
	for i := range data {
		data[i] = byte(i / ChunkSize)
	}
	e.Set("m", data)
	v, err := lt.Value("m", -1)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-pull chunks 2 and 5, leaving holes around them.
	if _, err := v.PullChunksN([]kvs.Range{{Off: 2 * ChunkSize, N: ChunkSize}}); err != nil {
		t.Fatal(err)
	}
	if _, err := v.PullChunksN([]kvs.Range{{Off: 5 * ChunkSize, N: ChunkSize}}); err != nil {
		t.Fatal(err)
	}
	ts.mu.Lock()
	ts.spans = nil
	ts.batchCalls = 0
	ts.mu.Unlock()
	// Pull chunks [0,7): chunks 2 and 5 are resident, so exactly three
	// missing runs ([0,2), [3,5), [6,7)) must travel in ONE batched
	// exchange.
	if _, err := v.PullChunksN([]kvs.Range{{Off: 0, N: 7 * ChunkSize}}); err != nil {
		t.Fatal(err)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.batchCalls != 1 {
		t.Fatalf("batched exchanges = %d, want 1", ts.batchCalls)
	}
	want := []kvs.Range{
		{Off: 0, N: 2 * ChunkSize},
		{Off: 3 * ChunkSize, N: 2 * ChunkSize},
		{Off: 6 * ChunkSize, N: ChunkSize},
	}
	if len(ts.spans) != len(want) {
		t.Fatalf("spans = %v, want %v", ts.spans, want)
	}
	for i := range want {
		if ts.spans[i] != want[i] {
			t.Fatalf("span[%d] = %v, want %v", i, ts.spans[i], want[i])
		}
	}
	if !bytes.Equal(v.Bytes()[:7*ChunkSize], data[:7*ChunkSize]) {
		t.Fatal("pulled bytes corrupt")
	}
	// Everything requested is now resident: no further transfer.
	if _, err := v.PullChunksN([]kvs.Range{{Off: 0, N: 7 * ChunkSize}}); err != nil {
		t.Fatal(err)
	}
	if ts.batchCalls != 1 {
		t.Fatalf("re-pull of resident chunks transferred again (%d calls)", ts.batchCalls)
	}
}

func TestPullChunksOverlappingRangesAndBounds(t *testing.T) {
	lt, e := newTier()
	data := make([]byte, 3*ChunkSize+100)
	for i := range data {
		data[i] = byte(i % 251)
	}
	e.Set("k", data)
	v, err := lt.Value("k", -1)
	if err != nil {
		t.Fatal(err)
	}
	// Overlapping and duplicate ranges must not double-pull or corrupt.
	_, err = v.PullChunksN([]kvs.Range{
		{Off: 0, N: ChunkSize + 10},
		{Off: ChunkSize, N: ChunkSize},
		{Off: 0, N: ChunkSize},
		{Off: 3 * ChunkSize, N: 100}, // final partial chunk
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.Bytes()[:2*ChunkSize], data[:2*ChunkSize]) {
		t.Fatal("leading chunks corrupt")
	}
	if !bytes.Equal(v.Bytes()[3*ChunkSize:], data[3*ChunkSize:]) {
		t.Fatal("final partial chunk corrupt")
	}
	if lt.Pulled.Value() != int64(2*ChunkSize+100) {
		t.Fatalf("pulled %d bytes, want %d", lt.Pulled.Value(), 2*ChunkSize+100)
	}
	// Out-of-bounds range errors before any transfer.
	if _, err := v.PullChunksN([]kvs.Range{{Off: 0, N: v.Size() + 1}}); err == nil {
		t.Fatal("out-of-bounds prefetch must error")
	}
	// So does a lazy pull, even once the whole value is resident (a guest's
	// get_state_offset past the end is refused, not handed a pointer).
	if _, err := v.PullN(); err != nil {
		t.Fatal(err)
	}
	for _, r := range []kvs.Range{{Off: v.Size(), N: 1}, {Off: -1, N: 1}, {Off: 0, N: -1}} {
		if _, err := v.EnsurePulledN(r.Off, r.N); err == nil {
			t.Fatalf("EnsurePulledN(%d, %d) on a resident %d-byte value did not error", r.Off, r.N, v.Size())
		}
	}
}

func TestMarkPulledCounterTracksCompleteness(t *testing.T) {
	lt, e := newTier()
	e.Set("k", make([]byte, 10*ChunkSize))
	v, err := lt.Value("k", -1)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 10; c++ {
		if v.all {
			t.Fatalf("all set after %d of 10 chunks", c)
		}
		if _, err := v.PullChunksN([]kvs.Range{{Off: c * ChunkSize, N: ChunkSize}}); err != nil {
			t.Fatal(err)
		}
	}
	v.mu.Lock()
	pulled, all := v.pulled, v.all
	v.mu.Unlock()
	if pulled != 10 || !all {
		t.Fatalf("pulled=%d all=%v after full chunk walk", pulled, all)
	}
}

func TestConcurrentValueLookupsShareOneReplica(t *testing.T) {
	// The registry's hot path is a shared read lock: concurrent lookups —
	// including a racing first-use creation — must all land on the same
	// *Value and never deadlock or duplicate the segment.
	g := kvs.NewEngine()
	g.Set("k", make([]byte, 4*ChunkSize))
	lt := NewLocalTier(g)
	const workers = 16
	results := make([]*Value, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				v, err := lt.Value("k", -1)
				if err != nil {
					t.Error(err)
					return
				}
				results[w] = v
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if results[w] != results[0] {
			t.Fatalf("worker %d got a different replica", w)
		}
	}
	if n := len(lt.Keys()); n != 1 {
		t.Fatalf("registry holds %d values, want 1", n)
	}
}

func TestResidentBytes(t *testing.T) {
	lt, e := newTier()
	size := 3*ChunkSize + 100 // 4 chunks, short tail
	e.Set("k", make([]byte, size))
	if lt.ResidentBytes("k") != 0 {
		t.Fatal("no replica yet, residency must be 0")
	}
	v, err := lt.Value("k", -1)
	if err != nil {
		t.Fatal(err)
	}
	if got := v.ResidentBytes(); got != 0 {
		t.Fatalf("unpulled residency = %d", got)
	}
	if _, err := v.EnsurePulledN(0, ChunkSize); err != nil {
		t.Fatal(err)
	}
	if got := lt.ResidentBytes("k"); got != ChunkSize {
		t.Fatalf("one chunk pulled: residency = %d, want %d", got, ChunkSize)
	}
	// Pull everything: residency is the logical size, not chunks×ChunkSize.
	if _, err := v.EnsurePulledN(0, size); err != nil {
		t.Fatal(err)
	}
	if got := lt.ResidentBytes("k"); got != int64(size) {
		t.Fatalf("full residency = %d, want %d", got, size)
	}
}

// TestPullLandsInSegment pins the pull path's allocation: a full pull of a
// 512 KiB value reads straight into the replica's segment, so in process it
// allocates nothing, and over a loopback shard, client and server together
// allocate well under 1 KiB per pull rather than a copy of the value.
func TestPullLandsInSegment(t *testing.T) {
	const size = 512 << 10
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	e := kvs.NewEngine()
	e.Set("v", data)
	v, err := NewLocalTier(e).Value("v", -1)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() { v.PullN() }); allocs != 0 {
		t.Errorf("in-process pull: %.1f allocations, want 0", allocs)
	}
	if !bytes.Equal(v.Bytes(), data) {
		t.Fatal("pulled bytes differ from the global value")
	}

	srv, err := kvs.NewServer(e, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c := kvs.NewClient(srv.Addr())
	defer c.Close()
	rv, err := NewLocalTier(c).Value("v", size)
	if err != nil {
		t.Fatal(err)
	}
	rv.PullN() // dial and grow the server's reply buffer
	const pulls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < pulls; i++ {
		if n, err := rv.PullN(); err != nil || n != size {
			t.Fatalf("pull: %d bytes, %v", n, err)
		}
	}
	runtime.ReadMemStats(&after)
	if perPull := (after.TotalAlloc - before.TotalAlloc) / pulls; perPull > 1024 {
		t.Errorf("loopback pull: %d bytes allocated per %d-byte pull, want <= 1024", perPull, size)
	}
	if !bytes.Equal(rv.Bytes(), data) {
		t.Fatal("pulled bytes differ from the global value")
	}
}

// TestFailedPullForgetsReplica: a full pull writes into the segment as bytes
// arrive, so one that fails part-way must not leave the replica marked
// resident; the next read pulls again and sees the global value.
func TestFailedPullForgetsReplica(t *testing.T) {
	e := kvs.NewEngine()
	data := bytes.Repeat([]byte{1, 2, 3, 4}, 2*ChunkSize)
	e.Set("v", data)
	ts := &tornStore{Store: e}
	v, err := NewLocalTier(ts).Value("v", -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.PullN(); err != nil {
		t.Fatal(err)
	}
	ts.torn = true
	if _, err := v.PullN(); !errors.Is(err, kvs.ErrUnavailable) {
		t.Fatalf("torn pull: %v", err)
	}
	if got := v.ResidentBytes(); got != 0 {
		t.Fatalf("after a failed pull %d bytes still count as resident", got)
	}
	ts.torn = false
	got, err := readAt(v, 0, v.Size())
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after a failed pull: %v, equal %v", err, bytes.Equal(got, data))
	}
}

// tornStore serves ranged reads from the wrapped store until torn is set;
// then it fails each one after scribbling over the destination, as a
// connection that dies mid-payload does.
type tornStore struct {
	kvs.Store
	torn bool
}

func (s *tornStore) GetRangesInto(key string, ranges []kvs.Range, dst []byte) (int, error) {
	if !s.torn {
		return s.Store.GetRangesInto(key, ranges, dst)
	}
	for _, r := range ranges {
		copy(dst[r.Off:r.Off+r.N], bytes.Repeat([]byte{0xEE}, r.N))
	}
	return 0, kvs.ErrUnavailable
}
