package state

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/obsv"
	"faasm.dev/faasm/internal/wamem"
)

// ChunkSize is the pull/push granularity for partial state access.
const ChunkSize = 4096

// ErrUnknownSize is returned when a value's size cannot be determined (not
// present globally and no explicit size given).
var ErrUnknownSize = errors.New("state: value size unknown")

// ErrSizeMismatch is returned when an operation disagrees with the value's
// established size.
var ErrSizeMismatch = errors.New("state: size mismatch")

// DefaultLockTTL bounds global lock leases.
const DefaultLockTTL = 30 * time.Second

// LocalTier is one host's local state tier: the registry of state-value
// replicas living in shared memory. The registry lock is read/write: the
// hot path (Value lookups from concurrent Faaslets) shares a read lock and
// never serialises; only first-use creation takes the write lock. Per-Value
// locking semantics are unchanged.
type LocalTier struct {
	mu     sync.RWMutex
	values map[string]*Value
	global kvs.Store

	// Pulled/Pushed count global-tier transfer bytes for the experiments.
	Pulled obsv.Counter
	Pushed obsv.Counter
}

// NewLocalTier creates a local tier over the given global store.
func NewLocalTier(global kvs.Store) *LocalTier {
	return &LocalTier{values: map[string]*Value{}, global: global}
}

// Global exposes the underlying global-tier store.
func (lt *LocalTier) Global() kvs.Store { return lt.global }

// Instrument registers the tier's transfer counters and replica footprint
// with reg, labelled by host — bridged at scrape time from the existing
// atomics, nothing added to the pull/push paths.
func (lt *LocalTier) Instrument(reg *obsv.Registry, host string) {
	l := map[string]string{"host": host}
	reg.CounterFunc("faasm_state_pulled_bytes_total", "bytes pulled from the global tier", l, lt.Pulled.Value)
	reg.CounterFunc("faasm_state_pushed_bytes_total", "bytes pushed to the global tier", l, lt.Pushed.Value)
	reg.GaugeFunc("faasm_state_replica_bytes", "local-tier replica memory", l, lt.LocalBytes)
	reg.GaugeFunc("faasm_state_replicas", "locally replicated keys", l, func() int64 {
		lt.mu.RLock()
		defer lt.mu.RUnlock()
		return int64(len(lt.values))
	})
}

// Value returns the host-wide replica handle for key, creating its metadata
// on first use. size < 0 means "discover from the global tier"; size ≥ 0
// fixes the value size (creating the key locally if it is new). All
// co-located Faaslets share the returned *Value — that is the point.
func (lt *LocalTier) Value(key string, size int) (*Value, error) {
	// Fast path: the replica already exists — a shared read lock suffices.
	lt.mu.RLock()
	v, ok := lt.values[key]
	lt.mu.RUnlock()
	if ok {
		if size >= 0 && size != v.size {
			return nil, fmt.Errorf("%w: %s is %d bytes, requested %d", ErrSizeMismatch, key, v.size, size)
		}
		return v, nil
	}
	if size < 0 {
		// Size discovery hits the global tier; keep it outside the lock.
		n, err := lt.global.Len(key)
		if err != nil {
			return nil, fmt.Errorf("state: size of %s: %w", key, err)
		}
		if n == 0 {
			return nil, fmt.Errorf("%w: %s", ErrUnknownSize, key)
		}
		size = n
	}
	lt.mu.Lock()
	defer lt.mu.Unlock()
	if v, ok := lt.values[key]; ok { // raced with another creator
		if size >= 0 && size != v.size {
			return nil, fmt.Errorf("%w: %s is %d bytes, requested %d", ErrSizeMismatch, key, v.size, size)
		}
		return v, nil
	}
	v = &Value{
		key:    key,
		size:   size,
		whole:  []kvs.Range{{Off: 0, N: size}},
		seg:    wamem.NewSegment(size),
		tier:   lt,
		chunks: make([]bool, (size+ChunkSize-1)/ChunkSize),
	}
	lt.values[key] = v
	return v, nil
}

// Lookup returns the replica for key if one exists on this host.
func (lt *LocalTier) Lookup(key string) (*Value, bool) {
	lt.mu.RLock()
	defer lt.mu.RUnlock()
	v, ok := lt.values[key]
	return v, ok
}

// ResidentBytes reports how many of key's bytes are locally resident
// (pulled into this host's replica); 0 when the key has no replica here.
// Feeds the scheduler's residency adverts.
func (lt *LocalTier) ResidentBytes(key string) int64 {
	v, ok := lt.Lookup(key)
	if !ok {
		return 0
	}
	return v.ResidentBytes()
}

// Evict drops a local replica (its shared segment stays alive for Faaslets
// that already mapped it, but new accesses re-replicate).
func (lt *LocalTier) Evict(key string) {
	lt.mu.Lock()
	delete(lt.values, key)
	lt.mu.Unlock()
}

// Keys lists locally replicated keys.
func (lt *LocalTier) Keys() []string {
	lt.mu.RLock()
	defer lt.mu.RUnlock()
	out := make([]string, 0, len(lt.values))
	for k := range lt.values {
		out = append(out, k)
	}
	return out
}

// LocalBytes reports the local tier's memory footprint: the shared segments
// backing replicated values. Because co-located Faaslets share them, this is
// counted once per host, not once per function — the heart of Fig 6c.
func (lt *LocalTier) LocalBytes() int64 {
	lt.mu.RLock()
	defer lt.mu.RUnlock()
	var n int64
	for _, v := range lt.values {
		n += int64(v.seg.Len())
	}
	return n
}

// Append appends data to the global value directly (append_state in
// Table 2): appends are an authoritative global-tier operation used for
// collecting results, not a replica mutation.
func (lt *LocalTier) Append(key string, data []byte) error {
	if _, err := lt.global.Append(key, data); err != nil {
		return err
	}
	lt.Pushed.Add(int64(len(data)))
	return nil
}

// ReadAll fetches the full authoritative value from the global tier.
func (lt *LocalTier) ReadAll(key string) ([]byte, error) {
	b, err := lt.global.Get(key)
	if err != nil {
		return nil, err
	}
	lt.Pulled.Add(int64(len(b)))
	return b, nil
}

// LockGlobal acquires the global read/write lock for key
// (lock_state_global_read/write), returning the lease token.
func (lt *LocalTier) LockGlobal(key string, write bool) (uint64, error) {
	return lt.global.Lock("lock/"+key, write, DefaultLockTTL)
}

// UnlockGlobal releases a global lock.
func (lt *LocalTier) UnlockGlobal(key string, token uint64) error {
	return lt.global.Unlock("lock/"+key, token)
}

// Value is one state value's local replica. The bytes live in a shared
// wamem.Segment so Faaslets can map them straight into their linear address
// spaces, and pulls land there: the segment mirrors the global value byte
// for byte, so the global tier reads each window straight into it
// (kvs.Batcher.GetRangesInto) with no intermediate buffer.
type Value struct {
	key   string
	size  int
	whole []kvs.Range // the one window a full pull reads
	seg   *wamem.Segment
	tier  *LocalTier

	// lock is the local read/write lock of §4.2.
	lock sync.RWMutex

	// mu guards the chunk-presence bitmap.
	mu     sync.Mutex
	chunks []bool
	// pulled counts true entries in chunks, so marking a pull is O(chunks
	// touched) instead of rescanning the whole bitmap for completeness.
	pulled int
	all    bool
}

// Key returns the state key.
func (v *Value) Key() string { return v.key }

// Size returns the value's logical size in bytes.
func (v *Value) Size() int { return v.size }

// Segment returns the shared segment backing the replica, for mapping into
// Faaslet memory. The value occupies bytes [0, Size).
func (v *Value) Segment() *wamem.Segment { return v.seg }

// Bytes returns the replica's backing bytes. Direct access skips the
// implicit locking — callers coordinate with LockRead/LockWrite, exactly as
// the paper requires of pointer-based access.
func (v *Value) Bytes() []byte { return v.seg.Bytes()[:v.size] }

// LockRead takes the local read lock (lock_state_read).
func (v *Value) LockRead() { v.lock.RLock() }

// UnlockRead releases the local read lock.
func (v *Value) UnlockRead() { v.lock.RUnlock() }

// LockWrite takes the local write lock (lock_state_write).
func (v *Value) LockWrite() { v.lock.Lock() }

// UnlockWrite releases the local write lock.
func (v *Value) UnlockWrite() { v.lock.Unlock() }

// chunkRange returns the chunk indices covering [off, off+n).
func (v *Value) chunkRange(off, n int) (int, int) {
	lo := off / ChunkSize
	hi := (off + n + ChunkSize - 1) / ChunkSize
	if hi > len(v.chunks) {
		hi = len(v.chunks)
	}
	return lo, hi
}

// ResidentBytes reports the bytes of this replica already pulled from the
// global tier (the whole size once fully resident; otherwise pulled chunks
// × ChunkSize, clipped to the size for the short final chunk).
func (v *Value) ResidentBytes() int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.all {
		return int64(v.size)
	}
	b := int64(v.pulled) * ChunkSize
	if b > int64(v.size) {
		b = int64(v.size)
	}
	return b
}

// missing reports whether any chunk in [off, off+n) has not been pulled.
func (v *Value) missing(off, n int) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.all {
		return false
	}
	lo, hi := v.chunkRange(off, n)
	for i := lo; i < hi; i++ {
		if !v.chunks[i] {
			return true
		}
	}
	return false
}

// markPulledLocked marks the chunks covering [off, off+n) present. Caller
// holds v.mu.
func (v *Value) markPulledLocked(off, n int) {
	lo, hi := v.chunkRange(off, n)
	for i := lo; i < hi; i++ {
		if !v.chunks[i] {
			v.chunks[i] = true
			v.pulled++
		}
	}
	v.all = v.pulled == len(v.chunks)
}

func (v *Value) markPulled(off, n int) {
	v.mu.Lock()
	v.markPulledLocked(off, n)
	v.mu.Unlock()
}

// markNone forgets every pulled chunk, so the next access re-pulls.
func (v *Value) markNone() {
	v.mu.Lock()
	clear(v.chunks)
	v.pulled = 0
	v.all = false
	v.mu.Unlock()
}

func (v *Value) markAll() {
	v.mu.Lock()
	if !v.all {
		for i := range v.chunks {
			v.chunks[i] = true
		}
		v.pulled = len(v.chunks)
		v.all = true
	}
	v.mu.Unlock()
}

// PullN replicates the full authoritative value into the local tier
// (pull_state), returning the number of bytes fetched from the global tier
// for per-span transfer attribution. It takes the local write lock, per
// §4.2. The bytes land in the segment as they arrive, so a pull that fails
// part-way may leave the replica half refreshed: it then forgets every
// chunk, and the next access pulls again.
func (v *Value) PullN() (int64, error) {
	v.lock.Lock()
	defer v.lock.Unlock()
	n, err := v.tier.global.GetRangesInto(v.key, v.whole, v.Bytes())
	if err != nil {
		v.markNone()
		return 0, fmt.Errorf("state: pull %s: %w", v.key, err)
	}
	v.tier.Pulled.Add(int64(n))
	v.markAll()
	return int64(n), nil
}

// missingSpans converts the requested ranges into the byte spans that still
// need fetching: the chunk intervals are merged, and within each interval
// runs of contiguous missing chunks become one span (clipped to the value
// size). Caller holds v.lock; v.mu is taken here.
func (v *Value) missingSpans(ranges []kvs.Range) []kvs.Range {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.all {
		return nil
	}
	type iv struct{ lo, hi int }
	ivs := make([]iv, 0, len(ranges))
	for _, rg := range ranges {
		lo, hi := v.chunkRange(rg.Off, rg.N)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var spans []kvs.Range
	emit := func(lo, hi int) { // chunk run [lo, hi) → byte span
		start := lo * ChunkSize
		end := hi * ChunkSize
		if end > v.size {
			end = v.size
		}
		spans = append(spans, kvs.Range{Off: start, N: end - start})
	}
	prevHi := 0 // merged intervals: skip chunks already visited
	for _, in := range ivs {
		lo := in.lo
		if lo < prevHi {
			lo = prevHi
		}
		runStart := -1
		for i := lo; i < in.hi; i++ {
			if !v.chunks[i] {
				if runStart < 0 {
					runStart = i
				}
			} else if runStart >= 0 {
				emit(runStart, i)
				runStart = -1
			}
		}
		if runStart >= 0 {
			emit(runStart, in.hi)
		}
		if in.hi > prevHi {
			prevHi = in.hi
		}
	}
	return spans
}

// PullChunksN replicates the chunks covering every [Off, Off+N) range in one
// coalesced global-tier exchange and returns the number of bytes fetched (0
// when every requested chunk was already local). Only the chunks still
// missing are fetched: contiguous missing chunks merge into one range, and
// the global store's GetRangesInto serves all ranges in a single round
// trip. A pull that fails part-way leaves them missing.
func (v *Value) PullChunksN(ranges []kvs.Range) (int64, error) {
	for _, rg := range ranges {
		if err := v.checkRange(rg.Off, rg.N); err != nil {
			return 0, err
		}
	}
	missingAny := false
	for _, rg := range ranges {
		if v.missing(rg.Off, rg.N) {
			missingAny = true
			break
		}
	}
	if !missingAny {
		return 0, nil
	}
	v.lock.Lock()
	defer v.lock.Unlock()
	spans := v.missingSpans(ranges)
	if len(spans) == 0 { // raced with another puller
		return 0, nil
	}
	n, err := v.tier.global.GetRangesInto(v.key, spans, v.Bytes())
	if err != nil {
		return 0, fmt.Errorf("state: pull chunks %s: %w", v.key, err)
	}
	pulled := int64(n)
	v.tier.Pulled.Add(pulled)
	v.mu.Lock()
	for _, sp := range spans {
		v.markPulledLocked(sp.Off, sp.N)
	}
	v.mu.Unlock()
	return pulled, nil
}

// EnsurePulledN lazily pulls [off, off+n) if any part is missing — the
// implicit pull DDOs perform when data is first accessed (§4.1) — returning
// the bytes fetched (0 on a local hit).
func (v *Value) EnsurePulledN(off, n int) (int64, error) {
	if err := v.checkRange(off, n); err != nil {
		return 0, err
	}
	if v.missing(off, n) {
		return v.PullChunksN([]kvs.Range{{Off: off, N: n}})
	}
	return 0, nil
}

// Push writes the full local replica to the global tier (push_state).
func (v *Value) Push() error { return v.PushChunk(0, v.size) }

// PushChunk writes [off, off+n) of the replica to the global tier
// (push_state_offset).
func (v *Value) PushChunk(off, n int) error {
	if err := v.checkRange(off, n); err != nil {
		return err
	}
	v.lock.RLock()
	defer v.lock.RUnlock()
	if err := v.tier.global.SetRange(v.key, off, v.seg.Bytes()[off:off+n]); err != nil {
		return fmt.Errorf("state: push chunk %s[%d:%d]: %w", v.key, off, off+n, err)
	}
	v.tier.Pushed.Add(int64(n))
	v.markPulled(off, n)
	return nil
}

// Set overwrites the local replica (set_state), with the implicit write
// lock. The global tier is unchanged until a push.
func (v *Value) Set(data []byte) error {
	if len(data) != v.size {
		return fmt.Errorf("%w: set %d bytes into %d-byte value", ErrSizeMismatch, len(data), v.size)
	}
	v.lock.Lock()
	copy(v.seg.Bytes(), data)
	v.markAll()
	v.lock.Unlock()
	return nil
}

// SetAt writes data at offset (set_state_offset) under the implicit write
// lock.
func (v *Value) SetAt(off int, data []byte) error {
	if err := v.checkRange(off, len(data)); err != nil {
		return err
	}
	v.lock.Lock()
	copy(v.seg.Bytes()[off:], data)
	v.markPulled(off, len(data))
	v.lock.Unlock()
	return nil
}

func (v *Value) checkRange(off, n int) error {
	if off < 0 || n < 0 || off+n > v.size {
		return fmt.Errorf("state: range [%d,%d) outside %d-byte value %s", off, off+n, v.size, v.key)
	}
	return nil
}
