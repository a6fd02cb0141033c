package kvs

import (
	"bytes"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"faasm.dev/faasm/internal/obsv"
)

// Store is the interface the state tier programs against. Every store —
// Engine, Client, the sharded ring, the simulator's accounting wrapper, the
// test wrappers — implements all of it: the single-key operations below, the
// batch forms (Batcher) and key enumeration (Lister).
type Store interface {
	Batcher
	Lister
	// Get returns a copy of the value at key, or nil if absent.
	Get(key string) ([]byte, error)
	// Set replaces the value at key.
	Set(key string, val []byte) error
	// GetRange returns a copy of val[off:off+n]; reads past the end are
	// truncated, reads entirely past the end return nil.
	GetRange(key string, off, n int) ([]byte, error)
	// SetRange writes val at offset off, zero-extending the value as needed.
	SetRange(key string, off int, val []byte) error
	// Append appends val to the value at key, creating it if absent, and
	// returns the new length.
	Append(key string, val []byte) (int, error)
	// Len reports the value's length (0 if absent).
	Len(key string) (int, error)
	// Delete removes a key.
	Delete(key string) error
	// SetEx replaces the value at key and arms a tier-side expiry: the
	// store hides (and eventually deletes) the key once ttl elapses on the
	// store's own clock. Callers never judge expiry themselves — that is
	// the point: writer and observer clocks drop out entirely (scheduler
	// liveness leases ride on this). ttl must be positive. Expiry applies
	// to value keys only; sets and counters never expire.
	SetEx(key string, val []byte, ttl time.Duration) error
	// TTL reports the remaining lifetime of the value at key, measured on
	// the store's clock: TTLPersistent for a present key without expiry,
	// TTLMissing for an absent (or already expired) key, > 0 otherwise.
	TTL(key string) (time.Duration, error)
	// SAdd adds a member to a set, reporting whether it was new.
	SAdd(key, member string) (bool, error)
	// SRem removes a member from a set, reporting whether it was present.
	SRem(key, member string) (bool, error)
	// SMembers lists a set's members in sorted order.
	SMembers(key string) ([]string, error)
	// Incr atomically adds delta to an integer value, returning the result.
	Incr(key string, delta int64) (int64, error)
	// Lock acquires the global lock for key in read or write mode, with a
	// lease that expires after ttl (protecting against crashed holders).
	// It blocks until acquired. Returns a token for Unlock.
	Lock(key string, write bool, ttl time.Duration) (uint64, error)
	// Unlock releases a previously acquired lock.
	Unlock(key string, token uint64) error
}

// TTL sentinels, Redis-style: lifetime queries on keys without one return a
// negative marker rather than an error.
const (
	// TTLPersistent is TTL's result for a present key with no expiry.
	TTLPersistent = time.Duration(-1)
	// TTLMissing is TTL's result for an absent (or expired) key.
	TTLMissing = time.Duration(-2)
)

// DefaultSweepInterval is the default cadence of the background sweep that
// physically deletes expired keys. Reads already hide expired entries; the
// sweep only bounds how long their memory stays pinned.
const DefaultSweepInterval = time.Second

// Kind classifies which of the engine's structures holds a key; enumeration
// and shard repair need to know how to read and re-create an entry.
type Kind byte

// Kinds.
const (
	KindValue   Kind = 'v'
	KindSet     Kind = 's'
	KindCounter Kind = 'i'
)

// KeyInfo names one stored entry.
type KeyInfo struct {
	Kind Kind
	Key  string
}

// Lister is Store's enumeration surface. The shard healer
// (internal/shardkvs) uses it to find the entries a revived shard must
// re-sync, and faasm-cli to count and list keys. Lock state is deliberately
// excluded — leases are transient and die with their owner.
type Lister interface {
	AllKeys() ([]KeyInfo, error)
}

// Pair is one key/value assignment in a batched write.
type Pair struct {
	Key string
	Val []byte
}

// Range is one [Off, Off+N) byte window of a value.
type Range struct {
	Off int
	N   int
}

// Batcher is Store's batch surface: the state stack's hot paths — DDO chunk
// pulls, sharded writes, prefetch — issue many small operations whose cost
// is dominated by per-operation overhead, and a batch pays it once.
// Semantics match the single-op equivalents element-wise:
//
//   - MGet returns one entry per key, in key order, nil for absent keys.
//   - MSet applies the pairs in order (a duplicated key keeps the last
//     value); each individual key is set atomically, but the batch as a
//     whole is not a transaction — a reader may observe some pairs applied
//     and others not yet.
//   - GetRangesInto reads several windows of one key straight into dst,
//     which mirrors the value: window [Off, Off+N) lands in dst[Off:Off+N],
//     so a local-tier replica is filled with no intermediate buffer. Reads
//     past the end truncate (the rest of the window in dst is left as it
//     was), windows entirely past the end or of a missing key read nothing,
//     and negative bounds or a window outside dst error. It returns the
//     bytes read. All windows of one command observe a single version of
//     the value; batches beyond one wire command window (MaxBatch entries)
//     or served one window at a time may observe different versions across
//     windows when writers race.
//
// Engine serves a batch with one lock acquisition per distinct stripe, the
// TCP client with one pipelined exchange, the sharded ring with one batch
// per owning shard issued concurrently.
type Batcher interface {
	MGet(keys []string) ([][]byte, error)
	MSet(pairs []Pair) error
	GetRangesInto(key string, ranges []Range, dst []byte) (int, error)
}

// numStripes is the engine's lock-striping width. 64 stripes keep the
// per-stripe collision probability low for realistic key counts while the
// whole stripe array (and the per-key lock table's) stays small enough to
// walk for enumeration.
const numStripes = 64

// stripeIdx hashes a key onto its stripe (FNV-1a, inlined so the hot path
// does not allocate a hash.Hash).
func stripeIdx(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h & (numStripes - 1)
}

// stripe holds one slice of the key space. Reads take the read lock only, so
// gets of different keys — and of the same key — proceed concurrently.
type stripe struct {
	mu   sync.RWMutex
	vals map[string][]byte
	sets map[string]map[string]struct{}
	ints map[string]int64
	// exp maps value keys to their expiry deadline on the engine's clock.
	// Reads check it lazily (an expired entry is simply invisible); the
	// background sweeper deletes expired entries so they don't pin memory.
	exp map[string]time.Time
}

// lockStripe is one slice of the lease-lock table. Lock state keeps its own
// stripes so a blocking Lock acquire never obstructs data operations that
// happen to hash alongside it.
type lockStripe struct {
	mu    sync.Mutex
	locks map[string]*lockState
}

// Engine is the in-process implementation of Store. The big single mutex of
// the original design serialised every operation across all keys; striping
// the key space over numStripes RWMutexes makes operations on different
// stripes fully concurrent and same-stripe reads share the read lock.
type Engine struct {
	stripes [numStripes]stripe
	lockTab [numStripes]lockStripe
	tokens  atomic.Uint64
	// now is the engine's clock: key expiry and lock leases are judged on
	// it and nothing else — no caller's clock ever enters the decision.
	// Overridable via SetNowFunc (tests, simulated clusters).
	now func() time.Time

	// sweepTimer drives the self-rescheduling expiry sweep: armed when a
	// deadline is registered, re-armed after each pass while deadlines
	// remain, and left idle otherwise, so an engine with no expiring keys
	// runs no background work at all.
	sweepMu    sync.Mutex
	sweepTimer *time.Timer
	sweepEvery time.Duration

	// expired/sweeps count keys physically removed by expiry and sweep
	// passes run — both off the data path (timer callbacks and explicit
	// sweeps only).
	expired atomic.Int64
	sweeps  atomic.Int64
}

// Instrument registers the engine's expiry counters and key-space gauges
// with reg, labelled by tier (e.g. the shard name, or "global"). All values
// are read at scrape time.
func (e *Engine) Instrument(reg *obsv.Registry, tier string) {
	l := map[string]string{"tier": tier}
	reg.CounterFunc("faasm_kvs_expired_keys_total", "keys removed by tier-side expiry", l, e.expired.Load)
	reg.CounterFunc("faasm_kvs_sweeps_total", "expiry sweep passes", l, e.sweeps.Load)
	reg.GaugeFunc("faasm_kvs_value_bytes", "live value bytes in the engine", l, e.TotalBytes)
	reg.GaugeFunc("faasm_kvs_keys", "live value keys in the engine", l, func() int64 {
		return int64(len(e.Keys()))
	})
}

type lockState struct {
	// writer holds the token of the exclusive holder, 0 if none.
	writer uint64
	// readers maps reader tokens to lease expiry.
	readers map[uint64]time.Time
	// writerExpiry bounds the writer lease.
	writerExpiry time.Time
	cond         *sync.Cond
}

// NewEngine returns an empty store.
func NewEngine() *Engine {
	e := &Engine{now: time.Now, sweepEvery: DefaultSweepInterval}
	for i := range e.stripes {
		e.stripes[i].vals = map[string][]byte{}
		e.stripes[i].sets = map[string]map[string]struct{}{}
		e.stripes[i].ints = map[string]int64{}
		e.stripes[i].exp = map[string]time.Time{}
	}
	for i := range e.lockTab {
		e.lockTab[i].locks = map[string]*lockState{}
	}
	return e
}

// SetNowFunc replaces the engine's clock (tests, simulated clusters whose
// experiment time runs faster than the wall). Call before the engine serves
// traffic; the function must be safe for concurrent use.
func (e *Engine) SetNowFunc(f func() time.Time) {
	if f != nil {
		e.now = f
	}
}

// SetSweepInterval tunes the background expiry-sweep cadence (0 or negative
// keeps DefaultSweepInterval). Call before the engine serves traffic.
func (e *Engine) SetSweepInterval(d time.Duration) {
	if d > 0 {
		e.sweepMu.Lock()
		e.sweepEvery = d
		e.sweepMu.Unlock()
	}
}

func (e *Engine) stripeOf(key string) *stripe { return &e.stripes[stripeIdx(key)] }

// expiredAt reports whether key carries a deadline at or before now. The
// len check keeps the common no-expiring-keys case to one branch with no
// map lookup and no clock read by the caller.
func expiredAt(st *stripe, key string, now time.Time) bool {
	if len(st.exp) == 0 {
		return false
	}
	dl, ok := st.exp[key]
	return ok && !dl.After(now)
}

// liveLocked returns the value at key and whether it is present and
// unexpired, with the stripe (read-)locked by the caller.
func (e *Engine) liveLocked(st *stripe, key string) ([]byte, bool) {
	v, ok := st.vals[key]
	if !ok {
		return nil, false
	}
	if len(st.exp) != 0 && expiredAt(st, key, e.now()) {
		return nil, false
	}
	return v, true
}

// purgeLocked lazily deletes key if its expiry has passed, so mutating
// operations (SetRange, Append) never revive an expired value. Caller holds
// the stripe write lock.
func (e *Engine) purgeLocked(st *stripe, key string) {
	if len(st.exp) != 0 && expiredAt(st, key, e.now()) {
		delete(st.vals, key)
		delete(st.exp, key)
		e.expired.Add(1)
	}
}

// Get implements Store.
func (e *Engine) Get(key string) ([]byte, error) {
	st := e.stripeOf(key)
	st.mu.RLock()
	defer st.mu.RUnlock()
	v, ok := e.liveLocked(st, key)
	if !ok {
		return nil, nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, nil
}

// Set implements Store. Like Redis SET, it clears any expiry on the key.
func (e *Engine) Set(key string, val []byte) error {
	cp := make([]byte, len(val))
	copy(cp, val)
	st := e.stripeOf(key)
	st.mu.Lock()
	st.vals[key] = cp
	delete(st.exp, key)
	st.mu.Unlock()
	return nil
}

// SetEx implements Store: Set plus a tier-side expiry deadline on the
// engine's clock.
func (e *Engine) SetEx(key string, val []byte, ttl time.Duration) error {
	if ttl <= 0 {
		return fmt.Errorf("kvs: setex ttl must be positive, got %v", ttl)
	}
	cp := make([]byte, len(val))
	copy(cp, val)
	deadline := e.now().Add(ttl)
	st := e.stripeOf(key)
	st.mu.Lock()
	st.vals[key] = cp
	st.exp[key] = deadline
	st.mu.Unlock()
	e.scheduleSweep()
	return nil
}

// TTL implements Store.
func (e *Engine) TTL(key string) (time.Duration, error) {
	st := e.stripeOf(key)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if _, ok := st.vals[key]; !ok {
		return TTLMissing, nil
	}
	dl, ok := st.exp[key]
	if !ok {
		return TTLPersistent, nil
	}
	now := e.now()
	if !dl.After(now) {
		return TTLMissing, nil
	}
	return dl.Sub(now), nil
}

// window returns [off, off+n) of v without copying, truncated at the end of
// v: nil for a window entirely past the end, an error for negative bounds.
// The truncation compares n against the bytes left, so an n near MaxInt
// cannot overflow the end offset.
func window(v []byte, off, n int) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("kvs: negative range [%d,%d)", off, off+n)
	}
	if off >= len(v) {
		return nil, nil
	}
	return v[off : off+min(n, len(v)-off)], nil
}

// checkWindows validates the windows of a GetRangesInto call against its
// destination: no negative bounds, and each window inside dst.
func checkWindows(ranges []Range, size int) error {
	for _, r := range ranges {
		if r.Off < 0 || r.N < 0 {
			return fmt.Errorf("kvs: negative range [%d,%d)", r.Off, r.Off+r.N)
		}
		if r.N > size-r.Off {
			return fmt.Errorf("kvs: range [%d,%d) outside a %d-byte destination", r.Off, r.Off+r.N, size)
		}
	}
	return nil
}

// GetRange implements Store.
func (e *Engine) GetRange(key string, off, n int) ([]byte, error) {
	st := e.stripeOf(key)
	st.mu.RLock()
	defer st.mu.RUnlock()
	v, _ := e.liveLocked(st, key)
	w, err := window(v, off, n)
	return bytes.Clone(w), err
}

// SetRange implements Store. An expired value is purged first, so writing
// into it starts from an empty value like any other missing key; an
// unexpired deadline survives the write (Redis SETRANGE keeps the TTL).
func (e *Engine) SetRange(key string, off int, val []byte) error {
	if off < 0 {
		return fmt.Errorf("kvs: negative offset %d", off)
	}
	st := e.stripeOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	e.purgeLocked(st, key)
	v := st.vals[key]
	if need := off + len(val); need > len(v) {
		grown := make([]byte, need)
		copy(grown, v)
		v = grown
	}
	copy(v[off:], val)
	st.vals[key] = v
	return nil
}

// Append implements Store. Expiry semantics match SetRange.
func (e *Engine) Append(key string, val []byte) (int, error) {
	st := e.stripeOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	e.purgeLocked(st, key)
	st.vals[key] = append(st.vals[key], val...)
	return len(st.vals[key]), nil
}

// Len implements Store.
func (e *Engine) Len(key string) (int, error) {
	st := e.stripeOf(key)
	st.mu.RLock()
	defer st.mu.RUnlock()
	v, _ := e.liveLocked(st, key)
	return len(v), nil
}

// Delete implements Store.
func (e *Engine) Delete(key string) error {
	st := e.stripeOf(key)
	st.mu.Lock()
	delete(st.vals, key)
	delete(st.sets, key)
	delete(st.ints, key)
	delete(st.exp, key)
	st.mu.Unlock()
	return nil
}

// SAdd implements Store.
func (e *Engine) SAdd(key, member string) (bool, error) {
	st := e.stripeOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.sets[key]
	if !ok {
		s = map[string]struct{}{}
		st.sets[key] = s
	}
	if _, exists := s[member]; exists {
		return false, nil
	}
	s[member] = struct{}{}
	return true, nil
}

// SRem implements Store.
func (e *Engine) SRem(key, member string) (bool, error) {
	st := e.stripeOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.sets[key]
	if !ok {
		return false, nil
	}
	if _, exists := s[member]; !exists {
		return false, nil
	}
	delete(s, member)
	return true, nil
}

// SMembers implements Store.
func (e *Engine) SMembers(key string) ([]string, error) {
	st := e.stripeOf(key)
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := st.sets[key]
	out := make([]string, 0, len(s))
	for m := range s {
		out = append(out, m)
	}
	sort.Strings(out)
	return out, nil
}

// Incr implements Store.
func (e *Engine) Incr(key string, delta int64) (int64, error) {
	st := e.stripeOf(key)
	st.mu.Lock()
	defer st.mu.Unlock()
	st.ints[key] += delta
	return st.ints[key], nil
}

// MGet implements Batcher: each stripe's read lock is taken once for all of
// its keys, not once per key. The stripes present in the batch are tracked
// in one bitmask (numStripes = 64), so grouping costs a single index slice
// and no per-stripe allocations.
func (e *Engine) MGet(keys []string) ([][]byte, error) {
	out := make([][]byte, len(keys))
	sids := make([]uint8, len(keys))
	var mask uint64
	for i, k := range keys {
		s := stripeIdx(k)
		sids[i] = uint8(s)
		mask |= 1 << s
	}
	now := e.now()
	for mask != 0 {
		si := uint8(bits.TrailingZeros64(mask))
		mask &= mask - 1
		st := &e.stripes[si]
		st.mu.RLock()
		for i, s := range sids {
			if s != si {
				continue
			}
			if v, ok := st.vals[keys[i]]; ok && !expiredAt(st, keys[i], now) {
				cp := make([]byte, len(v))
				copy(cp, v)
				out[i] = cp
			}
		}
		st.mu.RUnlock()
	}
	return out, nil
}

// MSet implements Batcher: one stripe acquisition per distinct stripe. Pairs
// are applied in input order within each stripe, so a duplicated key keeps
// its last value.
func (e *Engine) MSet(pairs []Pair) error {
	// Copy outside the locks: the engine owns its bytes.
	cps := make([][]byte, len(pairs))
	sids := make([]uint8, len(pairs))
	var mask uint64
	for i, p := range pairs {
		cps[i] = make([]byte, len(p.Val))
		copy(cps[i], p.Val)
		s := stripeIdx(p.Key)
		sids[i] = uint8(s)
		mask |= 1 << s
	}
	for mask != 0 {
		si := uint8(bits.TrailingZeros64(mask))
		mask &= mask - 1
		st := &e.stripes[si]
		st.mu.Lock()
		for i, s := range sids {
			if s == si {
				st.vals[pairs[i].Key] = cps[i]
				delete(st.exp, pairs[i].Key)
			}
		}
		st.mu.Unlock()
	}
	return nil
}

// GetRangesInto implements Batcher: every window is copied straight into dst
// under one acquisition of the key's stripe read lock, so all of them
// observe a single consistent value.
func (e *Engine) GetRangesInto(key string, ranges []Range, dst []byte) (int, error) {
	if err := checkWindows(ranges, len(dst)); err != nil {
		return 0, err
	}
	st := e.stripeOf(key)
	st.mu.RLock()
	defer st.mu.RUnlock()
	val, _ := e.liveLocked(st, key)
	total := 0
	for _, r := range ranges {
		w, _ := window(val, r.Off, r.N)
		total += copy(dst[r.Off:], w)
	}
	return total, nil
}

// readWindows copies the windows of key into buf under one acquisition of
// the key's stripe read lock and returns each window's bytes (nil for a
// window entirely past the end) and buf, grown by append if it was too
// small. The server answers GETRANGE and GETRANGES from it with one buffer
// per connection: a read allocates nothing once that buffer has grown to the
// largest reply, and no stripe lock is held while the reply is written to
// the socket.
func (e *Engine) readWindows(key string, ranges []Range, buf []byte) ([][]byte, []byte, error) {
	out := make([][]byte, len(ranges))
	st := e.stripeOf(key)
	st.mu.RLock()
	defer st.mu.RUnlock()
	val, _ := e.liveLocked(st, key)
	buf = buf[:0]
	for i, r := range ranges {
		w, err := window(val, r.Off, r.N)
		if err != nil {
			return nil, buf, err
		}
		if len(w) > 0 { // a nil or empty window keeps its own nil-ness
			buf = append(buf, w...)
			w = buf[len(buf)-len(w):]
		}
		out[i] = w
	}
	return out, buf, nil
}

// Keys returns all live value keys (diagnostics and tests).
func (e *Engine) Keys() []string {
	var out []string
	now := e.now()
	for i := range e.stripes {
		st := &e.stripes[i]
		st.mu.RLock()
		for k := range st.vals {
			if !expiredAt(st, k, now) {
				out = append(out, k)
			}
		}
		st.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// AllKeys implements Lister: every live entry across values, sets and
// counters, sorted by kind then key. Expired values are invisible here too —
// the shard healer enumerates through this, so a repair can never copy (and
// thereby resurrect) a key the tier already expired.
func (e *Engine) AllKeys() ([]KeyInfo, error) {
	var out []KeyInfo
	now := e.now()
	for i := range e.stripes {
		st := &e.stripes[i]
		st.mu.RLock()
		for k := range st.vals {
			if !expiredAt(st, k, now) {
				out = append(out, KeyInfo{KindValue, k})
			}
		}
		for k := range st.sets {
			out = append(out, KeyInfo{KindSet, k})
		}
		for k := range st.ints {
			out = append(out, KeyInfo{KindCounter, k})
		}
		st.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Key < out[j].Key
	})
	return out, nil
}

// TotalBytes reports the sum of live value lengths (memory accounting).
func (e *Engine) TotalBytes() int64 {
	var n int64
	now := e.now()
	for i := range e.stripes {
		st := &e.stripes[i]
		st.mu.RLock()
		for k, v := range st.vals {
			if !expiredAt(st, k, now) {
				n += int64(len(v))
			}
		}
		st.mu.RUnlock()
	}
	return n
}

// scheduleSweep arms the expiry sweep if it is not already armed. The timer
// runs on the wall clock regardless of the engine clock — it is memory
// hygiene only; visibility is decided by the lazy checks on e.now.
func (e *Engine) scheduleSweep() {
	e.sweepMu.Lock()
	defer e.sweepMu.Unlock()
	if e.sweepTimer != nil {
		return
	}
	e.sweepTimer = time.AfterFunc(e.sweepEvery, e.sweepTick)
}

// sweepTick disarms first, then sweeps, then re-arms while deadlines remain:
// a SetEx racing the pass sees the timer disarmed and arms a fresh one, so
// no deadline is ever left without a scheduled sweep.
func (e *Engine) sweepTick() {
	e.sweepMu.Lock()
	e.sweepTimer = nil
	e.sweepMu.Unlock()
	if _, remaining := e.sweepOnce(); remaining > 0 {
		e.scheduleSweep()
	}
}

// sweepOnce deletes every expired entry, reporting how many were removed and
// how many armed deadlines remain.
func (e *Engine) sweepOnce() (removed, remaining int) {
	now := e.now()
	for i := range e.stripes {
		st := &e.stripes[i]
		st.mu.Lock()
		for k, dl := range st.exp {
			if !dl.After(now) {
				delete(st.vals, k)
				delete(st.exp, k)
				removed++
			} else {
				remaining++
			}
		}
		st.mu.Unlock()
	}
	e.sweeps.Add(1)
	e.expired.Add(int64(removed))
	return removed, remaining
}

// SweepExpired runs one expiry sweep immediately, physically deleting every
// expired entry, and reports how many were dropped. The background sweeper
// calls this on its timer; tests call it to make "expired and collected"
// deterministic.
func (e *Engine) SweepExpired() int {
	removed, _ := e.sweepOnce()
	return removed
}

// Lock implements Store. Lock ordering is writer-preferring within a key:
// pending writers do not starve behind a stream of readers because expired
// leases are pruned on every wake-up. Lease state lives in its own stripe
// table, so blocking acquires only contend with locks that hash to the same
// stripe, never with data operations.
func (e *Engine) Lock(key string, write bool, ttl time.Duration) (uint64, error) {
	if ttl <= 0 {
		ttl = 30 * time.Second
	}
	lt := &e.lockTab[stripeIdx(key)]
	lt.mu.Lock()
	defer lt.mu.Unlock()
	ls, ok := lt.locks[key]
	if !ok {
		ls = &lockState{readers: map[uint64]time.Time{}}
		ls.cond = sync.NewCond(&lt.mu)
		lt.locks[key] = ls
	}
	for {
		e.pruneExpired(ls)
		if write {
			if ls.writer == 0 && len(ls.readers) == 0 {
				tok := e.tokens.Add(1)
				ls.writer = tok
				ls.writerExpiry = e.now().Add(ttl)
				return tok, nil
			}
		} else {
			if ls.writer == 0 {
				tok := e.tokens.Add(1)
				ls.readers[tok] = e.now().Add(ttl)
				return tok, nil
			}
		}
		// Wake periodically so expired leases are reclaimed even when the
		// holder crashed and will never call Unlock.
		wake := time.AfterFunc(50*time.Millisecond, func() {
			lt.mu.Lock()
			ls.cond.Broadcast()
			lt.mu.Unlock()
		})
		ls.cond.Wait()
		wake.Stop()
	}
}

func (e *Engine) pruneExpired(ls *lockState) {
	now := e.now()
	if ls.writer != 0 && now.After(ls.writerExpiry) {
		ls.writer = 0
	}
	for tok, exp := range ls.readers {
		if now.After(exp) {
			delete(ls.readers, tok)
		}
	}
}

// Unlock implements Store. Unlocking an expired or unknown token is a no-op,
// mirroring lease semantics.
func (e *Engine) Unlock(key string, token uint64) error {
	lt := &e.lockTab[stripeIdx(key)]
	lt.mu.Lock()
	defer lt.mu.Unlock()
	ls, ok := lt.locks[key]
	if !ok {
		return nil
	}
	if ls.writer == token {
		ls.writer = 0
	} else {
		delete(ls.readers, token)
	}
	ls.cond.Broadcast()
	return nil
}

var _ Store = (*Engine)(nil)
