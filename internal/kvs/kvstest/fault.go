package kvstest

import (
	"fmt"
	"sync"
	"time"

	"faasm.dev/faasm/internal/kvs"
)

// FaultStore wraps a Store with deterministic fault injection, so failure
// handling (ring failover, quorum accounting, read-repair, client retries)
// is testable without real process death. Faults are armed from the test
// goroutine and observed by whatever goroutines drive the store:
//
//   - Crash/Restore: every operation fails with an error classified by
//     kvs.IsUnavailable until restored; the data underneath is untouched,
//     exactly like a process restart. A network partition is the same thing
//     observed from one side: crash the wrapper on one routing path while
//     another path keeps a healthy wrapper over the same inner store.
//   - FailNext(n, err): the next n operations fail with err (n < 0 means
//     until cleared), for injecting one-shot or semantic errors.
//   - SetLatency(d): every operation sleeps d first, for timeout paths.
//
// The zero faults pass everything straight through.
type FaultStore struct {
	inner kvs.Store

	mu      sync.Mutex
	down    bool
	skipN   int
	failN   int
	failErr error
	latency time.Duration
	sleep   func(time.Duration)
	faults  int64 // operations failed by injection
}

// NewFaultStore wraps inner with fault injection (initially healthy).
func NewFaultStore(inner kvs.Store) *FaultStore {
	return &FaultStore{inner: inner}
}

// Crash makes every subsequent operation fail as unavailable.
func (f *FaultStore) Crash() {
	f.mu.Lock()
	f.down = true
	f.mu.Unlock()
}

// Restore brings a crashed store back; injected FailNext errors survive a
// restore, a crash does not clear them.
func (f *FaultStore) Restore() {
	f.mu.Lock()
	f.down = false
	f.mu.Unlock()
}

// Down reports whether the store is currently crashed.
func (f *FaultStore) Down() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down
}

// FailNext arms err for the next n operations (n < 0: until cleared with
// FailNext(0, nil)). A nil err injects an unavailability error.
func (f *FaultStore) FailNext(n int, err error) { f.FailAfter(0, n, err) }

// FailAfter lets skip operations through, then fails the following n (n < 0:
// until cleared) with err — the tool for failing a batch part-way through.
// A nil err injects an unavailability error.
func (f *FaultStore) FailAfter(skip, n int, err error) {
	f.mu.Lock()
	f.skipN = skip
	f.failN = n
	f.failErr = err
	f.mu.Unlock()
}

// SetLatency makes every operation sleep d before executing (0 clears).
func (f *FaultStore) SetLatency(d time.Duration) {
	f.mu.Lock()
	f.latency = d
	f.mu.Unlock()
}

// SetSleeper routes injected latency through fn instead of time.Sleep — the
// simnet fault shard pays latency on the experiment clock this way.
func (f *FaultStore) SetSleeper(fn func(time.Duration)) {
	f.mu.Lock()
	f.sleep = fn
	f.mu.Unlock()
}

// Faults reports how many operations fault injection has failed.
func (f *FaultStore) Faults() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faults
}

// gate applies the armed faults to one operation.
func (f *FaultStore) gate() error {
	f.mu.Lock()
	d := f.latency
	var err error
	switch {
	case f.down:
		err = fmt.Errorf("kvstest: injected crash: %w", kvs.ErrUnavailable)
	case f.skipN > 0:
		f.skipN--
	case f.failN != 0:
		if err = f.failErr; err == nil {
			err = fmt.Errorf("kvstest: injected fault: %w", kvs.ErrUnavailable)
		}
		if f.failN > 0 {
			f.failN--
		}
	}
	if err != nil {
		f.faults++
	}
	sleep := f.sleep
	f.mu.Unlock()
	if d > 0 {
		if sleep == nil {
			sleep = time.Sleep
		}
		sleep(d)
	}
	return err
}

// gated runs op unless an armed fault fails the operation first.
func gated[T any](f *FaultStore, op func() (T, error)) (T, error) {
	if err := f.gate(); err != nil {
		var zero T
		return zero, err
	}
	return op()
}

func (f *FaultStore) gatedErr(op func() error) error {
	if err := f.gate(); err != nil {
		return err
	}
	return op()
}

// Get implements kvs.Store.
func (f *FaultStore) Get(key string) ([]byte, error) {
	return gated(f, func() ([]byte, error) { return f.inner.Get(key) })
}

// Set implements kvs.Store.
func (f *FaultStore) Set(key string, val []byte) error {
	return f.gatedErr(func() error { return f.inner.Set(key, val) })
}

// SetEx implements kvs.Store.
func (f *FaultStore) SetEx(key string, val []byte, ttl time.Duration) error {
	return f.gatedErr(func() error { return f.inner.SetEx(key, val, ttl) })
}

// TTL implements kvs.Store.
func (f *FaultStore) TTL(key string) (time.Duration, error) {
	return gated(f, func() (time.Duration, error) { return f.inner.TTL(key) })
}

// Persist implements kvs.Store.
func (f *FaultStore) Persist(key string) (bool, error) {
	return gated(f, func() (bool, error) { return f.inner.Persist(key) })
}

// GetRange implements kvs.Store.
func (f *FaultStore) GetRange(key string, off, n int) ([]byte, error) {
	return gated(f, func() ([]byte, error) { return f.inner.GetRange(key, off, n) })
}

// SetRange implements kvs.Store.
func (f *FaultStore) SetRange(key string, off int, val []byte) error {
	return f.gatedErr(func() error { return f.inner.SetRange(key, off, val) })
}

// Append implements kvs.Store.
func (f *FaultStore) Append(key string, val []byte) (int, error) {
	return gated(f, func() (int, error) { return f.inner.Append(key, val) })
}

// Len implements kvs.Store.
func (f *FaultStore) Len(key string) (int, error) {
	return gated(f, func() (int, error) { return f.inner.Len(key) })
}

// Delete implements kvs.Store.
func (f *FaultStore) Delete(key string) error {
	return f.gatedErr(func() error { return f.inner.Delete(key) })
}

// SAdd implements kvs.Store.
func (f *FaultStore) SAdd(key, member string) (bool, error) {
	return gated(f, func() (bool, error) { return f.inner.SAdd(key, member) })
}

// SRem implements kvs.Store.
func (f *FaultStore) SRem(key, member string) (bool, error) {
	return gated(f, func() (bool, error) { return f.inner.SRem(key, member) })
}

// SMembers implements kvs.Store.
func (f *FaultStore) SMembers(key string) ([]string, error) {
	return gated(f, func() ([]string, error) { return f.inner.SMembers(key) })
}

// Incr implements kvs.Store.
func (f *FaultStore) Incr(key string, delta int64) (int64, error) {
	return gated(f, func() (int64, error) { return f.inner.Incr(key, delta) })
}

// Lock implements kvs.Store.
func (f *FaultStore) Lock(key string, write bool, ttl time.Duration) (uint64, error) {
	return gated(f, func() (uint64, error) { return f.inner.Lock(key, write, ttl) })
}

// Unlock implements kvs.Store.
func (f *FaultStore) Unlock(key string, token uint64) error {
	return f.gatedErr(func() error { return f.inner.Unlock(key, token) })
}

// AllKeys implements kvs.Store; a crashed shard cannot enumerate its keys,
// so migration and repair see the outage too.
func (f *FaultStore) AllKeys() ([]kvs.KeyInfo, error) {
	return gated(f, func() ([]kvs.KeyInfo, error) { return f.inner.AllKeys() })
}

// The batch methods decompose into the wrapper's own gated single ops, in
// order, so faults apply per key: FailAfter can fail a batch part-way and
// leave it half-applied, which is what a batch spread over several shards
// or wire windows can do.

// perItem applies op to each item in order, stopping at the first error.
func perItem[E, T any](items []E, op func(E) (T, error)) ([]T, error) {
	out := make([]T, len(items))
	for i, it := range items {
		v, err := op(it)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// MGet implements kvs.Store as one gated Get per key.
func (f *FaultStore) MGet(keys []string) ([][]byte, error) { return perItem(keys, f.Get) }

// MSet implements kvs.Store as one gated Set per pair.
func (f *FaultStore) MSet(pairs []kvs.Pair) error {
	_, err := perItem(pairs, func(p kvs.Pair) (struct{}, error) { return struct{}{}, f.Set(p.Key, p.Val) })
	return err
}

// MSetEx implements kvs.Store as one gated SetEx per pair (each computes
// its own deadline, so the keys may expire microseconds apart).
func (f *FaultStore) MSetEx(pairs []kvs.Pair, ttl time.Duration) error {
	_, err := perItem(pairs, func(p kvs.Pair) (struct{}, error) { return struct{}{}, f.SetEx(p.Key, p.Val, ttl) })
	return err
}

// GetRanges implements kvs.Store as one gated GetRange per window.
func (f *FaultStore) GetRanges(key string, ranges []kvs.Range) ([][]byte, error) {
	return perItem(ranges, func(r kvs.Range) ([]byte, error) { return f.GetRange(key, r.Off, r.N) })
}

var _ kvs.Store = (*FaultStore)(nil)
