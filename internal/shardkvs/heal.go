package shardkvs

// Read-repair for suspect shards. A shard that failed an operation with an
// unavailability error is marked suspect: reads skip it (it missed writes the
// surviving copies acknowledged) and Heal is the only path back into the read
// set. Heal probes each suspect shard and, for the reachable ones, re-syncs
// every entry the shard owns from an in-sync copy, sweeps entries that were
// deleted while it was down, and clears the suspect mark.
//
// Repair trusts the in-sync copies. A write that was acknowledged *only* by
// copies that later all crashed is invisible to the survivors, so repair
// drops it — that is the W < R durability contract, not a repair bug (see
// the failure model in docs/ARCHITECTURE.md).

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"faasm.dev/faasm/internal/kvs"
)

// healProbeKey is the key probe reads to test a shard's reachability.
// Reading a missing key is a cheap no-op on every backend; only the error
// matters.
const healProbeKey = "__faasm_heal_probe"

// HealStats summarises one Heal.
type HealStats struct {
	// KeysExamined is the distinct entries the revived shards should hold.
	KeysExamined int
	// KeysMoved is the keys re-synced onto a revived shard.
	KeysMoved int
	// CopiesWritten is the (key, shard) entries rewritten.
	CopiesWritten int
	// CopiesDropped is the entries swept from a revived shard because they
	// were deleted while it was down.
	CopiesDropped int
	// BytesMoved is the value bytes copied onto revived shards.
	BytesMoved int64
}

// probe reads healProbeKey once from n: one round trip, whatever the shard
// holds.
func probe(n *node) error {
	if _, err := n.store.Get(healProbeKey); err != nil {
		return fmt.Errorf("shardkvs: shard %s: %w", n.id, err)
	}
	return nil
}

// Probe checks that every shard answers, reading healProbeKey once per shard
// — the check Heal makes before re-syncing a suspect shard. It returns the
// errors of the shards that did not answer. faasmd runs it at startup to
// fail fast on an unreachable endpoint.
func (r *Ring) Probe() error {
	var errs []error
	for _, id := range r.ids {
		if err := probe(r.nodes[id]); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Health is the ring's local view of one shard's availability.
type Health struct {
	// ID is the node id on the ring.
	ID string
	// Suspect reports whether the node is excluded from reads pending repair.
	Suspect bool
	// Failures counts unavailability errors the ring has observed against
	// the node over its lifetime.
	Failures int64
	// Down is how long the node has been suspect (zero when in sync).
	Down time.Duration
}

// Health reports per-shard health, sorted by node id; faasmd's /status page
// renders it.
func (r *Ring) Health() []Health {
	out := make([]Health, 0, len(r.ids))
	for _, id := range r.ids {
		n := r.nodes[id]
		h := Health{ID: id, Suspect: n.suspect.Load(), Failures: n.failures.Load()}
		if h.Suspect {
			h.Down = time.Since(time.Unix(0, n.downSince.Load()))
		}
		out = append(out, h)
	}
	return out
}

// healLoop drives Heal at the configured interval until Close. Errors leave
// the affected shards suspect; the next tick retries.
func (r *Ring) healLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-r.healStop:
			return
		case <-t.C:
			r.Heal() //nolint:errcheck // suspect shards stay suspect; retried next tick
		}
	}
}

// Heal probes every suspect shard and re-syncs the ones that answer,
// returning them to the read set. Unreachable shards stay suspect for a
// later Heal. Repair is per-key write-fenced, so it serialises against live
// writers; plain traffic proceeds throughout.
func (r *Ring) Heal() (HealStats, error) {
	r.healMu.Lock()
	defer r.healMu.Unlock()
	var stats HealStats
	var firstErr error
	for _, id := range r.ids {
		n := r.nodes[id]
		if !n.suspect.Load() {
			continue
		}
		if err := probe(n); kvs.IsUnavailable(err) {
			continue // still down
		}
		if err := r.repairNode(n, &stats); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r.clearSuspect(n)
	}
	return stats, firstErr
}

// entryRef names one stored entry; a key can exist under several kinds.
type entryRef struct {
	key  string
	kind kvs.Kind
}

// repairNode re-syncs one reachable suspect shard from the in-sync copies:
// every entry the shard owns under the current placement is overwritten from
// an in-sync holder, and entries the shard holds that no in-sync owner holds
// (deleted while it was down) are swept. Each key's copy runs under its
// write fence.
func (r *Ring) repairNode(target *node, stats *HealStats) error {
	// What the target should hold, per the in-sync holders. First holder in
	// sorted id order wins as the copy source — deterministic for tests.
	want := map[entryRef]*node{}
	for _, id := range r.ids {
		n := r.nodes[id]
		if n == target || n.suspect.Load() {
			continue
		}
		infos, err := n.store.AllKeys()
		if err != nil {
			return fmt.Errorf("shardkvs: repair %s: enumerate %s: %w", target.id, id, err)
		}
		for _, ki := range infos {
			if _, dup := want[entryRef{ki.Key, ki.Kind}]; dup {
				continue
			}
			for _, o := range r.Owners(ki.Key) {
				if o == target.id {
					want[entryRef{ki.Key, ki.Kind}] = n
					break
				}
			}
		}
	}
	stats.KeysExamined += len(want)

	// Sweep first: entries the target holds that no in-sync holder backs were
	// deleted while it was down. Delete removes every kind of the key, so the
	// copy pass below must (and does) run after, restoring kinds that should
	// survive. Skipped when the key has no in-sync owner left to vouch for
	// the deletion — then the target may hold the last copy.
	held, err := target.store.AllKeys()
	if err != nil {
		return fmt.Errorf("shardkvs: repair %s: enumerate target: %w", target.id, err)
	}
	for _, ki := range held {
		if _, ok := want[entryRef{ki.Key, ki.Kind}]; ok {
			continue
		}
		vouched := false
		for _, o := range r.Owners(ki.Key) {
			if n := r.nodes[o]; n != target && !n.suspect.Load() {
				vouched = true
				break
			}
		}
		if !vouched {
			continue
		}
		err := func() error {
			defer r.writeFence(ki.Key)()
			return target.store.Delete(ki.Key)
		}()
		if err != nil {
			return fmt.Errorf("shardkvs: repair %s: sweep %q: %w", target.id, ki.Key, err)
		}
		stats.CopiesDropped++
	}

	// Copy pass: overwrite each owned entry from its in-sync source.
	refs := make([]entryRef, 0, len(want))
	for e := range want {
		refs = append(refs, e)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].key != refs[j].key {
			return refs[i].key < refs[j].key
		}
		return refs[i].kind < refs[j].kind
	})
	moved := map[string]bool{}
	for _, e := range refs {
		src := want[e]
		err := func() error {
			defer r.writeFence(e.key)()
			n, err := copyKind(src.store, target.store, e.key, e.kind)
			if err != nil {
				return err
			}
			stats.CopiesWritten++
			stats.BytesMoved += n
			return nil
		}()
		if err != nil {
			return fmt.Errorf("shardkvs: repair %q %s→%s: %w", e.key, src.id, target.id, err)
		}
		if !moved[e.key] {
			moved[e.key] = true
			stats.KeysMoved++
		}
	}
	return nil
}

// repairSet converges dst's set at key onto src's: members dst lacks are
// added, members dst holds that src lacks are removed.
func repairSet(src, dst kvs.Store, key string) (int64, error) {
	wantM, err := src.SMembers(key)
	if err != nil {
		return 0, err
	}
	haveM, err := dst.SMembers(key)
	if err != nil {
		return 0, err
	}
	have := make(map[string]bool, len(haveM))
	for _, m := range haveM {
		have[m] = true
	}
	want := make(map[string]bool, len(wantM))
	var bytes int64
	for _, m := range wantM {
		want[m] = true
		if !have[m] {
			if _, err := dst.SAdd(key, m); err != nil {
				return bytes, err
			}
			bytes += int64(len(m))
		}
	}
	for _, m := range haveM {
		if !want[m] {
			if _, err := dst.SRem(key, m); err != nil {
				return bytes, err
			}
		}
	}
	return bytes, nil
}

// copyKind converges dst's entry onto src's, returning the value bytes
// written. src is always a node that reported holding the entry.
func copyKind(src, dst kvs.Store, key string, kind kvs.Kind) (int64, error) {
	switch kind {
	case kvs.KindValue:
		// Read the value first and its TTL second, so the expiry class
		// written to dst reflects the *latest* of the two reads: if the key
		// expires in between, the TTL read returns TTLMissing and the copy
		// is skipped (a repair must never resurrect an expired key); if the
		// key is re-classified in between (Set clearing a lease, SetEx
		// arming one), the copy lands with the new class rather than a
		// stale one — the reverse order could stamp a just-persisted value
		// with a long-dead lease and silently delete it, or make a leased
		// value immortal. Only the expiry class decides life and death, so
		// it follows the later read.
		v, err := src.Get(key)
		if err != nil {
			return 0, err
		}
		if v == nil {
			// Expired (or deleted) since enumeration named it.
			return 0, nil
		}
		ttl, err := src.TTL(key)
		if err != nil {
			return 0, err
		}
		if ttl == kvs.TTLMissing {
			// Expired between the value read and the TTL read.
			return 0, nil
		}
		if ttl == kvs.TTLPersistent {
			err = dst.Set(key, v)
		} else {
			// The remaining lifetime travels with the copy, so dst's clock
			// expires it at (its now + remaining) — clock skew between
			// shards shifts the deadline by at most the skew, never into
			// immortality.
			err = dst.SetEx(key, v, ttl)
		}
		if err != nil {
			return 0, err
		}
		return int64(len(v)), nil
	case kvs.KindSet:
		// A revived set needs stale members removed as well as missing
		// ones added.
		return repairSet(src, dst, key)
	case kvs.KindCounter:
		want, err := src.Incr(key, 0)
		if err != nil {
			return 0, err
		}
		have, err := dst.Incr(key, 0)
		if err != nil {
			return 0, err
		}
		if want != have {
			if _, err := dst.Incr(key, want-have); err != nil {
				return 0, err
			}
		}
		return 8, nil
	}
	return 0, fmt.Errorf("shardkvs: unknown kind %q", kind)
}
