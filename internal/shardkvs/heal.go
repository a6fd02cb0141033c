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
	"fmt"
	"sort"
	"time"

	"faasm.dev/faasm/internal/kvs"
)

// healProbeKey is the key Heal reads to test a suspect shard's reachability.
// Reading a missing key is a cheap no-op on every backend; only the error
// class matters.
const healProbeKey = "__faasm_heal_probe"

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
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Health, 0, len(r.nodes))
	for id, n := range r.nodes {
		h := Health{ID: id, Suspect: n.suspect.Load(), Failures: n.failures.Load()}
		if h.Suspect {
			h.Down = time.Since(time.Unix(0, n.downSince.Load()))
		}
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
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
// writers exactly like a migration; plain traffic proceeds throughout.
func (r *Ring) Heal() (MigrationStats, error) {
	r.migrateMu.Lock()
	defer r.migrateMu.Unlock()
	var stats MigrationStats
	r.mu.RLock()
	var suspects []*node
	for _, n := range r.nodes {
		if n.suspect.Load() {
			suspects = append(suspects, n)
		}
	}
	r.mu.RUnlock()
	if len(suspects) == 0 {
		return stats, nil
	}
	sort.Slice(suspects, func(i, j int) bool { return suspects[i].id < suspects[j].id })
	var firstErr error
	for _, n := range suspects {
		if _, err := n.store.Get(healProbeKey); kvs.IsUnavailable(err) {
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
// (deleted while it was down) are swept. The ring lock is never held across
// store operations; each key's copy runs under its write fence.
func (r *Ring) repairNode(target *node, stats *MigrationStats) error {
	r.mu.RLock()
	points := r.points
	ids := r.nodeIDsLocked()
	nodes := make(map[string]*node, len(r.nodes))
	for id, n := range r.nodes {
		nodes[id] = n
	}
	r.mu.RUnlock()
	sort.Strings(ids)

	// What the target should hold, per the in-sync holders. First holder in
	// sorted id order wins as the copy source — deterministic for tests.
	want := map[entryRef]*node{}
	for _, id := range ids {
		n := nodes[id]
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
			for _, o := range ownersOn(points, ki.Key, r.opts.Replication) {
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
		for _, o := range ownersOn(points, ki.Key, r.opts.Replication) {
			if n := nodes[o]; n != nil && n != target && !n.suspect.Load() {
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
			var n int64
			var err error
			if e.kind == kvs.KindSet {
				// copyKind only adds members; a revived set needs stale
				// members removed too.
				n, err = repairSet(src.store, target.store, e.key)
			} else {
				n, err = copyKind(src.store, target.store, e.key, e.kind)
			}
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
