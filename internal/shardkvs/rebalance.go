package shardkvs

import (
	"fmt"
	"sort"

	"faasm.dev/faasm/internal/kvs"
)

// MigrationStats summarises one rebalance.
type MigrationStats struct {
	// KeysExamined is the distinct keys enumerated across the ring.
	KeysExamined int
	// KeysMoved is the keys streamed to at least one new owner.
	KeysMoved int
	// CopiesWritten is the (key, destination) pairs written.
	CopiesWritten int
	// CopiesDropped is the (key, source) pairs deleted from nodes that
	// stopped owning them.
	CopiesDropped int
	// BytesMoved is the value bytes streamed to new owners.
	BytesMoved int64
}

// Attach adds a node to the routing ring without migrating anything. This is
// the bootstrap path for clients connecting to an existing, correctly-placed
// tier (faasmd, faasm-cli): attaching must never mutate tier data. Use Join
// to add an empty node to a live tier and stream its ranges over.
func (r *Ring) Attach(id string, store kvs.Store) error {
	r.migrateMu.Lock()
	defer r.migrateMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.nodes[id]; dup {
		return fmt.Errorf("shardkvs: node %q already joined", id)
	}
	r.nodes[id] = newNode(id, store)
	r.points = buildPoints(r.nodeIDsLocked())
	return nil
}

// Join adds a shard and rebalances: only keys whose owner set changed are
// streamed, and only to the nodes that newly own them. Joining an empty
// ring is free.
//
// Migration is two-phase — every copy lands before any source copy is
// dropped — so an error can never lose data: a copy-phase error rolls the
// membership back with the tier untouched apart from harmless extra copies;
// a drop-phase error leaves routing committed and only stale (unrouted)
// copies behind, and a later Rebalance retries the cleanup.
//
// Plain traffic proceeds during the stream. The migration opens the
// double-write window first (writes land on the union of current and
// incoming owners), then copies each key under its write fence, so a racing
// update either reaches the new owner via the fan-out or is carried by the
// copy — it cannot strand on the old owner.
func (r *Ring) Join(id string, store kvs.Store) (MigrationStats, error) {
	r.migrateMu.Lock()
	defer r.migrateMu.Unlock()
	r.mu.Lock()
	if _, dup := r.nodes[id]; dup {
		r.mu.Unlock()
		return MigrationStats{}, fmt.Errorf("shardkvs: node %q already joined", id)
	}
	r.nodes[id] = newNode(id, store)
	newPoints := buildPoints(r.nodeIDsLocked())
	if len(r.points) == 0 {
		// First node: nothing to stream.
		r.points = newPoints
		r.mu.Unlock()
		return MigrationStats{}, nil
	}
	r.nextPoints = newPoints // double-write window opens
	r.mu.Unlock()

	stats, drops, err := r.copyPhase(newPoints)

	r.mu.Lock()
	if err != nil {
		delete(r.nodes, id)
		r.nextPoints = nil
		r.mu.Unlock()
		return stats, err
	}
	r.points = newPoints
	r.nextPoints = nil // commit: reads now route to the new placement
	r.mu.Unlock()
	err = r.dropPhase(drops, &stats)
	return stats, err
}

// Leave removes a shard gracefully: its keys are streamed to their new
// owners before the node is dropped (the leaving node is still reachable as
// a copy source — and still receives double-writes — during the stream). The
// last node cannot leave. Error semantics match Join: a copy-phase error
// leaves the ring unchanged, a drop-phase error leaves only stale copies
// behind.
func (r *Ring) Leave(id string) (MigrationStats, error) {
	r.migrateMu.Lock()
	defer r.migrateMu.Unlock()
	r.mu.Lock()
	if _, ok := r.nodes[id]; !ok {
		r.mu.Unlock()
		return MigrationStats{}, fmt.Errorf("shardkvs: node %q not in ring", id)
	}
	if len(r.nodes) == 1 {
		r.mu.Unlock()
		return MigrationStats{}, fmt.Errorf("shardkvs: cannot remove last node %q", id)
	}
	ids := make([]string, 0, len(r.nodes)-1)
	for nid := range r.nodes {
		if nid != id {
			ids = append(ids, nid)
		}
	}
	newPoints := buildPoints(ids)
	r.nextPoints = newPoints // double-write window opens
	r.mu.Unlock()

	stats, drops, err := r.copyPhase(newPoints)

	r.mu.Lock()
	if err != nil {
		r.nextPoints = nil
		r.mu.Unlock()
		return stats, err
	}
	delete(r.nodes, id)
	r.points = newPoints
	r.nextPoints = nil
	r.mu.Unlock()
	err = r.dropPhase(drops, &stats)
	return stats, err
}

// Rebalance re-converges data placement onto the current routing: copies
// every entry to owners that lack it and drops copies from non-owners. It
// is idempotent — a no-op on a converged tier — and is the retry path after
// a failed Join/Leave migration. Placement does not change, so no
// double-write window is needed; each key's copy and drop still run under
// its write fence.
func (r *Ring) Rebalance() (MigrationStats, error) {
	r.migrateMu.Lock()
	defer r.migrateMu.Unlock()
	r.mu.RLock()
	points := r.points
	r.mu.RUnlock()
	if len(points) == 0 {
		return MigrationStats{}, nil
	}
	stats, drops, err := r.copyPhase(points)
	if err != nil {
		return stats, err
	}
	err = r.dropPhase(drops, &stats)
	return stats, err
}

func (r *Ring) nodeIDsLocked() []string {
	ids := make([]string, 0, len(r.nodes))
	for id := range r.nodes {
		ids = append(ids, id)
	}
	return ids
}

// pendingDrop is one cleanup action deferred until every copy has landed.
type pendingDrop struct {
	node *node
	key  string
}

// copyPhase enumerates which node holds which entry and streams every entry
// to the owners (under newPoints) that do not yet hold it, copying from a
// node that actually holds the data. Nothing is deleted here; the returned
// drops list the copies that stopped being owned.
//
// The ring lock is not held: membership cannot change underneath (the
// caller holds migrateMu, which serialises Attach and every migration) and
// each key's copies run under its write fence, ordering the stream against
// live writers on that key.
func (r *Ring) copyPhase(newPoints []point) (MigrationStats, []pendingDrop, error) {
	var stats MigrationStats
	r.mu.RLock()
	nodes := make(map[string]*node, len(r.nodes))
	for id, n := range r.nodes {
		nodes[id] = n
	}
	r.mu.RUnlock()
	// key → kind → sorted ids of nodes holding that entry.
	holders := map[string]map[kvs.Kind][]string{}
	for id, n := range nodes {
		infos, err := n.store.AllKeys()
		if err != nil {
			return stats, nil, err
		}
		for _, ki := range infos {
			byKind, ok := holders[ki.Key]
			if !ok {
				byKind = map[kvs.Kind][]string{}
				holders[ki.Key] = byKind
			}
			byKind[ki.Kind] = append(byKind[ki.Kind], id)
		}
	}
	stats.KeysExamined = len(holders)

	var drops []pendingDrop
	for key, byKind := range holders {
		newOwners := ownersOn(newPoints, key, r.opts.Replication)
		newSet := map[string]bool{}
		for _, id := range newOwners {
			newSet[id] = true
		}
		moved := false
		holdsAny := map[string]bool{}
		err := func() error {
			// Fence the key across all its kinds: a racing writer either
			// completes before the copy (the copy carries its update) or
			// routes after it (the open double-write window lands the update
			// on the new owners directly).
			defer r.writeFence(key)()
			for kind, ids := range byKind {
				sort.Strings(ids)
				has := map[string]bool{}
				for _, id := range ids {
					has[id] = true
					holdsAny[id] = true
				}
				// Copy from a node that holds the entry, preferring one that
				// stays an owner (it will survive the drop phase).
				src := nodes[ids[0]]
				for _, id := range ids {
					if newSet[id] {
						src = nodes[id]
						break
					}
				}
				for _, owner := range newOwners {
					if has[owner] {
						continue
					}
					n, err := copyKind(src.store, nodes[owner].store, key, kind)
					if err != nil {
						return fmt.Errorf("shardkvs: stream %q %s→%s: %w", key, src.id, owner, err)
					}
					stats.CopiesWritten++
					stats.BytesMoved += n
					moved = true
				}
			}
			return nil
		}()
		if err != nil {
			return stats, nil, err
		}
		if moved {
			stats.KeysMoved++
		}
		for id := range holdsAny {
			if !newSet[id] {
				drops = append(drops, pendingDrop{nodes[id], key})
			}
		}
	}
	return stats, drops, nil
}

// dropPhase deletes copies from nodes that stopped owning them. Every new
// owner already holds the data, so a failure here leaves only stale,
// unrouted copies — Rebalance retries the cleanup. It runs after commit, so
// writers no longer route to the dropped copies; each drop is still fenced
// against a writer that routed just before commit.
func (r *Ring) dropPhase(drops []pendingDrop, stats *MigrationStats) error {
	for _, d := range drops {
		err := func() error {
			defer r.writeFence(d.key)()
			return d.node.store.Delete(d.key)
		}()
		if err != nil {
			return fmt.Errorf("shardkvs: drop %q from %s (stale copy remains, rerun Rebalance): %w", d.key, d.node.id, err)
		}
		stats.CopiesDropped++
	}
	return nil
}

// copyKind streams one entry from src to dst, returning the value bytes
// written. src is always a node that reported holding the entry.
func copyKind(src, dst kvs.Store, key string, kind kvs.Kind) (int64, error) {
	switch kind {
	case kvs.KindValue:
		// Read the value first and its TTL second, so the expiry class
		// written to the new owner reflects the *latest* of the two reads:
		// if the key expires in between, the TTL read returns TTLMissing
		// and the copy is skipped (a rebalance must never resurrect an
		// expired key); if a racing writer re-classifies the key (Set
		// clearing a lease, SetEx arming one), the copy lands with the
		// new class rather than a stale one — the reverse order could
		// stamp a just-persisted value with a long-dead lease and silently
		// delete it, or make a leased value immortal. The value itself may
		// still be one write stale under racing traffic, which is the
		// rebalancer's documented (and pre-existing) write-race semantics;
		// only the expiry class decides life and death, so it follows the
		// later read.
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
			// The remaining lifetime travels with the copy, so the new
			// owner's clock expires it at (its now + remaining) — clock
			// skew between shards shifts the deadline by at most the skew,
			// never into immortality.
			err = dst.SetEx(key, v, ttl)
		}
		if err != nil {
			return 0, err
		}
		return int64(len(v)), nil
	case kvs.KindSet:
		members, err := src.SMembers(key)
		if err != nil {
			return 0, err
		}
		var bytes int64
		for _, m := range members {
			if _, err := dst.SAdd(key, m); err != nil {
				return bytes, err
			}
			bytes += int64(len(m))
		}
		return bytes, nil
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
