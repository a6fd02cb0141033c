// Package shardkvs scales the global state tier horizontally. The paper
// backs every host's local tier with a single Redis-like store (§4.2); one
// engine is the ceiling on cluster-wide state throughput. Ring shards the
// key space across N nodes with a consistent-hash ring (virtual nodes, as in
// Dynamo/Cassandra). A ring's shards are fixed when it is built (New,
// NewLocal, AttachRemote): like the paper's global tier, nothing reshards
// while it runs, and building a ring moves no data.
//
// Ring implements the full kvs.Store interface: every operation routes to
// the owning shard, lease locks included (a key's lock lives on its primary,
// so lock semantics are exactly one engine's semantics). Tier-side expiry
// routes the same way: SetEx fans out to primary and replicas like any
// write, and TTL reads the primary (the authority for a key's lifetime).
// Replication factor R places each key on the R distinct nodes clockwise
// from its hash.
//
// # Concurrency model
//
//   - Lock-free routing: ownership lookups hash the key onto the ring's
//     points, which are read-only after construction.
//   - Parallel fan-out: a replicated write goes to all R copies
//     concurrently — it costs the slowest copy, not R serial writes. Batched
//     operations (MGet/MSet/GetRangesInto) group their keys by owning shard
//     and issue one batch per shard, shards in parallel.
//   - Per-key write fence: concurrent writers to the same key through one
//     ring instance are ordered by a small fence, so an error-free write
//     leaves all R copies identical, and Heal's per-key repair takes the
//     same fence; writers on different ring instances coordinate through the
//     kvs global lock (the paper's §4.2 recipe).
//
// # Failure handling
//
// The ring survives shard failure rather than surfacing it. A write needs
// only Options.WriteQuorum acknowledgements (0 = all copies, the strict
// historical behaviour); copies that miss a write are marked suspect and
// counted as divergence. Reads skip suspect copies and fall through to
// in-sync ones on unavailability errors (kvs.IsUnavailable — semantic errors
// still surface immediately); with R = 1 there is no other copy, so the
// error surfaces. Heal probes suspect shards, rewrites every entry they own
// from an in-sync holder (read-repair) — each key's remaining TTL travels
// with its bytes, so a repair never resurrects an expired key or re-arms a
// lease — and clears the mark; HealInterval runs it on a cadence. The
// durability contract with W<R: a write acknowledged only by copies that
// all later crash is dropped by repair.
//
// Consistency notes: replica fan-out is synchronous (read-your-writes
// everywhere).
package shardkvs
