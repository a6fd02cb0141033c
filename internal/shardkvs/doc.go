// Package shardkvs scales the global state tier horizontally. The paper
// backs every host's local tier with a single Redis-like store (§4.2); one
// engine is the ceiling on cluster-wide state throughput. Ring shards the
// key space across N nodes with a consistent-hash ring (virtual nodes, as in
// Dynamo/Cassandra), so the tier grows by adding nodes instead of growing
// one node.
//
// Ring implements the full kvs.Store interface: every operation routes to
// the owning shard, lease locks included (a key's lock lives on its primary,
// so lock semantics are exactly one engine's semantics). Tier-side expiry
// routes the same way: SetEx/MSetEx fan out to primary and replicas like any
// write, TTL reads the primary (the authority for a key's lifetime), and the
// rebalancer carries each key's remaining TTL with its bytes — enumeration
// skips expired keys and the copy re-checks the TTL, so a resize can never
// resurrect a key the tier already expired. Replication factor R places each
// key on the R distinct nodes clockwise from its hash. Nodes join and leave
// at runtime: the rebalancer streams only the hash ranges whose ownership
// changed, never the whole keyspace.
//
// # Concurrency model
//
//   - Lock-free routing: ownership lookups hash the key onto an immutable
//     ring snapshot; only membership changes (Join/Leave) rebuild it.
//   - Parallel fan-out: a replicated write goes to all R copies
//     concurrently — it costs the slowest copy, not R serial writes. Batched
//     operations (MGet/MSet/MSetEx/GetRanges) group their keys by owning shard and issue
//     one batch per shard, shards in parallel.
//   - Per-key write fence: concurrent writers to the same key through one
//     ring instance are ordered by a small fence, so an error-free write
//     leaves all R copies identical; writers on different ring instances
//     coordinate through the kvs global lock (the paper's §4.2 recipe).
//
// # Failure handling
//
// The ring survives shard failure rather than surfacing it. A write needs
// only Options.WriteQuorum acknowledgements (0 = all copies, the strict
// historical behaviour); copies that miss a write are marked suspect and
// counted as divergence. With Options.ReadFailover, reads skip suspect
// copies and fall through to in-sync ones on unavailability errors
// (kvs.IsUnavailable — semantic errors still surface immediately). Heal
// probes suspect shards, rewrites every entry they own from an in-sync
// holder (read-repair), and clears the mark; HealInterval runs it on a
// cadence. The durability contract with W<R: a write acknowledged only by
// copies that all later crash is dropped by repair.
//
// Consistency notes: replica fan-out is synchronous (read-your-writes
// everywhere). Membership changes (Join/Leave) serialise against each other
// and coordinate with in-flight writes: per-key fences order each copy
// against the migrating stream, and a double-write window routes writes to
// the union of old and new owners until the new ring commits, so a write
// racing a resize can neither be stranded on the old owner nor missed by
// the new one. Reads stay on the committed ring throughout.
package shardkvs
