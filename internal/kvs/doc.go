// Package kvs implements the global state tier (§4.2): a Redis-like
// in-memory key-value store holding the authoritative value for every state
// key, plus the auxiliary structures the runtime needs — sets for the
// scheduler's warm-host bookkeeping and lease-based global read/write locks
// for strong consistency.
//
// The engine can be reached three ways, matching the deployment modes of the
// repo: direct (in-process, for unit tests), over TCP with a small line
// protocol (real distributed mode, see Server/Client), and through the
// cluster simulator's accounting client which charges transferred bytes to
// the simulated network (see internal/cluster). The wire protocol is one
// command table (protocol.go): each row names a command, its argument
// shapes, whether the client may replay it and whether it may block, and
// its server handler; Server and Client both work from it.
//
// # Concurrency model
//
//   - Striped: the Engine spreads the key space over 64 lock stripes
//     (FNV-1a on the key); operations on keys in different stripes never
//     contend. Stripes are RWMutexes — reads share the read lock, so a
//     read-heavy key set scales with cores.
//   - Separately striped: the lease-lock table. Global state locks
//     (Lock/Unlock) live on their own stripe array, so lock traffic from
//     §4.2's consistency protocol does not contend with data operations on
//     unrelated keys.
//   - Batched: there is one Store interface and every store implements
//     all of it, batch forms (MGet/MSet/GetRangesInto) and enumeration
//     (AllKeys) included, so callers never probe for optional support.
//     With the pipelined wire commands (MGET/MSET/GETRANGES) a batch
//     moves N keys in one exchange — one network round trip and at most one
//     stripe acquisition per key, never a global pause.
//   - Tier-judged expiry: SetEx/TTL give keys a lifetime measured
//     on the engine's own clock (SetNowFunc overrides it for tests and
//     simulated clusters). Reads check the per-stripe deadline map lazily —
//     an expired key is simply invisible, at zero cost when a stripe has no
//     expiring keys — so correctness never depends on collection. The
//     scheduler's liveness leases ride on this: clients never compare a
//     stored deadline against their own clock.
//
// One thing runs in the background: the expiry sweeper, a self-rescheduling
// timer (cadence SetSweepInterval, default DefaultSweepInterval) that
// physically deletes expired entries so they don't pin memory. It is armed
// only while deadlines exist — an engine with no expiring keys does no
// background work — and it only bounds memory, never visibility. Every
// other cost is paid by the calling operation.
package kvs
