// Package sched implements the distributed shared-state scheduler of §5.1.
// FAASM runs one local scheduler per runtime instance; the set of warm hosts
// for every function lives in the global state tier, and each scheduler
// queries and atomically updates that set while deciding — the
// Omega-style [71] shared-state design the paper adopts.
//
// The decision rule, verbatim from the paper: execute locally if this host
// has a warm Faaslet and capacity; otherwise share the call with another
// warm host if one exists; otherwise cold-start locally (and advertise this
// host as warm, which the next heartbeat publishes). The goal is
// co-locating functions with the state they need, minimising data shipping.
//
// # Concurrency model
//
// The hot path is engineered so that steady-state warm traffic performs
// zero global-tier operations and takes zero locks:
//
//   - Lock-free: the local warm check is a per-function atomic counter
//     (fnState.idle), capacity accounting is a single atomic
//     (Scheduler.inflight), the advertise transition is a store to
//     fnState.advertised, and the per-peer forwarding statistics (EWMA
//     latency, in-flight count) are atomics updated by CAS loops.
//   - Locked, but off the warm path: the cached peer warm set is guarded
//     by a tiny per-function mutex (fnState.cacheMu) that is only touched
//     when the local warm check misses.
//   - Off the critical path entirely: global-tier writes. The advertise
//     transition (first warm Faaslet appears) only sets a local flag; the
//     warm set sched/warm/<fn> is written by the background heartbeat at
//     lease cadence (LeaseTTL/3), which publishes every advertised
//     function, and by retreat (last Faaslet gone). A per-function lock
//     (fnState.pubMu), taken only by the beat's SAdd and by retreat, orders
//     the two so a retreat never leaves an entry behind. Reads are served
//     from a TTL cache (Cloudburst-style lazy refresh) and refresh at most
//     once per PeerCacheTTL per function; a cold miss pays that one read
//     and no write.
//
// # Advert staleness
//
// A host's new warm function is visible to peers within one beat
// (LeaseTTL/3, 3.3 s by default) of the advertise transition. A peer that
// holds a cached non-empty peer set for the function may take up to
// PeerCacheTTL more. Until then a peer's miss cold-starts the function on
// its own host: staleness costs a peer one cold start, never a failed
// call.
//
// # Peer liveness
//
// Warm-set entries are leases, and the lease clock is the tier's. Every
// host maintains a presence record sched/alive/<host> in the global tier,
// written with SetEx — a tier-side TTL primitive — by the heartbeat loop at
// LeaseTTL/3, before the beat's warm-set writes. The tier
// judges expiry on its own clock and hides an expired record from reads, so
// a peer-cache refresh is a batched existence check (one MGet over the
// listed hosts' lease keys): a record that comes back means alive, nil
// means dead. No timestamp is stored, parsed or compared against any local
// clock anywhere on this path, which makes liveness immune to clock skew
// between hosts — a cluster whose machines disagree by far more than the
// lease TTL neither falsely evicts live hosts nor retains dead ones (the
// previous design stamped the writer's expiry instant and judged it on the
// observer's clock, which broke under skew greater than the TTL).
//
// A crashed host stops receiving forwards within one lease TTL plus one
// peer-cache TTL even though its warm-set entries linger. The observer also
// best-effort-removes the dead host's warm entry and the heartbeat
// re-asserts live hosts' entries each beat, so the global set itself heals
// in both directions: dead hosts are evicted by their peers, and a live
// host that was wrongly evicted (e.g. a long GC pause outlasted its lease)
// reappears at the next beat.
//
// # Weighted forwarding
//
// Forwarding picks the peer with the lowest load-adjusted latency score:
// an EWMA of observed forward round-trips (fed by ForwardBegin/ForwardEnd
// around the transport call) scaled by the peer's in-flight forward count.
// Peers that have never been probed are explored first, round-robin, so
// the scheduler degrades exactly to the previous round-robin behaviour
// when it has no observations; a failed forward multiplies the peer's
// score so traffic drains from flaky hosts before liveness expires them.
package sched
