// Package sched implements the distributed shared-state scheduler of §5.1.
// FAASM runs one local scheduler per runtime instance; the set of warm hosts
// for every function lives in the global state tier, where each scheduler
// publishes its own part and reads its peers' — the Omega-style [71]
// shared-state design the paper adopts.
//
// The decision rule, verbatim from the paper: execute locally if this host
// has a warm Faaslet and capacity; otherwise share the call with another
// warm host if one exists; otherwise cold-start locally (and advertise this
// host as warm, which the next heartbeat publishes). The goal is
// co-locating functions with the state they need, minimising data shipping.
//
// # Concurrency model
//
// A decision performs zero global-tier operations and takes zero locks,
// warm or cold:
//
//   - Lock-free: the local warm check is a per-function atomic counter
//     (fnState.idle), capacity accounting is a single atomic
//     (Scheduler.inflight), the advertise transition and Retreat are stores
//     to fnState.advertised, and the per-peer forwarding statistics (EWMA
//     latency, in-flight count) are atomics updated by CAS loops.
//   - A cold miss reads the view: an immutable function → warm peers map,
//     published through an atomic pointer by the last beat.
//   - Off the critical path entirely: every global-tier operation. The
//     background heartbeat, every LeaseTTL/3, writes this host's lease
//     sched/alive/<host> (the liveness marker plus one "<fn> <resident
//     bytes>" line per advertised function), joins the membership set
//     sched/hosts when the set does not name the host yet, reads every
//     peer's lease in one MGet, removes members whose lease is gone (only
//     if it lists functions itself), and publishes a new view. That is one SetEx, one SMembers and at most one
//     MGet per beat, however many functions are warm. Beats, and Drain's
//     lease deletion, are ordered by one lock (Scheduler.beatMu) that no
//     decision takes.
//
// # Advert staleness
//
// A host's new warm function reaches a peer's view within two beats
// (2·LeaseTTL/3, 6.7 s by default): the host's next beat lists it, and the
// peer's next beat after that reads it. A retreat leaves peers' views
// within two beats the same way. Until then a peer's miss cold-starts the
// function on its own host, or forwards to a host that no longer has it
// and falls back locally: staleness costs a cold start or a local
// fallback, never a failed call. A host that advertises nothing writes no
// lease, but its beat still refreshes its view.
//
// # Peer liveness
//
// The lease clock is the tier's. Every lease is written with SetEx — a
// tier-side TTL primitive — so the tier judges expiry on its own clock and
// hides an expired record from reads: a record that comes back means
// alive, nil means dead. No timestamp is stored, parsed or compared
// against any local clock anywhere on this path, which makes liveness
// immune to clock skew between hosts — a cluster whose machines disagree
// by far more than the lease TTL neither falsely evicts live hosts nor
// retains dead ones (the previous design stamped the writer's expiry
// instant and judged it on the observer's clock, which broke under skew
// greater than the TTL).
//
// A crashed host leaves every peer's view within one lease TTL plus one
// beat. A listing peer that finds the lease gone also removes the host from
// sched/hosts; a host that lists nothing never removes a member, because it
// may see only part of the tier (a shard daemon's runtime beats on the one
// engine it serves). A beat re-joins a live host the set does not name, so
// the set heals in both directions: dead hosts are evicted by their peers,
// and a live host that was wrongly evicted (e.g. a long GC pause outlasted
// its lease) is back one beat later. A draining host deletes its lease
// before Drain returns, so no view built afterwards names it.
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
