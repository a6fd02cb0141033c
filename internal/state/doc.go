// Package state implements the two-tier state architecture of §4: a local
// tier holding replicas of state values in shared memory segments (so
// co-located Faaslets access them in place, with zero copies), and a global
// tier — the distributed KVS — holding the authoritative value for every
// key.
//
// Faaslets write changes from the local to the global tier with a push and
// read from the global to the local tier with a pull. Values may be
// accessed in chunks: a pull of a byte range replicates only the covering
// chunks of the value into the local tier (Fig 4's state value C), which is
// how the SparseMatrix DDO avoids transferring whole matrices.
//
// Consistency follows §4.2: every state API function implicitly takes the
// value's local read or write lock (but direct pointer access does not),
// and strong cross-host consistency is available through the global
// lease-based locks exposed by LockGlobal/UnlockGlobal.
//
// # Concurrency model
//
//   - Read-shared registry: LocalTier's value registry is behind an
//     RWMutex. The hot path — Value lookups from concurrent Faaslets on one
//     host — takes the read lock and never serialises; only first-use
//     creation of a value takes the write lock.
//   - Per-value locks: each Value carries its own local read/write lock
//     (§4.2's local tier lock) plus a small mutex guarding the
//     chunk-presence bitmap; operations on different values never touch the
//     same lock.
//   - O(touched) pulls: a chunked pull coalesces the missing spans into
//     ranged global reads (one GetRanges batch) and
//     maintains a pulled-chunk counter, so completeness checks cost the
//     chunks touched, not a rescan of the whole bitmap.
//
// Global-tier operations (push, pull, global locks) are the only network
// costs; everything else is host-local memory.
package state
