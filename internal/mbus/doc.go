// Package mbus is the call table of Fig 1's message bus: it tracks the
// lifecycle of every asynchronous function call, so that chain_call /
// await_call / get_call_output (Table 2) can be implemented on top of it.
// The bus's transport half is not here: chained calls run through the
// CallTable, and work sharing between hosts through frt.Transport.
//
// # Concurrency model
//
//   - Striped: the CallTable is sharded 64 ways by call id. Ids are dense
//     (one atomic counter), so id&63 spreads concurrent calls evenly and
//     operations on different calls take different shard mutexes — there is
//     no table-wide lock on the invoke path.
//   - Targeted wakeups: each call carries its own completion channel.
//     Complete closes exactly that call's channel, waking only its waiters;
//     there is no shared condition variable and no broadcast that wakes
//     waiters of unrelated calls.
//   - Off the table entirely: the synchronous warm path. When the scheduler
//     places a call locally, frt.Instance.Call executes inline and never
//     creates a table entry — the CallTable only tracks asynchronous
//     (chained or shared) calls.
//   - One executor: Claim moves a call pending → running for exactly one of
//     its concurrent claimants, so a call that both a dispatch goroutine and
//     its awaiter try to run executes once.
//
// # Record lifetime
//
// Nothing lives in the table for ever. A guest's chained call is created
// with CreateOwned and deleted by the runtime when the chaining (parent)
// call returns, awaited or not. Delete discards a result, not work: an owned
// call nothing has claimed yet keeps its record, marked, until it has run, and
// Complete removes it. A call created from outside a guest (Create)
// stays readable after completion until CompletedRetention further
// completions evict it — a fixed count, enforced inline by Complete: no
// clock, no sweeper goroutine, nothing to tune. Pending and running records
// are never evicted, so Len is bounded by in-flight calls plus the window.
package mbus
