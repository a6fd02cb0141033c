// Package frt implements the FAASM runtime instance of §5: the server-side
// component that manages a pool of Faaslets, schedules and executes function
// calls (locally or by sharing them with warm peers), implements the
// chaining half of the host interface, and generates/restores Proto-Faaslet
// snapshots to minimise cold-start latency.
//
// Multiple instances — one per host — form the distributed runtime of
// Fig 5: each has a local scheduler, a Faaslet pool, a slice of the local
// state tier, and a sharing path to its peers.
//
// # Concurrency model
//
// The invocation hot path is engineered to scale with cores:
//
//   - Lock-free: each deployed function is one record — definition,
//     Proto-Faaslet and warm pool — in a sync.Map; an invoke loads it with
//     no lock, and deploy swaps in a new record under regMu, at a cost that
//     does not grow with the number of functions deployed. Live Faaslet
//     accounting is a single atomic.
//   - Striped by function: the warm pool is a per-function structure
//     (fnPool), so acquire and release for different functions never touch
//     the same mutex; within one function the critical sections are a
//     slice push/pop plus counter updates.
//   - Off the critical path: the post-call Faaslet reset (§5.2's
//     Proto-Faaslet restore that discards all guest residue) runs on
//     background resetter goroutines bounded by a GOMAXPROCS-wide
//     semaphore — the caller's response returns as soon as execution
//     finishes, and the pool only ever hands out fully reset Faaslets
//     (an acquire that races an in-flight reset waits for it). The
//     scheduler's liveness heartbeat and the elastic pool controller are
//     background goroutines too; neither ever runs inside a call.
//
// # Faaslet and call-record lifecycle
//
// Deployment builds a function's Proto-Faaslet: RegisterDef runs core.New
// once and keeps its image, GenerateProto replaces it with a snapshot taken
// after init code, FetchProto with a peer's. DeployObject files the image
// under the upload's content key, and every name deployed from that key
// shares it (a per-name view, core.Proto.For) until the last one leaves.
// Every cold start restores the record's image (core.NewFromProto), sharing
// its clean pages, and a pooled Faaslet is reset in place
// (core.Faaslet.Reset): its memory and VM instance are restored from that
// image, not rebuilt. A redeploy keeps the pool but not the old image's
// Faaslets: deploy evicts the idle ones, and acquire and release discard the
// rest.
//
// An asynchronous call is executed by whoever claims its record first
// (mbus.CallTable.Claim): the dispatch goroutine Invoke/Chain spawned, or
// the goroutine that Awaits it, which then runs it inline instead of
// sleeping on work nobody has started. A guest's chained calls are owned by
// the guest's own call: executeLocal deletes their records when it returns.
// Records of calls invoked from outside a guest live for the call table's
// fixed retention window.
//
// # Elastic warm pools
//
// PoolCap bounds each function's warm pool; by default the pool grows only
// organically (a Faaslet is created when a call finds the pool empty) and
// never shrinks. With Config.ElasticPool, a background controller watches
// per-function demand — acquire counts and pool-empty misses — and (a)
// grows the pool ahead of demand by pre-provisioning twice the observed
// misses (a constant, poolGrowFactor) per tick, so ramping load stops
// paying cold starts on the critical path, and (b) shrinks idle pools after
// PoolIdleTimeout, halving the idle set per controller tick and feeding
// every eviction through sched.NoteEvicted/Retreat so the global warm set
// stays truthful as capacity drains.
package frt
