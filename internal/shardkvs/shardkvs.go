package shardkvs

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/obsv"
)

// ReadPref selects which owner serves reads.
type ReadPref int

// Read preferences.
const (
	// ReadPrimary always reads the key's primary: strongest consistency,
	// no read scaling.
	ReadPrimary ReadPref = iota
	// ReadAny round-robins reads across the primary and its replicas,
	// spreading hot-key read load over R nodes.
	ReadAny
)

// Options tunes a ring.
type Options struct {
	// Replication is the copies kept per key (clamped to the node count).
	// 0 or 1 means primary-only.
	Replication int
	// ReadPref selects the read routing policy.
	ReadPref ReadPref
	// WriteQuorum is how many copies must acknowledge a replicated write
	// (clamped to the copy count; 0 means every copy — the strictest, and
	// the historical, semantics). With W < R a write succeeds while up to
	// R−W copies are down; the failed copies are marked suspect, dropped
	// from the read set, and re-synced by Heal when they return.
	WriteQuorum int
	// HealInterval, when positive, runs Heal on a background loop so
	// suspect shards are probed and re-synced without operator action.
	// 0 (default) leaves healing to explicit Heal calls — deterministic
	// for tests. Close stops the loop.
	HealInterval time.Duration
	// NewStore, when set, builds the store for each endpoint AttachRemote
	// attaches (nil = kvs.NewClient with defaults). faasmd uses it to hand
	// every shard client its dial timeout and retry policy.
	NewStore func(addr string) kvs.Store
}

// Shard is one member of a ring: its id on the hash circle and the store
// that holds its keys.
type Shard struct {
	ID    string
	Store kvs.Store
}

// node is one shard: an id on the ring plus the store that holds its keys,
// and the ring's local view of its health.
type node struct {
	id    string
	store kvs.Store
	// inproc marks an in-process engine shard, whose operations are pure
	// CPU work. Fan-out parallelism is pointless for those on a single-CPU
	// host (see spawnFanOut).
	inproc bool

	// suspect marks a copy that failed an operation with an unavailability
	// error and has not been re-synced since. Suspect copies are skipped by
	// reads (their data may be stale: writes keep succeeding on the other
	// copies while a node is down) but still attempted by writes — a write
	// that lands on a suspect node shrinks, never grows, the repair. Only
	// Heal clears the mark, after re-syncing the node's keys.
	suspect  atomic.Bool
	failures atomic.Int64
	// downSince is the wall time (UnixNano) of the suspect marking.
	downSince atomic.Int64
}

func newNode(id string, store kvs.Store) *node {
	_, inproc := store.(*kvs.Engine)
	return &node{id: id, store: store, inproc: inproc}
}

// spawnFanOut reports whether ops against the given nodes should fan out on
// goroutines. Spawning is the default — replica writes and per-shard
// batches then cost the slowest target instead of the sum — except when it
// cannot possibly help: on a single-CPU host, in-process engine shards are
// CPU-bound memory ops, so goroutines only add scheduling overhead to every
// write. Remote shards always fan out; their round trips park on I/O and
// overlap even on one CPU.
func spawnFanOut(nodes []*node) bool {
	// GOMAXPROCS, not NumCPU: a 1-proc cap on a multi-core host still means
	// goroutines cannot run in parallel.
	if runtime.GOMAXPROCS(0) > 1 {
		return true
	}
	for _, n := range nodes {
		if !n.inproc {
			return true
		}
	}
	return false
}

// point is one virtual node position on the hash circle.
type point struct {
	hash uint64
	id   string
}

// Ring routes kvs.Store operations across shard nodes. Its shards are fixed
// when it is built: ids, nodes and points are read-only afterwards, so
// routing takes no lock.
type Ring struct {
	opts Options

	ids    []string // sorted
	nodes  map[string]*node
	points []point // sorted by hash

	// healMu serialises Heal (the background loop against explicit calls).
	healMu sync.Mutex

	rr atomic.Uint64 // read round-robin cursor

	// reads/writes count routed operations (a multi-key op counts once per
	// key) for the metrics exposition.
	reads  atomic.Int64
	writes atomic.Int64

	// Failure-handling counters (see Instrument for the exported series).
	failovers  atomic.Int64 // reads served by a fallback copy
	divergence atomic.Int64 // writes whose copies may disagree
	repairs    atomic.Int64 // suspect nodes re-synced back into service
	suspects   atomic.Int64 // nodes currently suspect

	// healStop terminates the HealInterval loop, if one was started.
	healStop chan struct{}
	healOnce sync.Once

	// writeStripes serialise writes per key: a replicated write must commit
	// in the same order on every copy or the copies diverge permanently,
	// and Heal's per-key repair takes the same stripe so a racing write can
	// never interleave with a key's re-sync. Fencing is unconditional and
	// costs one uncontended mutex on the healthy path.
	writeStripes [64]sync.Mutex
}

// FailureStats is a snapshot of the ring's failure-handling counters — the
// same series Instrument exports as faasm_shardkvs_failovers_total and
// friends; tests and the chaos experiment read them directly.
type FailureStats struct {
	// Failovers is reads served by a fallback copy.
	Failovers int64
	// Divergence is writes acknowledged by some copies but not others.
	Divergence int64
	// Repairs is suspect nodes re-synced back into service.
	Repairs int64
	// Suspects is nodes currently suspect.
	Suspects int64
}

// FailureStats snapshots the failure-handling counters.
func (r *Ring) FailureStats() FailureStats {
	return FailureStats{
		Failovers:  r.failovers.Load(),
		Divergence: r.divergence.Load(),
		Repairs:    r.repairs.Load(),
		Suspects:   r.suspects.Load(),
	}
}

// Instrument registers the ring's op counters and shard gauge with reg, plus
// each in-process engine shard's own expiry/key-space metrics (remote shards
// are skipped: their metrics belong to the process that owns them).
func (r *Ring) Instrument(reg *obsv.Registry) {
	none := map[string]string(nil)
	reg.CounterFunc("faasm_shardkvs_reads_total", "reads routed through the ring", none, r.reads.Load)
	reg.CounterFunc("faasm_shardkvs_writes_total", "writes routed through the ring", none, r.writes.Load)
	reg.CounterFunc("faasm_shardkvs_failovers_total", "reads served by a fallback copy after the chosen shard failed", none, r.failovers.Load)
	reg.CounterFunc("faasm_shardkvs_replica_divergence_total", "writes acknowledged by some copies but not others, so copies may disagree until repair", none, r.divergence.Load)
	reg.CounterFunc("faasm_shardkvs_repairs_total", "suspect shards re-synced and returned to the read set", none, r.repairs.Load)
	reg.GaugeFunc("faasm_shardkvs_suspect_shards", "shard nodes currently marked suspect and excluded from reads", none, r.suspects.Load)
	shards := int64(len(r.nodes))
	reg.GaugeFunc("faasm_shardkvs_shards", "shard nodes attached to the ring", none, func() int64 { return shards })
	for id, n := range r.nodes {
		if eng, ok := n.store.(*kvs.Engine); ok {
			eng.Instrument(reg, id)
		}
	}
}

// New builds a ring over shards, which it keeps for its lifetime. It rejects
// an empty shard list and duplicate ids. Building a ring moves no data —
// connecting a client must never mutate tier data.
func New(opts Options, shards ...Shard) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shardkvs: no shards")
	}
	if opts.Replication <= 0 {
		opts.Replication = 1
	}
	r := &Ring{opts: opts, nodes: make(map[string]*node, len(shards))}
	for _, s := range shards {
		if _, dup := r.nodes[s.ID]; dup {
			return nil, fmt.Errorf("shardkvs: duplicate shard %q", s.ID)
		}
		r.nodes[s.ID] = newNode(s.ID, s.Store)
		r.ids = append(r.ids, s.ID)
	}
	sort.Strings(r.ids)
	r.points = buildPoints(r.ids)
	if opts.HealInterval > 0 {
		r.healStop = make(chan struct{})
		go r.healLoop(opts.HealInterval)
	}
	return r, nil
}

// NewLocal builds a ring of n in-process engines named shard-0..shard-n-1;
// the cluster harness and tests use this form. It panics if n < 1.
func NewLocal(n int, opts Options) *Ring {
	shards := make([]Shard, n)
	for i := range shards {
		shards[i] = Shard{fmt.Sprintf("shard-%d", i), kvs.NewEngine()}
	}
	r, err := New(opts, shards...)
	if err != nil {
		panic(err)
	}
	return r
}

// AttachRemote builds a ring of TCP clients attached to an existing tier at
// the given endpoints. Each node is named by its endpoint address, so every
// client given the same endpoint set — in any order — routes keys
// identically. Close the ring to release the connections.
func AttachRemote(endpoints []string, opts Options) (*Ring, error) {
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("shardkvs: no endpoints")
	}
	shards := make([]Shard, len(endpoints))
	for i, addr := range endpoints {
		shards[i] = Shard{ID: addr}
		if opts.NewStore != nil {
			shards[i].Store = opts.NewStore(addr)
		} else {
			shards[i].Store = kvs.NewClient(addr)
		}
	}
	r, err := New(opts, shards...)
	if err != nil {
		closeStores(shards)
		return nil, err
	}
	return r, nil
}

// SplitEndpoints parses a comma-separated endpoint list, dropping empties;
// faasmd and faasm-cli share it so both parse -state identically.
func SplitEndpoints(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// Close stops the heal loop (if any) and releases node stores that hold
// resources (TCP clients).
func (r *Ring) Close() error {
	if r.healStop != nil {
		r.healOnce.Do(func() { close(r.healStop) })
	}
	shards := make([]Shard, 0, len(r.nodes))
	for _, id := range r.ids {
		shards = append(shards, Shard{id, r.nodes[id].store})
	}
	return closeStores(shards)
}

// closeStores closes every store that holds resources, returning the first
// error.
func closeStores(shards []Shard) error {
	var firstErr error
	for _, s := range shards {
		if c, ok := s.Store.(io.Closer); ok {
			if err := c.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	// FNV-1a mixes the low bits well but avalanches poorly into the high
	// bits for short inputs, which skews ring placement (arcs are compared
	// on the full 64-bit value). A murmur3-style finaliser fixes that.
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// virtualNodes is the ring points per node. More points smooth the key
// distribution at the cost of a larger points table.
const virtualNodes = 64

func buildPoints(ids []string) []point {
	pts := make([]point, 0, len(ids)*virtualNodes)
	for _, id := range ids {
		for v := 0; v < virtualNodes; v++ {
			pts = append(pts, point{hashKey(fmt.Sprintf("%s#%d", id, v)), id})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].hash < pts[j].hash })
	return pts
}

// searchPoints finds the first ring position at or clockwise of the key's
// hash.
func searchPoints(points []point, key string) int {
	h := hashKey(key)
	start := sort.Search(len(points), func(i int) bool { return points[i].hash >= h })
	return start % len(points)
}

// ownersOn walks clockwise from the key's hash collecting the first R
// distinct node ids. R is small, so a linear dedupe scan beats a map.
func ownersOn(points []point, key string, replication int) []string {
	if len(points) == 0 {
		return nil
	}
	start := searchPoints(points, key)
	out := make([]string, 0, replication)
walk:
	for i := 0; i < len(points) && len(out) < replication; i++ {
		id := points[(start+i)%len(points)].id
		for _, o := range out {
			if o == id {
				continue walk
			}
		}
		out = append(out, id)
	}
	return out
}

// Owners reports the node ids holding key, primary first (diagnostics and
// tests).
func (r *Ring) Owners(key string) []string {
	return ownersOn(r.points, key, r.opts.Replication)
}

// HealthyOwners is Owners with suspect shards removed: a shard the failure
// detector currently doubts must not be advertised as data residency, or
// the scheduler would steer functions toward data that reads are failing
// over away from. Order is preserved, so index 0 — when present — is the
// healthy primary.
func (r *Ring) HealthyOwners(key string) []string {
	ids := ownersOn(r.points, key, r.opts.Replication)
	out := ids[:0]
	for _, id := range ids {
		if n := r.nodes[id]; n != nil && !n.suspect.Load() {
			out = append(out, id)
		}
	}
	return out
}

// route resolves the stores owning key: primary plus replicas. The
// unreplicated hot path does no allocation — routing must stay far cheaper
// than the shard op itself.
func (r *Ring) route(key string) (*node, []*node) {
	if r.opts.Replication == 1 {
		return r.nodes[r.points[searchPoints(r.points, key)].id], nil
	}
	ids := ownersOn(r.points, key, r.opts.Replication)
	primary := r.nodes[ids[0]]
	if len(ids) == 1 {
		return primary, nil
	}
	replicas := make([]*node, len(ids)-1)
	for i, id := range ids[1:] {
		replicas[i] = r.nodes[id]
	}
	return primary, replicas
}

// writeFence serialises writes to one key across this ring instance, and
// orders them against Heal's per-key repair (which takes the same stripe).
// Replicated writes need the ordering so copies cannot commit concurrent
// Sets in opposite orders and diverge permanently; a repair needs it so a
// racing update cannot land between its read and its copy.
// Writers from other ring instances are not ordered — cross-client writes
// to one key need the kvs global lock, exactly as the paper's §4.2
// consistent-write recipe prescribes.
func (r *Ring) writeFence(key string) func() {
	m := &r.writeStripes[hashKey(key)&63]
	m.Lock()
	return m.Unlock
}

// quorum resolves Options.WriteQuorum against the actual copy count of one
// write.
func (r *Ring) quorum(copies int) int {
	w := r.opts.WriteQuorum
	if w <= 0 || w > copies {
		return copies
	}
	return w
}

// noteFailure records an unavailability error against a node, marking it
// suspect so reads skip it until Heal re-syncs it. Semantic errors are not
// health signals — a live shard rejecting a bad TTL is healthy.
func (r *Ring) noteFailure(n *node, err error) {
	if !kvs.IsUnavailable(err) {
		return
	}
	n.failures.Add(1)
	if n.suspect.CompareAndSwap(false, true) {
		n.downSince.Store(time.Now().UnixNano())
		r.suspects.Add(1)
	}
}

// clearSuspect returns a repaired node to the read set.
func (r *Ring) clearSuspect(n *node) {
	if n.suspect.CompareAndSwap(true, false) {
		r.suspects.Add(-1)
		r.repairs.Add(1)
	}
}

// writeVal applies op to every copy of key — primary and replicas — in
// parallel, so a replicated write costs the slowest copy instead of the sum
// over R copies. The write fence keeps
// concurrent writers to one key ordered identically on every copy, so
// parallelism cannot diverge an error-free write.
//
// Quorum semantics: the write succeeds when at least W copies acknowledge
// (Options.WriteQuorum; default all). The returned value is the primary's
// when it acked, else the first acking copy's. Copies that failed with
// unavailability are marked suspect — reads skip them and Heal re-syncs
// them — and a partial acknowledgement increments the divergence counter,
// because until repair the copies may disagree.
//
// Error semantics below quorum: the error aggregates every copy's failure
// (errors.Join), not just the first, so a diagnosing operator sees which
// copies refused and why. A failed write remains indeterminate — some
// copies may have applied it — so callers retry it (Set/SetRange replays
// converge every copy) or run Heal to re-converge. (A package function
// because methods cannot take type parameters.)
func writeVal[T any](r *Ring, key string, op func(s kvs.Store) (T, error)) (T, error) {
	r.writes.Add(1)
	defer r.writeFence(key)()
	primary, extras := r.route(key)
	if len(extras) == 0 {
		v, err := op(primary.store)
		if err != nil {
			r.noteFailure(primary, err)
		}
		return v, err
	}
	copies := 1 + len(extras)
	w := r.quorum(copies)
	results := make([]T, copies)
	errs := make([]error, copies)
	apply := func(i int, n *node) {
		results[i], errs[i] = op(n.store)
		if errs[i] != nil {
			r.noteFailure(n, errs[i])
			errs[i] = fmt.Errorf("shardkvs: copy %s: %w", n.id, errs[i])
		}
	}
	if !spawnFanOut(extras) {
		apply(0, primary)
		if errs[0] != nil && w == copies {
			// Strict quorum cannot be met anymore; preserve the inline
			// path's stricter primary-first order and stop here.
			var zero T
			return zero, errs[0]
		}
		for i, n := range extras {
			apply(i+1, n)
		}
	} else {
		var wg sync.WaitGroup
		for i, n := range extras {
			wg.Add(1)
			go func(i int, n *node) {
				defer wg.Done()
				apply(i, n)
			}(i+1, n)
		}
		apply(0, primary)
		wg.Wait()
	}
	acks := 0
	for _, e := range errs {
		if e == nil {
			acks++
		}
	}
	if acks > 0 && acks < copies {
		r.divergence.Add(1)
	}
	if acks >= w {
		for i, e := range errs {
			if e == nil {
				return results[i], nil
			}
		}
	}
	var zero T
	return zero, errors.Join(errs...)
}

// write is writeVal for operations without a result.
func (r *Ring) write(key string, op func(s kvs.Store) error) error {
	_, err := writeVal(r, key, func(s kvs.Store) (struct{}, error) {
		return struct{}{}, op(s)
	})
	return err
}

// readNode picks the owner that serves a read of key, skipping suspect
// copies (their data may be stale — a down node missed writes that the
// surviving copies acknowledged). If every copy is suspect the primary is
// returned anyway: a desperate read beats no read.
func (r *Ring) readNode(key string) *node {
	r.reads.Add(1)
	primary, replicas := r.route(key)
	if len(replicas) == 0 {
		return primary
	}
	if r.opts.ReadPref == ReadPrimary {
		if primary.suspect.Load() {
			for _, rep := range replicas {
				if !rep.suspect.Load() {
					// Served by a fallback copy: count it, so the failover
					// series reflects suspect-skips as well as live fall-throughs.
					r.failovers.Add(1)
					return rep
				}
			}
		}
		return primary
	}
	// Modulo in uint64: a signed conversion first would eventually go
	// negative and index out of range.
	total := 1 + len(replicas)
	start := int(r.rr.Add(1) % uint64(total))
	for i := 0; i < total; i++ {
		var n *node
		if idx := (start + i) % total; idx == 0 {
			n = primary
		} else {
			n = replicas[idx-1]
		}
		if !n.suspect.Load() {
			if i > 0 {
				// The round-robin pick was suspect; this read is served by a
				// fallback copy.
				r.failovers.Add(1)
			}
			return n
		}
	}
	return primary
}

// readVal serves one single-key read with failover: the chosen node first;
// if it fails with an unavailability error the read falls through the
// remaining in-sync copies, marking failed nodes suspect as it goes. With
// R = 1 there is no other copy and the error surfaces. Semantic errors
// surface immediately — a live shard's rejection is the answer, not an
// outage. (A package function because methods cannot take type parameters.)
func readVal[T any](r *Ring, key string, op func(s kvs.Store) (T, error)) (T, error) {
	n := r.readNode(key)
	v, err := op(n.store)
	if err == nil {
		return v, nil
	}
	r.noteFailure(n, err)
	if !kvs.IsUnavailable(err) {
		return v, err
	}
	primary, replicas := r.route(key)
	for i := 0; i < 1+len(replicas); i++ {
		cand := primary
		if i > 0 {
			cand = replicas[i-1]
		}
		if cand == n || cand.suspect.Load() {
			continue
		}
		r.failovers.Add(1)
		v, ferr := op(cand.store)
		if ferr == nil {
			return v, nil
		}
		r.noteFailure(cand, ferr)
		if !kvs.IsUnavailable(ferr) {
			return v, ferr
		}
		err = ferr
	}
	var zero T
	return zero, err
}

// Get implements kvs.Store.
func (r *Ring) Get(key string) ([]byte, error) {
	return readVal(r, key, func(s kvs.Store) ([]byte, error) { return s.Get(key) })
}

// Set implements kvs.Store.
func (r *Ring) Set(key string, val []byte) error {
	return r.write(key, func(s kvs.Store) error { return s.Set(key, val) })
}

// setExRemaining converts one absolute deadline into the TTL a copy should
// arm right now, clamped to a millisecond minimum: a fan-out that outlives
// the lease still arms an immediately-expiring deadline rather than turning
// a valid SetEx into a semantic error halfway through its copies.
func setExRemaining(deadline time.Time) time.Duration {
	rem := time.Until(deadline)
	if rem < time.Millisecond {
		rem = time.Millisecond
	}
	return rem
}

// SetEx implements kvs.Store: the expiring write lands on the key's primary
// and fans out to its replicas in parallel like any other write. The ring
// computes the absolute deadline once and hands each copy the *remaining*
// TTL at the moment its write issues, so replica deadlines skew only by
// inter-shard clock delta — not by fan-out latency, which on a slow path
// used to extend a replica's lease by the whole fan-out. TTL reads still
// route to the primary as the lifetime authority.
func (r *Ring) SetEx(key string, val []byte, ttl time.Duration) error {
	if ttl <= 0 {
		// Validate before computing a deadline: a non-positive ttl must be
		// rejected, not clamped into a 1ms lease.
		return fmt.Errorf("shardkvs: setex ttl must be positive, got %v", ttl)
	}
	deadline := time.Now().Add(ttl)
	return r.write(key, func(s kvs.Store) error { return s.SetEx(key, val, setExRemaining(deadline)) })
}

// TTL implements kvs.Store, preferring the primary: the primary's clock is
// the authority for a key's lifetime. A suspect or unreachable primary falls
// through to a replica — its deadline can skew by the inter-shard clock
// delta, which beats refusing liveness judgements while a shard restarts.
func (r *Ring) TTL(key string) (time.Duration, error) {
	primary, replicas := r.route(key)
	n := primary
	if primary.suspect.Load() {
		for _, rep := range replicas {
			if !rep.suspect.Load() {
				n = rep
				break
			}
		}
	}
	r.reads.Add(1)
	d, err := n.store.TTL(key)
	if err == nil || !kvs.IsUnavailable(err) {
		if err != nil {
			r.noteFailure(n, err)
		}
		return d, err
	}
	r.noteFailure(n, err)
	for _, cand := range replicas {
		if cand == n || cand.suspect.Load() {
			continue
		}
		r.failovers.Add(1)
		if d, ferr := cand.store.TTL(key); ferr == nil {
			return d, nil
		} else {
			r.noteFailure(cand, ferr)
			if !kvs.IsUnavailable(ferr) {
				return d, ferr
			}
			err = ferr
		}
	}
	return 0, err
}

// GetRange implements kvs.Store.
func (r *Ring) GetRange(key string, off, n int) ([]byte, error) {
	return readVal(r, key, func(s kvs.Store) ([]byte, error) { return s.GetRange(key, off, n) })
}

// SetRange implements kvs.Store.
func (r *Ring) SetRange(key string, off int, val []byte) error {
	return r.write(key, func(s kvs.Store) error { return s.SetRange(key, off, val) })
}

// Append implements kvs.Store. The primary's new length is authoritative;
// in-sync replicas reach the same length by applying the same append.
func (r *Ring) Append(key string, val []byte) (int, error) {
	return writeVal(r, key, func(s kvs.Store) (int, error) { return s.Append(key, val) })
}

// Len implements kvs.Store.
func (r *Ring) Len(key string) (int, error) {
	return readVal(r, key, func(s kvs.Store) (int, error) { return s.Len(key) })
}

// Delete implements kvs.Store.
func (r *Ring) Delete(key string) error {
	return r.write(key, func(s kvs.Store) error { return s.Delete(key) })
}

// SAdd implements kvs.Store.
func (r *Ring) SAdd(key, member string) (bool, error) {
	return writeVal(r, key, func(s kvs.Store) (bool, error) { return s.SAdd(key, member) })
}

// SRem implements kvs.Store.
func (r *Ring) SRem(key, member string) (bool, error) {
	return writeVal(r, key, func(s kvs.Store) (bool, error) { return s.SRem(key, member) })
}

// SMembers implements kvs.Store.
func (r *Ring) SMembers(key string) ([]string, error) {
	return readVal(r, key, func(s kvs.Store) ([]string, error) { return s.SMembers(key) })
}

// Incr implements kvs.Store. The primary's result is authoritative.
func (r *Ring) Incr(key string, delta int64) (int64, error) {
	return writeVal(r, key, func(s kvs.Store) (int64, error) { return s.Incr(key, delta) })
}

// writeFenceAll is writeFence for a batch: the write stripes of every key
// are taken in ascending stripe order (so concurrent batches cannot
// deadlock) and held for the whole batched write. Stripes fit one uint64
// bitmask.
func (r *Ring) writeFenceAll(pairs []kvs.Pair) func() {
	var mask uint64
	for _, p := range pairs {
		mask |= 1 << (hashKey(p.Key) & 63)
	}
	for i := 0; i < 64; i++ {
		if mask&(1<<i) != 0 {
			r.writeStripes[i].Lock()
		}
	}
	return func() {
		for i := 0; i < 64; i++ {
			if mask&(1<<i) != 0 {
				r.writeStripes[i].Unlock()
			}
		}
	}
}

// nodeGroup is one shard's slice of a batch: the indices (into the original
// batch) this node serves.
type nodeGroup struct {
	n   *node
	idx []int
}

// groupBy buckets batch indices by the node pick returns for each key.
func groupBy(count int, pick func(i int) *node) []nodeGroup {
	byNode := map[*node]int{}
	var groups []nodeGroup
	for i := 0; i < count; i++ {
		n := pick(i)
		gi, ok := byNode[n]
		if !ok {
			gi = len(groups)
			byNode[n] = gi
			groups = append(groups, nodeGroup{n: n})
		}
		groups[gi].idx = append(groups[gi].idx, i)
	}
	return groups
}

// eachGroup runs op for every group, concurrently when there is more than
// one (and parallelism can help — see spawnFanOut), and returns the first
// error.
func eachGroup(groups []nodeGroup, op func(g nodeGroup) error) error {
	serial := len(groups) == 1
	if !serial {
		nodes := make([]*node, len(groups))
		for i := range groups {
			nodes[i] = groups[i].n
		}
		serial = !spawnFanOut(nodes)
	}
	if serial {
		for _, g := range groups {
			if err := op(g); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for gi := range groups {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			errs[gi] = op(groups[gi])
		}(gi)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// MGet implements kvs.Store: keys are grouped by the shard that serves
// their read and one batch issues per shard, all shards in parallel — so a
// cross-shard batch costs one shard round trip, not one per key.
//
// Failover is batch-grained: a shard failing its group marks it suspect and
// the whole batch re-routes — readNode now skips the suspect node, so the
// retry lands the failed group on surviving copies. Bounded by the
// replication factor: after R re-routes every copy of some key has failed
// and the error surfaces.
func (r *Ring) MGet(keys []string) ([][]byte, error) {
	var lastErr error
	for a := 0; a <= r.opts.Replication; a++ {
		out, err := r.mgetOnce(keys)
		if err == nil {
			return out, nil
		}
		lastErr = err
		if !kvs.IsUnavailable(err) {
			break
		}
		r.failovers.Add(1)
	}
	return nil, lastErr
}

func (r *Ring) mgetOnce(keys []string) ([][]byte, error) {
	out := make([][]byte, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	groups := groupBy(len(keys), func(i int) *node { return r.readNode(keys[i]) })
	err := eachGroup(groups, func(g nodeGroup) error {
		sub := make([]string, len(g.idx))
		for j, i := range g.idx {
			sub[j] = keys[i]
		}
		vals, err := g.n.store.MGet(sub)
		if err != nil {
			r.noteFailure(g.n, err)
			return err
		}
		if len(vals) != len(g.idx) {
			return fmt.Errorf("shardkvs: node %s returned %d values for %d keys", g.n.id, len(vals), len(g.idx))
		}
		for j, i := range g.idx {
			out[i] = vals[j]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MSet implements kvs.Store: pairs are grouped by owner and one batch
// issues per shard, shards in parallel. Primaries commit first (all of
// them, concurrently); replica batches fan out only after every primary
// batch landed, so a primary error cannot leave replicas ahead of their
// primary. The multi-key write fence holds for the whole batch.
//
// Quorum semantics are batch-grained, coarser than writeVal's per-key
// accounting: every primary batch must land (a failed primary fails the
// whole call), and replica-batch failures are tolerated — suspect-marked
// and divergence-counted but not surfaced — when Options.WriteQuorum
// relaxes below full replication. With the default strict quorum any
// replica failure surfaces, aggregated across groups.
func (r *Ring) MSet(pairs []kvs.Pair) error {
	if len(pairs) == 0 {
		return nil
	}
	r.writes.Add(int64(len(pairs)))
	defer r.writeFenceAll(pairs)()
	primaries := make([]*node, len(pairs))
	replicas := make([][]*node, len(pairs))
	for i, p := range pairs {
		primaries[i], replicas[i] = r.route(p.Key)
	}
	priGroups := groupBy(len(pairs), func(i int) *node { return primaries[i] })
	err := eachGroup(priGroups, func(g nodeGroup) error {
		sub := make([]kvs.Pair, len(g.idx))
		for j, i := range g.idx {
			sub[j] = pairs[i]
		}
		if err := g.n.store.MSet(sub); err != nil {
			r.noteFailure(g.n, err)
			return fmt.Errorf("shardkvs: node %s: %w", g.n.id, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Flatten (pair, replica) placements and group them by node.
	type placement struct{ pair, rep int }
	var places []placement
	for i, reps := range replicas {
		for ri := range reps {
			places = append(places, placement{i, ri})
		}
	}
	if len(places) == 0 {
		return nil
	}
	repGroups := groupBy(len(places), func(i int) *node {
		return replicas[places[i].pair][places[i].rep]
	})
	relaxed := r.quorum(r.opts.Replication) < r.opts.Replication
	var repMu sync.Mutex
	var repErrs []error
	gerr := eachGroup(repGroups, func(g nodeGroup) error {
		sub := make([]kvs.Pair, len(g.idx))
		for j, i := range g.idx {
			sub[j] = pairs[places[i].pair]
		}
		if err := g.n.store.MSet(sub); err != nil {
			r.noteFailure(g.n, err)
			r.divergence.Add(1)
			repMu.Lock()
			repErrs = append(repErrs, fmt.Errorf("shardkvs: replica %s: %w", g.n.id, err))
			repMu.Unlock()
			if relaxed {
				// Relaxed quorum: the primaries hold the write; the failed
				// replica is suspect and Heal re-syncs it.
				return nil
			}
			return err
		}
		return nil
	})
	if gerr != nil {
		return errors.Join(repErrs...)
	}
	return nil
}

// GetRangesInto implements kvs.Store: one key lives on one shard, so the
// whole window batch forwards to the shard serving the read (with the same
// failover as any single-key read). A copy that fails part-way leaves dst
// partly written; the fallback copy then rewrites every window.
func (r *Ring) GetRangesInto(key string, ranges []kvs.Range, dst []byte) (int, error) {
	return readVal(r, key, func(s kvs.Store) (int, error) { return s.GetRangesInto(key, ranges, dst) })
}

// Lock implements kvs.Store: a key's lease lock lives on its owning
// primary, so mutual exclusion is exactly one engine's semantics regardless
// of replication.
func (r *Ring) Lock(key string, write bool, ttl time.Duration) (uint64, error) {
	primary, _ := r.route(key)
	return primary.store.Lock(key, write, ttl)
}

// Unlock implements kvs.Store, routing to the same primary as Lock.
func (r *Ring) Unlock(key string, token uint64) error {
	primary, _ := r.route(key)
	return primary.store.Unlock(key, token)
}

// AllKeys implements kvs.Store: the union of every shard's entries (each
// replicated key reported once).
func (r *Ring) AllKeys() ([]kvs.KeyInfo, error) {
	seen := map[kvs.KeyInfo]bool{}
	var out []kvs.KeyInfo
	for _, n := range r.nodes {
		infos, err := n.store.AllKeys()
		if err != nil {
			return nil, err
		}
		for _, ki := range infos {
			if !seen[ki] {
				seen[ki] = true
				out = append(out, ki)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Key < out[j].Key
	})
	return out, nil
}

// ShardKeyCounts reports entries per node id (balance diagnostics).
func (r *Ring) ShardKeyCounts() (map[string]int, error) {
	out := make(map[string]int, len(r.nodes))
	for id, n := range r.nodes {
		infos, err := n.store.AllKeys()
		if err != nil {
			return nil, err
		}
		out[id] = len(infos)
	}
	return out, nil
}

var _ kvs.Store = (*Ring)(nil)
