package queue

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/mbus"
	"faasm.dev/faasm/internal/obsv"
	"faasm.dev/faasm/internal/vtime"
)

// Sentinel errors.
var (
	// ErrQueueFull is Submit's backpressure signal: the function's queue
	// is at its depth cap and the call was shed, not accepted.
	ErrQueueFull = errors.New("queue: full")
	// ErrConsumerDead is returned by an Executor whose host has crashed
	// (or is draining): the consumer abandons the item without writing
	// anything, leaving the in-flight lease to expire and the item to be
	// redelivered elsewhere.
	ErrConsumerDead = errors.New("queue: consumer dead")
	// ErrUnknownCall marks an id with neither a pending item nor a result.
	ErrUnknownCall = errors.New("queue: unknown call")
	// ErrAwaitTimeout is Await's deadline signal.
	ErrAwaitTimeout = errors.New("queue: await timed out")
	// ErrClosed is returned by Submit after Close.
	ErrClosed = errors.New("queue: closed")
)

// Defaults.
const (
	DefaultDepthCap     = 1024
	DefaultLeaseTTL     = 10 * time.Second
	DefaultRetryMax     = 3
	DefaultRetryBackoff = 100 * time.Millisecond
	DefaultPoll         = 20 * time.Millisecond
	DefaultConcurrency  = 2
)

// Executor runs one claimed item. The trace id is the submitting call's
// (0 = untraced); implementations join it so the execution's spans land
// under the submit-side trace.
type Executor interface {
	ExecuteQueued(fn string, input []byte, trace obsv.TraceID) ([]byte, int32, error)
}

// Config sizes one queue handle. Every host builds its own handle over its
// own view of the shared tier; the queue state itself lives tier-side, so
// all handles over the same tier see one queue.
type Config struct {
	// Store is the global tier holding all queue state.
	Store kvs.Store
	// Clock drives consumer polling, lease TTLs, and backoff (nil = wall
	// clock). Lease *expiry* is judged on the tier's clock, not this one.
	Clock vtime.Clock
	// Host names this handle in leases and results.
	Host string
	// DepthCap bounds each function's queued-plus-in-flight items; Submit
	// sheds with ErrQueueFull beyond it (0 = DefaultDepthCap, < 0 = no cap).
	DepthCap int
	// LeaseTTL is the in-flight lease on a claimed item: a consumer that
	// dies mid-execution has its item reclaimed this long after the claim
	// (0 = DefaultLeaseTTL).
	LeaseTTL time.Duration
	// RetryMax bounds redeliveries after the first delivery; past it the
	// item dead-letters (0 = DefaultRetryMax, < 0 = no retries).
	RetryMax int
	// RetryBackoff is the base redelivery backoff after a failed
	// execution, doubling per attempt (0 = DefaultRetryBackoff).
	RetryBackoff time.Duration
	// Poll is the consumer scan (and Await poll) cadence (0 = DefaultPoll).
	Poll time.Duration
	// Concurrency is the consumer loops per function on this host — the
	// bound on this host's concurrent executions per function
	// (0 = DefaultConcurrency).
	Concurrency int
	// Gate, when non-nil, reports whether this host may claim work. A
	// crashed or draining host returns false and its consumers idle.
	Gate func() bool
	// Dead, when non-nil, reports a crashed host. An execution finishing
	// after Dead flips true is abandoned unrecorded — the crash semantics —
	// whereas a merely drained host (Gate false, Dead false) still records
	// results for work it already held.
	Dead func() bool
	// Tracer, when non-nil, records queue.wait spans on traced items.
	Tracer *obsv.Tracer
}

// Queue is one host's handle on the shared durable queue.
type Queue struct {
	cfg  Config
	exec Executor

	mu        sync.Mutex
	consumers map[string]struct{}
	fns       map[string]struct{}
	closed    bool
	stop      chan struct{}
	wg        sync.WaitGroup

	// Metric counters, all host-local views of this handle's activity.
	enqueued     atomic.Int64
	redelivered  atomic.Int64
	deadLettered atomic.Int64
	completed    atomic.Int64
}

// New builds a queue handle. exec may be nil for submit/await-only handles
// (a front door); EnsureConsumer then refuses to start loops.
func New(cfg Config, exec Executor) *Queue {
	if cfg.Clock == nil {
		cfg.Clock = vtime.Real{}
	}
	if cfg.Host == "" {
		cfg.Host = "queue-client"
	}
	return &Queue{
		cfg:       cfg,
		exec:      exec,
		consumers: map[string]struct{}{},
		fns:       map[string]struct{}{},
		stop:      make(chan struct{}),
	}
}

// Tier key layout. Everything is keyed by the global call id except the
// per-function pending set, depth counter, dead-letter set, chain record,
// and claim lock.
func itemKey(id uint64) string    { return "q/item/" + strconv.FormatUint(id, 10) }
func leaseKey(id uint64) string   { return "q/lease/" + strconv.FormatUint(id, 10) }
func attemptKey(id uint64) string { return "q/attempt/" + strconv.FormatUint(id, 10) }
func resultKey(id uint64) string  { return "q/result/" + strconv.FormatUint(id, 10) }
func pendingKey(fn string) string { return "q/pending/" + fn }
func depthKey(fn string) string   { return "q/depth/" + fn }
func deadKey(fn string) string    { return "q/dead/" + fn }
func chainKey(fn string) string   { return "q/chain/" + fn }
func claimKey(fn string) string   { return "q/claim/" + fn }

const idKey = "q/id"

// item is the tier-side queue record: the call plus its enqueue time on the
// submitter's clock (feeds the queue.wait span).
type item struct {
	Rec        mbus.CallRecord
	EnqueuedAt int64
}

func (q *Queue) depthCap() int {
	if q.cfg.DepthCap == 0 {
		return DefaultDepthCap
	}
	return q.cfg.DepthCap
}

func (q *Queue) leaseTTL() time.Duration {
	if q.cfg.LeaseTTL <= 0 {
		return DefaultLeaseTTL
	}
	return q.cfg.LeaseTTL
}

func (q *Queue) retryMax() int {
	if q.cfg.RetryMax == 0 {
		return DefaultRetryMax
	}
	if q.cfg.RetryMax < 0 {
		return 0
	}
	return q.cfg.RetryMax
}

func (q *Queue) poll() time.Duration {
	if q.cfg.Poll <= 0 {
		return DefaultPoll
	}
	return q.cfg.Poll
}

func (q *Queue) concurrency() int {
	if q.cfg.Concurrency <= 0 {
		return DefaultConcurrency
	}
	return q.cfg.Concurrency
}

// backoff is the redelivery delay after failed attempt att (1-based),
// doubling from the base and capped at 8x so a retried item cannot park
// longer than a small multiple of the base.
func (q *Queue) backoff(att int) time.Duration {
	base := q.cfg.RetryBackoff
	if base <= 0 {
		base = DefaultRetryBackoff
	}
	d := base
	for i := 1; i < att && d < 8*base; i++ {
		d *= 2
	}
	if d > 8*base {
		d = 8 * base
	}
	return d
}

func (q *Queue) gateOpen() bool { return q.cfg.Gate == nil || q.cfg.Gate() }
func (q *Queue) dead() bool     { return q.cfg.Dead != nil && q.cfg.Dead() }

// Submit enqueues one asynchronous call and acks immediately with its
// global call id. The item is durable once Submit returns: it lives in the
// tier, not on this host. Sheds with ErrQueueFull at the depth cap.
func (q *Queue) Submit(fn string, input []byte) (uint64, error) {
	return q.submit(fn, input, 0, 0)
}

// SubmitTraced is Submit carrying the submitting invocation's trace id, so
// the consumer-side spans (queue.wait, exec) join the submit-side trace.
func (q *Queue) SubmitTraced(fn string, input []byte, trace uint64) (uint64, error) {
	return q.submit(fn, input, 0, trace)
}

func (q *Queue) submit(fn string, input []byte, parent, trace uint64) (uint64, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return 0, ErrClosed
	}
	q.fns[fn] = struct{}{}
	q.mu.Unlock()

	st := q.cfg.Store
	if cap := q.depthCap(); cap > 0 {
		d, err := st.Incr(depthKey(fn), 1)
		if err != nil {
			return 0, err
		}
		if d > int64(cap) {
			st.Incr(depthKey(fn), -1)
			return 0, fmt.Errorf("%w: %s at depth cap %d", ErrQueueFull, fn, cap)
		}
	} else if _, err := st.Incr(depthKey(fn), 1); err != nil {
		return 0, err
	}
	idv, err := st.Incr(idKey, 1)
	if err != nil {
		st.Incr(depthKey(fn), -1)
		return 0, err
	}
	id := uint64(idv)
	it := item{
		Rec: mbus.CallRecord{
			ID:       id,
			Function: fn,
			Input:    append([]byte(nil), input...),
			Status:   mbus.CallQueued,
			TraceID:  trace,
			ParentID: parent,
		},
		EnqueuedAt: q.cfg.Clock.Now().UnixNano(),
	}
	blob, err := json.Marshal(it)
	if err != nil {
		st.Incr(depthKey(fn), -1)
		return 0, err
	}
	// Item record first, pending-set entry second: a consumer that sees the
	// id in the set can always read the item.
	if err := st.Set(itemKey(id), blob); err != nil {
		st.Incr(depthKey(fn), -1)
		return 0, err
	}
	if _, err := st.SAdd(pendingKey(fn), strconv.FormatUint(id, 10)); err != nil {
		st.Delete(itemKey(id))
		st.Incr(depthKey(fn), -1)
		return 0, err
	}
	q.enqueued.Add(1)
	return id, nil
}

// Then records a static chain: every successful completion of fn enqueues
// next with fn's output as input. Chains are tier-side, so consumers on
// every host (including ones provisioned later) observe them.
func (q *Queue) Then(fn, next string) error {
	return q.cfg.Store.Set(chainKey(fn), []byte(next))
}

// EnsureConsumer starts this host's consumer loops for fn (idempotent).
func (q *Queue) EnsureConsumer(fn string) {
	if q.exec == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	if _, ok := q.consumers[fn]; ok {
		return
	}
	q.consumers[fn] = struct{}{}
	q.fns[fn] = struct{}{}
	for i := 0; i < q.concurrency(); i++ {
		q.wg.Add(1)
		go q.consumeLoop(fn)
	}
}

func (q *Queue) consumeLoop(fn string) {
	defer q.wg.Done()
	for {
		select {
		case <-q.stop:
			return
		default:
		}
		if !q.gateOpen() {
			q.cfg.Clock.Sleep(q.poll())
			continue
		}
		it, att, ok := q.claim(fn)
		if !ok {
			q.cfg.Clock.Sleep(q.poll())
			continue
		}
		q.runItem(fn, it, att)
	}
}

// claim picks one deliverable item from fn's pending set and fences it with
// an in-flight lease. Claims for one function are serialized through the
// tier's lease lock, so a (pending, lease-free) item has exactly one
// claimant per round; the returned attempt count is this delivery's ordinal.
func (q *Queue) claim(fn string) (item, int, bool) {
	st := q.cfg.Store
	tok, err := st.Lock(claimKey(fn), true, q.leaseTTL())
	if err != nil {
		return item{}, 0, false
	}
	defer st.Unlock(claimKey(fn), tok)

	members, err := st.SMembers(pendingKey(fn))
	if err != nil || len(members) == 0 {
		return item{}, 0, false
	}
	ids := make([]uint64, 0, len(members))
	for _, m := range members {
		if id, err := strconv.ParseUint(m, 10, 64); err == nil {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		ttl, err := st.TTL(leaseKey(id))
		if err != nil || ttl > 0 || ttl == kvs.TTLPersistent {
			continue // leased in-flight, parked in backoff, or unreadable
		}
		blob, err := st.Get(itemKey(id))
		if err != nil {
			continue
		}
		var it item
		if blob == nil || json.Unmarshal(blob, &it) != nil {
			// Orphaned pending entry (item record gone or unreadable):
			// collect it so it cannot wedge the scan forever.
			if removed, err := st.SRem(pendingKey(fn), strconv.FormatUint(id, 10)); err == nil && removed {
				st.Incr(depthKey(fn), -1)
			}
			continue
		}
		att64, err := st.Incr(attemptKey(id), 1)
		if err != nil {
			continue
		}
		att := int(att64)
		if att > 1 {
			q.redelivered.Add(1)
		}
		if att > q.retryMax()+1 {
			// Deliveries exhausted — including ones burned by crashed
			// consumers that never reported back (poison-pill protection).
			q.deadLetter(fn, it, fmt.Errorf("queue: %d deliveries exhausted", att-1))
			continue
		}
		if err := st.SetEx(leaseKey(id), []byte(q.cfg.Host), q.leaseTTL()); err != nil {
			continue
		}
		return it, att, true
	}
	return item{}, 0, false
}

// runItem executes one claimed delivery end to end.
func (q *Queue) runItem(fn string, it item, att int) {
	st := q.cfg.Store
	id := it.Rec.ID

	// A prior delivery may have completed but crashed before acking; never
	// re-execute a call that already has a result.
	if blob, err := st.Get(resultKey(id)); err == nil && blob != nil {
		q.ack(fn, id)
		return
	}

	q.recordWait(fn, it)
	out, ret, execErr := q.exec.ExecuteQueued(fn, it.Rec.Input, obsv.TraceID(it.Rec.TraceID))
	if errors.Is(execErr, ErrConsumerDead) || q.dead() {
		// Crashed mid-execution: write nothing. The lease expires on the
		// tier's clock and the item is redelivered.
		return
	}
	if execErr != nil {
		if att <= q.retryMax() {
			// Re-arm the lease as the backoff timer: the item stays
			// invisible to claims until the backoff elapses tier-side.
			st.SetEx(leaseKey(id), []byte("backoff"), q.backoff(att))
			return
		}
		q.deadLetter(fn, it, execErr)
		return
	}

	rec := it.Rec
	rec.Status = mbus.CallSucceeded
	rec.Output = out
	rec.ReturnCode = ret
	// Static chain: enqueue downstream before recording the result, so a
	// result carrying a ChildID always refers to an enqueued item.
	if next := q.chainOf(fn); next != "" && next != fn {
		if child, err := q.submit(next, out, id, it.Rec.TraceID); err == nil {
			rec.ChildID = child
		} else {
			rec.Err = fmt.Sprintf("chain to %s: %v", next, err)
		}
	}
	q.finish(fn, rec)
}

// recordWait attributes the enqueue→execution delay to the submit-side
// trace as a queue.wait span.
func (q *Queue) recordWait(fn string, it item) {
	if q.cfg.Tracer == nil || it.Rec.TraceID == 0 {
		return
	}
	tr, created := q.cfg.Tracer.Join(obsv.TraceID(it.Rec.TraceID), q.cfg.Host, fn)
	if tr == nil {
		return
	}
	start := time.Unix(0, it.EnqueuedAt)
	tr.RecordSpan(q.cfg.Host, "queue.wait", fn, start, q.cfg.Clock.Now().Sub(start), 0, false)
	if created {
		defer q.cfg.Tracer.Finish(tr)
	}
}

// chainOf reads fn's static downstream ("" = none).
func (q *Queue) chainOf(fn string) string {
	blob, err := q.cfg.Store.Get(chainKey(fn))
	if err != nil || len(blob) == 0 {
		return ""
	}
	return string(blob)
}

// finish records a terminal result (first writer wins) and acks the item.
func (q *Queue) finish(fn string, rec mbus.CallRecord) {
	st := q.cfg.Store
	// First-writer-wins: a redelivered zombie completing after the real
	// completer finds the result present and only acks. The lease protocol
	// makes two simultaneous completers a presumed-dead-holder anomaly; the
	// client's call-table view is strictly first-writer regardless.
	if blob, err := st.Get(resultKey(rec.ID)); err != nil || blob != nil {
		q.ack(fn, rec.ID)
		return
	}
	blob, err := json.Marshal(rec)
	if err != nil {
		rec.Output = nil
		rec.Err = fmt.Sprintf("queue: result marshal: %v", err)
		blob, _ = json.Marshal(rec)
	}
	if st.Set(resultKey(rec.ID), blob) == nil {
		q.completed.Add(1)
	}
	q.ack(fn, rec.ID)
}

// deadLetter parks an undeliverable item in fn's dead-letter set with a
// CallDeadLettered result so awaiters unblock.
func (q *Queue) deadLetter(fn string, it item, cause error) {
	rec := it.Rec
	rec.Status = mbus.CallDeadLettered
	rec.ReturnCode = -1
	rec.Err = cause.Error()
	q.cfg.Store.SAdd(deadKey(fn), strconv.FormatUint(rec.ID, 10))
	q.deadLettered.Add(1)
	q.finish(fn, rec)
}

// ack retires a delivered item: out of the pending set (decrementing the
// backpressure depth exactly once, guarded by SRem's removed flag), lease
// and bookkeeping keys dropped. The result record stays for awaiters.
func (q *Queue) ack(fn string, id uint64) {
	st := q.cfg.Store
	if removed, err := st.SRem(pendingKey(fn), strconv.FormatUint(id, 10)); err == nil && removed {
		st.Incr(depthKey(fn), -1)
	}
	st.Delete(leaseKey(id))
	st.Delete(itemKey(id))
	st.Delete(attemptKey(id))
}

// Result reads a call's terminal record, reporting whether one exists yet.
func (q *Queue) Result(id uint64) (mbus.CallRecord, bool, error) {
	blob, err := q.cfg.Store.Get(resultKey(id))
	if err != nil {
		return mbus.CallRecord{}, false, err
	}
	if blob == nil {
		return mbus.CallRecord{}, false, nil
	}
	var rec mbus.CallRecord
	if err := json.Unmarshal(blob, &rec); err != nil {
		return mbus.CallRecord{}, false, err
	}
	return rec, true, nil
}

// Await polls until the call reaches a terminal result, returning its
// record. timeout <= 0 waits forever; expiry returns ErrAwaitTimeout. An id
// with neither a result, a pending item, nor delivery bookkeeping is
// reported as ErrUnknownCall.
func (q *Queue) Await(id uint64, timeout time.Duration) (mbus.CallRecord, error) {
	st := q.cfg.Store
	var deadline time.Time
	if timeout > 0 {
		deadline = q.cfg.Clock.Now().Add(timeout)
	}
	for {
		rec, ok, err := q.Result(id)
		if err != nil {
			return mbus.CallRecord{}, err
		}
		if ok {
			return rec, nil
		}
		if blob, err := st.Get(itemKey(id)); err == nil && blob == nil {
			// No result and no item: either never submitted, or acked with
			// its result lost — both are unknown to the client. A completion
			// writes its result before the ack drops the item, so one that
			// landed since the read above shows up on a second read.
			if att, aerr := st.Incr(attemptKey(id), 0); aerr == nil && att == 0 {
				if rec, ok, err := q.Result(id); err != nil || ok {
					return rec, err
				}
				return mbus.CallRecord{}, fmt.Errorf("%w: %d", ErrUnknownCall, id)
			}
		}
		if timeout > 0 && !q.cfg.Clock.Now().Before(deadline) {
			return mbus.CallRecord{}, fmt.Errorf("%w: call %d", ErrAwaitTimeout, id)
		}
		q.cfg.Clock.Sleep(q.poll())
	}
}

// Depth reports fn's current queued-plus-in-flight item count.
func (q *Queue) Depth(fn string) (int64, error) {
	return q.cfg.Store.Incr(depthKey(fn), 0)
}

// DeadLetters lists fn's dead-lettered call ids.
func (q *Queue) DeadLetters(fn string) ([]uint64, error) {
	members, err := q.cfg.Store.SMembers(deadKey(fn))
	if err != nil {
		return nil, err
	}
	out := make([]uint64, 0, len(members))
	for _, m := range members {
		if id, err := strconv.ParseUint(m, 10, 64); err == nil {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// Functions lists the functions this handle has consumed or submitted for.
func (q *Queue) Functions() []string {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]string, 0, len(q.fns))
	for fn := range q.fns {
		out = append(out, fn)
	}
	sort.Strings(out)
	return out
}

// Stats snapshots this handle's activity counters.
type Stats struct {
	Enqueued     int64
	Redelivered  int64
	DeadLettered int64
	Completed    int64
}

// Stats reports this handle's counters.
func (q *Queue) Stats() Stats {
	return Stats{
		Enqueued:     q.enqueued.Load(),
		Redelivered:  q.redelivered.Load(),
		DeadLettered: q.deadLettered.Load(),
		Completed:    q.completed.Load(),
	}
}

// Instrument registers the queue series with reg, labelled by host. The
// depth gauge reads the tier at scrape time (one counter read per known
// function), so it reflects the shared queue, not this handle.
func (q *Queue) Instrument(reg *obsv.Registry, host string) {
	l := map[string]string{"host": host}
	reg.CounterFunc("faasm_queue_enqueued_total", "async calls accepted into the durable queue by this host", l, q.enqueued.Load)
	reg.CounterFunc("faasm_queue_redelivered_total", "deliveries after the first, claimed by this host (lease-expiry reclaims and retry backoffs)", l, q.redelivered.Load)
	reg.CounterFunc("faasm_queue_dead_lettered_total", "items parked in a dead-letter set by this host after exhausting deliveries", l, q.deadLettered.Load)
	reg.GaugeFunc("faasm_queue_depth", "queued plus in-flight items across this host's known functions (tier-side view)", l, q.tierDepth)
}

func (q *Queue) tierDepth() int64 {
	var total int64
	for _, fn := range q.Functions() {
		if d, err := q.Depth(fn); err == nil {
			total += d
		}
	}
	return total
}

// Close stops this host's consumer loops (waiting them out) and refuses
// further Submits. Tier-side queue state is untouched: other hosts keep
// consuming, and items this host had in flight redeliver after lease
// expiry.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	close(q.stop)
	q.mu.Unlock()
	q.wg.Wait()
}
