package mbus

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"faasm.dev/faasm/internal/obsv"
)

// CallStatus is the lifecycle state of a chained call.
type CallStatus int

// Call states. The first four are the synchronous lifecycle; CallQueued and
// CallDeadLettered extend it for the durable async path (internal/queue):
// a queued call waits in the global tier before any host runs it, and a
// dead-lettered one exhausted its redeliveries without completing.
const (
	CallPending CallStatus = iota
	CallRunning
	CallSucceeded
	CallFailed
	CallQueued
	CallDeadLettered
)

func (s CallStatus) String() string {
	switch s {
	case CallPending:
		return "pending"
	case CallRunning:
		return "running"
	case CallSucceeded:
		return "succeeded"
	case CallFailed:
		return "failed"
	case CallQueued:
		return "queued"
	case CallDeadLettered:
		return "dead-lettered"
	}
	return "unknown"
}

// Terminal reports whether the status is final: no later transition may
// overwrite a terminal result (first writer wins; see Complete).
func (s CallStatus) Terminal() bool {
	return s == CallSucceeded || s == CallFailed || s == CallDeadLettered
}

// CallRecord is the table entry for one function call. It doubles as the
// durable queue's item/result schema, so a chained async call's lineage
// (ParentID/ChildID) and its trace id travel with the record through the
// global tier.
type CallRecord struct {
	ID       uint64
	Function string
	Input    []byte
	Output   []byte
	Status   CallStatus
	Err      string
	// ReturnCode is the guest's integer result, as awaited by await_call.
	ReturnCode int32
	// TraceID links the call to its invocation trace (0 = unsampled).
	TraceID uint64
	// ParentID is the upstream call whose completion enqueued this one
	// (0 = externally submitted); ChildID is the downstream call this
	// one's completion enqueued (0 = none). Traces join across a chain by
	// following these links.
	ParentID uint64
	ChildID  uint64
}

// callShards is the CallTable's sharding width. Call ids are dense
// (monotonically assigned), so id&(callShards-1) spreads concurrent calls
// uniformly and two simultaneous invocations almost never contend on the
// same shard mutex.
const callShards = 64

// CompletedRetention bounds the completed records the table keeps for
// callers outside any guest (Create): exactly this many of the most recently
// completed ones stay readable, whatever their ids; each further completion
// evicts the oldest. It is the whole lifetime policy for such records — a
// count, not a clock, enforced inline by Complete — and sized so that an
// Invoke → Await → Output sequence, or a batch of a few thousand calls
// awaited afterwards, never sees its own records evicted. Records with an
// owner (CreateOwned) are outside the window; pending and running records are
// never evicted.
const CompletedRetention = 4096

// callEntry is one tracked call plus its completion signal. done is closed
// exactly once, when the call reaches a terminal state (or is deleted), so
// Await wakes only the waiters of THIS call — never the whole table.
type callEntry struct {
	rec  CallRecord
	done chan struct{}
	// owned marks a record whose creator deletes it (CreateOwned); orphaned,
	// one its owner deleted before anything had claimed the call. The call
	// still has to run, so the record stays until Complete, which removes it.
	owned, orphaned bool
	// awaiters counts the Await calls that have taken this entry; each reads
	// its result from the entry, whatever later happens to the table's slot.
	awaiters int
}

type callShard struct {
	mu    sync.Mutex
	calls map[uint64]*callEntry
}

// CallTable tracks in-flight and completed calls on one runtime instance.
// It is sharded by call id: operations on different calls take different
// locks, and each call carries its own completion channel, so completing one
// call wakes exactly its awaiters.
//
// Every record has a lifetime. One created for a guest's chain_call
// (CreateOwned) belongs to the parent call, whose runtime deletes it when
// the parent returns; one created from outside a guest (Create) stays
// readable after completion until CompletedRetention later completions have
// pushed it out. The table's size is therefore in-flight calls plus a
// constant, whatever the uptime.
type CallTable struct {
	shards [callShards]callShard
	next   atomic.Uint64

	// retained is the table-wide FIFO of completed, un-owned call ids (0 =
	// empty slot). The n-th such completion takes slot n mod its length and
	// evicts the id it finds there.
	retained  [CompletedRetention]atomic.Uint64
	retainedN atomic.Uint64

	// created/completed/failed count call lifecycle transitions for the
	// metrics exposition.
	created   atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
}

// Instrument registers the table's lifecycle counters and live-record gauge
// with reg, labelled by host.
func (t *CallTable) Instrument(reg *obsv.Registry, host string) {
	l := map[string]string{"host": host}
	reg.CounterFunc("faasm_mbus_calls_created_total", "calls registered in the table", l, t.created.Load)
	reg.CounterFunc("faasm_mbus_calls_completed_total", "calls reaching a terminal state", l, t.completed.Load)
	reg.CounterFunc("faasm_mbus_calls_failed_total", "calls completing with an error", l, t.failed.Load)
	reg.GaugeFunc("faasm_mbus_calls_live", "records currently in the table", l, func() int64 { return int64(t.Len()) })
}

// NewCallTable creates an empty table.
func NewCallTable() *CallTable {
	t := &CallTable{}
	for i := range t.shards {
		t.shards[i].calls = map[uint64]*callEntry{}
	}
	return t
}

func (t *CallTable) shard(id uint64) *callShard {
	return &t.shards[id&(callShards-1)]
}

// Create registers a new pending call for a caller outside any guest,
// returning its ID. Once completed the record stays readable for the
// retention window (CompletedRetention), then is evicted.
func (t *CallTable) Create(function string, input []byte) uint64 {
	return t.create(function, input, false)
}

// CreateOwned registers a new pending call whose creator owns the record and
// must Delete it — a guest's chained call, discarded when the parent call
// returns. Owned records are never evicted by the retention window. Someone
// must still Claim and Complete the call: deleting it does not cancel it.
func (t *CallTable) CreateOwned(function string, input []byte) uint64 {
	return t.create(function, input, true)
}

func (t *CallTable) create(function string, input []byte, owned bool) uint64 {
	id := t.next.Add(1)
	e := &callEntry{
		rec: CallRecord{
			ID:       id,
			Function: function,
			Input:    append([]byte(nil), input...),
			Status:   CallPending,
		},
		done:  make(chan struct{}),
		owned: owned,
	}
	s := t.shard(id)
	s.mu.Lock()
	s.calls[id] = e
	s.mu.Unlock()
	t.created.Add(1)
	return id
}

// SetTraceID links a call to its invocation trace.
func (t *CallTable) SetTraceID(id, trace uint64) {
	s := t.shard(id)
	s.mu.Lock()
	if e, ok := s.calls[id]; ok {
		e.rec.TraceID = trace
	}
	s.mu.Unlock()
}

// Claim takes a pending call for execution: pending → running, returning
// the record. Of any number of concurrent claimants exactly one is told true
// and must execute and Complete the call; the others — and a claim on a call
// that is unknown, already running or finished — get false and must not
// touch it. The record's Input is the table's copy: read it, do not modify
// it.
func (t *CallTable) Claim(id uint64) (CallRecord, bool) {
	s := t.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.calls[id]
	if !ok || e.rec.Status != CallPending {
		return CallRecord{}, false
	}
	e.rec.Status = CallRunning
	return e.rec, true
}

// Start is Claim for a call with a single executor, which need not learn
// whether it won: it fails only when the call is unknown.
func (t *CallTable) Start(id uint64) error {
	if _, ok := t.Claim(id); !ok {
		if _, known := t.Get(id); !known {
			return fmt.Errorf("mbus: unknown call %d", id)
		}
	}
	return nil
}

// terminal reports whether a status is final.
func terminal(st CallStatus) bool { return st.Terminal() }

// ErrAlreadyCompleted is Complete's sentinel for a call that already reached
// a terminal state: the first completion won, the new result was dropped.
// At-least-once redelivery leans on this — a duplicate execution's late
// completion must never flip a result waiters have already observed.
var ErrAlreadyCompleted = errors.New("mbus: call already completed")

// Complete finishes a call with output and return code (err non-nil marks
// failure), waking this call's awaiters (and only them). Completion is
// first-writer-wins: once a call is terminal, further completions mutate
// nothing and return ErrAlreadyCompleted.
func (t *CallTable) Complete(id uint64, output []byte, ret int32, err error) error {
	s := t.shard(id)
	s.mu.Lock()
	e, ok := s.calls[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("mbus: unknown call %d", id)
	}
	if terminal(e.rec.Status) {
		s.mu.Unlock()
		return ErrAlreadyCompleted
	}
	e.rec.Output = append([]byte(nil), output...)
	e.rec.ReturnCode = ret
	if err != nil {
		e.rec.Status = CallFailed
		e.rec.Err = err.Error()
	} else {
		e.rec.Status = CallSucceeded
	}
	close(e.done)
	if e.orphaned {
		delete(s.calls, id)
	}
	s.mu.Unlock()
	if !e.owned {
		// Enter the retention window, evicting the record that completed
		// CompletedRetention completions ago (if it is still here).
		slot := (t.retainedN.Add(1) - 1) % CompletedRetention
		if old := t.retained[slot].Swap(id); old != 0 {
			t.Delete(old)
		}
	}
	t.completed.Add(1)
	if err != nil {
		t.failed.Add(1)
	}
	return nil
}

// Await blocks until the call finishes or fails, returning its return code
// (await_call in Table 2). Failure yields a non-zero code and the error.
// The result is read from the entry itself, not the table: a Delete racing
// in after completion discards the map slot but never the completed record,
// so waiters of a completed call always observe its result. Only a call
// deleted while still pending reports unknown.
func (t *CallTable) Await(id uint64) (int32, error) {
	s := t.shard(id)
	s.mu.Lock()
	e, ok := s.calls[id]
	if ok {
		e.awaiters++
	}
	s.mu.Unlock()
	if !ok {
		return -1, fmt.Errorf("mbus: unknown call %d", id)
	}
	<-e.done
	s.mu.Lock()
	rec := e.rec
	s.mu.Unlock()
	if !terminal(rec.Status) {
		// done closed by Delete on a still-pending call.
		return -1, fmt.Errorf("mbus: unknown call %d", id)
	}
	if rec.Status == CallFailed {
		return rec.ReturnCode, fmt.Errorf("mbus: call %d failed: %s", id, rec.Err)
	}
	return rec.ReturnCode, nil
}

// Output returns a finished call's output bytes (get_call_output).
func (t *CallTable) Output(id uint64) ([]byte, error) {
	s := t.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.calls[id]
	if !ok {
		return nil, fmt.Errorf("mbus: unknown call %d", id)
	}
	if !terminal(e.rec.Status) {
		return nil, fmt.Errorf("mbus: call %d still %s", id, e.rec.Status)
	}
	return append([]byte(nil), e.rec.Output...), nil
}

// Get returns a snapshot of the record.
func (t *CallTable) Get(id uint64) (CallRecord, bool) {
	s := t.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.calls[id]
	if !ok {
		return CallRecord{}, false
	}
	return e.rec, true
}

// Delete discards a call record: the owner's duty for a CreateOwned record,
// optional for others (the retention window evicts those). Waiters blocked
// in Await on a call that has not finished are woken and observe it as
// unknown; a later Complete of it finds nothing and reports unknown too.
//
// Deleting is not cancelling. An owned call nothing has claimed yet is work
// its chainer asked for and stopped caring about the result of: its record is
// only marked, stays claimable, and goes when the call completes.
func (t *CallTable) Delete(id uint64) {
	s := t.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.calls[id]
	if !ok {
		return
	}
	if e.owned && e.rec.Status == CallPending {
		e.orphaned = true
		return
	}
	delete(s.calls, id)
	if !terminal(e.rec.Status) {
		close(e.done)
	}
}

// Len reports the number of live records.
func (t *CallTable) Len() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.calls)
		s.mu.Unlock()
	}
	return n
}
