package frt

import (
	"errors"
	"fmt"

	"faasm.dev/faasm/internal/obsv"
	"faasm.dev/faasm/internal/queue"
)

// ErrAsyncDisabled marks async-path calls on an instance built without
// Config.Queue.
var ErrAsyncDisabled = errors.New("frt: async queue disabled")

// Queue exposes the instance's durable async queue (nil when disabled).
func (i *Instance) Queue() *queue.Queue { return i.queue }

// InvokeAsync enqueues function into the durable queue and acks immediately
// with the call id. Unlike Invoke, the accepted call survives this host: it
// lives in the global tier and any host with the function deployed executes
// it. Sheds with queue.ErrQueueFull at the function's depth cap.
func (i *Instance) InvokeAsync(function string, input []byte) (uint64, error) {
	if i.queue == nil {
		return 0, ErrAsyncDisabled
	}
	if i.killed.Load() {
		return 0, fmt.Errorf("frt: host %s is %w", i.cfg.Host, ErrDown)
	}
	if _, ok := i.deployed(function); !ok {
		return 0, fmt.Errorf("frt: unknown function %q", function)
	}
	tr := i.tracer.Start(i.cfg.Host, function)
	start := i.traceNow(tr)
	id, err := i.queue.SubmitTraced(function, input, uint64(tr.ID()))
	if tr != nil {
		// The submit-side trace is finished here — the consumer joins it by
		// id later, so queue.wait and exec spans still land in this record.
		i.span(tr, "queue.submit", function, start, int64(len(input)), err != nil)
		i.tracer.Finish(tr)
	}
	return id, err
}

// ExecuteQueued implements queue.Executor: run one claimed item through the
// normal scheduling path (warm pools, locality-aware forwarding), joining
// the submit-side trace so the execution's spans land under it. A killed
// host reports queue.ErrConsumerDead — the consumer abandons the item
// unrecorded and lease expiry redelivers it elsewhere, which is exactly what
// a real crash would have produced.
func (i *Instance) ExecuteQueued(function string, input []byte, trace obsv.TraceID) ([]byte, int32, error) {
	if i.killed.Load() || i.closed.Load() {
		return nil, -1, queue.ErrConsumerDead
	}
	tr, created := i.tracer.Join(trace, i.cfg.Host, function)
	out, ret, err := i.route(tr, function, input)
	if created {
		i.tracer.Finish(tr)
	}
	if i.killed.Load() {
		// Killed while executing: the result must die with the host.
		return nil, -1, queue.ErrConsumerDead
	}
	return out, ret, err
}
