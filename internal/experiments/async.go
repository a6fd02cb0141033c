package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"faasm.dev/faasm/internal/cluster"
	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/hostapi"
	"faasm.dev/faasm/internal/mbus"
	"faasm.dev/faasm/internal/queue"
)

// AsyncQueue is the durable-async-invocation gate: open-loop load enters
// through the async queue while a host is killed mid-execution. Every
// accepted call must reach exactly one terminal completion from the client's
// view — items the dead host held in flight are reclaimed after lease expiry
// and redelivered, never lost and never producing a second result — with
// zero dead letters. A 3-stage static chain must then complete end to end
// with intact parent/child lineage, and the synchronous warm-invoke path
// must stay fast with the queue machinery enabled.
func AsyncQueue(opts Options) *Report {
	r := &Report{
		ID:     "async-queue",
		Title:  "Durable async queue: host killed mid-execution, every accepted call completes exactly once",
		Header: []string{"section", "metric", "value", "gate"},
	}

	const leaseTTL = 80 * time.Millisecond
	total := 160
	awaitBudget := 30 * time.Second
	if opts.Quick {
		total = 48
		awaitBudget = 20 * time.Second
	}

	c := cluster.New(cluster.Config{
		Mode: cluster.ModeFaasm, Hosts: 3, TimeScale: 1,
		Runtime: frt.Config{
			LeaseTTL: 60 * time.Millisecond,
			Queue:    &queue.Config{LeaseTTL: leaseTTL, Poll: 2 * time.Millisecond, Concurrency: 2},
		},
	})
	defer c.Shutdown()
	// Phase 1 — open-loop async load with a host killed mid-execution. The
	// kill is keyed to the executions, not the wall clock: every execution
	// of a submitted item parks until the kill has landed (so the pending
	// pool cannot drain out from under the victim), and the kill waits until
	// every consumer in the cluster is parked. Host-0 is warmed first, so it
	// is the one warm host: its own consumers execute locally and its peers'
	// forward to it, which puts host-0 mid-execution when it dies.
	const consumers = 3 * 2 // hosts × queue Concurrency
	parked := make(chan struct{}, consumers)
	killed := make(chan struct{})
	mk := func(tag string) hostapi.Guest {
		return func(api hostapi.API) (int32, error) {
			if bytes.HasPrefix(api.Input(), []byte("call-")) {
				select {
				case parked <- struct{}{}:
				default:
				}
				<-killed
			}
			time.Sleep(6 * time.Millisecond) // a fixed service time
			api.WriteOutput(append(api.Input(), []byte("|"+tag)...))
			return 0, nil
		}
	}
	for _, fn := range []string{"work", "stage1", "stage2", "stage3"} {
		if err := c.Register(fn, mk(fn)); err != nil {
			r.Check(false, "setup", "register "+fn, err.Error())
			return r
		}
	}
	if _, _, err := c.CallOn(0, "work", []byte("warm")); err != nil {
		r.Check(false, "setup", "warm host-0", err.Error())
		return r
	}
	// Publish host-0's lease, then let its peers read it into their views.
	for _, h := range []int{0, 1, 2} {
		if err := c.Instance(h).Scheduler().Heartbeat(); err != nil {
			r.Check(false, "setup", fmt.Sprintf("publish host-0 (beat host-%d)", h), err.Error())
			return r
		}
	}

	ids := make([]uint64, 0, total)
	offered, shed := 0, 0
	submit := func(n int) {
		for j := 0; j < n; j++ {
			offered++
			id, err := c.SubmitAsync("work", []byte(fmt.Sprintf("call-%d", len(ids))))
			if err != nil {
				shed++
				continue
			}
			ids = append(ids, id)
		}
	}
	submit(total / 3)
	for k := 0; k < consumers; k++ {
		<-parked
	}
	onHost0 := c.Instance(0).Inflight()
	c.KillHost(0)
	close(killed) // release every parked execution; host-0's die with it
	submit(total - offered)

	// Every accepted call must reach exactly one terminal result; reading
	// it twice must observe the same completion (first writer wins).
	deadline := time.Now().Add(awaitBudget)
	completed, lost, wrong, unstable := 0, 0, 0, 0
	for i, id := range ids {
		rec, err := c.AwaitAsync(id, time.Until(deadline))
		if err != nil {
			lost++
			continue
		}
		completed++
		want := fmt.Sprintf("call-%d|work", i)
		if rec.Status != mbus.CallSucceeded || string(rec.Output) != want {
			wrong++
		}
		again, err := c.AwaitAsync(id, time.Second)
		if err != nil || again.Status != rec.Status || string(again.Output) != string(rec.Output) {
			unstable++
		}
	}
	dead, _ := c.QueueDeadLetters("work")
	var redelivered int64
	for h := 0; h < 3; h++ {
		redelivered += c.Instance(h).Queue().Stats().Redelivered
	}

	// Phase 2 — static 3-stage chain: stage1 → stage2 → stage3, each
	// completion enqueueing the next with its output, lineage recorded.
	const chainWant = "x|stage1|stage2|stage3"
	chainOut, err := runChain(c)
	if err != nil {
		chainOut = "error: " + err.Error()
	}

	// Phase 3 — the synchronous path with queue machinery enabled: warm
	// invokes must stay fast (catastrophic-regression bound, not a
	// microbenchmark; the service time alone is 6ms).
	for i := 0; i < 5; i++ {
		c.Call("work", []byte("warm")) // warm the surviving pools
	}
	const syncCalls = 20
	start := time.Now()
	syncFailed := 0
	for i := 0; i < syncCalls; i++ {
		if _, ret, err := c.Call("work", []byte("warm")); err != nil || ret != 0 {
			syncFailed++
		}
	}
	perCall := time.Since(start) / syncCalls

	// A result lands before its item's ack, so the depth is read once
	// Shutdown has stopped every consumer, each mid-completion one acked.
	c.Shutdown()
	depth, _ := c.QueueDepth("work")
	r.Check(onHost0 > 0, "crash", "claimed items executing on host-0 at the kill", fmt.Sprintf("%d of %d", onHost0, consumers))
	r.Check(len(ids) > 0, "crash", "calls accepted", fmt.Sprintf("%d (of %d offered, %d shed)", len(ids), offered, shed))
	r.Check(completed == len(ids) && lost == 0, "crash", "terminal completions", fmt.Sprintf("%d/%d", completed, len(ids)))
	r.Check(wrong == 0, "crash", "wrong or failed results", fmt.Sprintf("%d", wrong))
	r.Check(unstable == 0, "crash", "results stable on re-read", fmt.Sprintf("%d unstable", unstable))
	r.Check(redelivered >= 1, "crash", "redelivered after host kill", fmt.Sprintf("%d", redelivered))
	r.Check(len(dead) == 0, "crash", "dead letters", fmt.Sprintf("%d", len(dead)))
	r.Check(depth == 0, "crash", "queue drained", fmt.Sprintf("depth %d", depth))
	r.Check(chainOut == chainWant, "chain", "3-stage pipeline output", chainOut)
	r.Check(syncFailed == 0 && perCall < 60*time.Millisecond, "sync", "warm invoke mean", perCall.Round(10*time.Microsecond).String())

	r.Note("host-0 killed with claimed items mid-execution: its in-flight leases expire tier-side after %v and survivors reclaim the items — the redelivered count is the reclaim happening", leaseTTL)
	r.Note("exactly-once is the client's view: execution is at-least-once, but result writes are first-writer-wins, so a re-read can never observe a completed call change its outcome")
	return r
}

// runChain submits stage1 of the static chain stage1 → stage2 → stage3 and
// walks its lineage, each record naming its child and each child its
// parent, returning the last stage's output.
func runChain(c *cluster.Cluster) (string, error) {
	err := errors.Join(c.ChainThen("stage1", "stage2"), c.ChainThen("stage2", "stage3"))
	id, submitErr := c.SubmitAsync("stage1", []byte("x"))
	if err := errors.Join(err, submitErr); err != nil {
		return "", err
	}
	var parent uint64
	for stage := 1; ; stage++ {
		rec, err := c.AwaitAsync(id, 10*time.Second)
		switch {
		case err != nil:
			return "", fmt.Errorf("stage %d: %w", stage, err)
		case rec.ParentID != parent:
			return "", fmt.Errorf("stage %d: parent %d, want %d", stage, rec.ParentID, parent)
		case stage == 3:
			return string(rec.Output), nil
		}
		parent, id = id, rec.ChildID
	}
}
