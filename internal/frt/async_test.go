package frt

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"faasm.dev/faasm/internal/core"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/mbus"
	"faasm.dev/faasm/internal/queue"
)

// newAsyncInstance builds an instance with the durable queue on and a fast
// consumer cadence, sharing eng so multi-host tests see one tier.
func newAsyncInstance(t *testing.T, host string, eng *kvs.Engine) *Instance {
	t.Helper()
	inst := New(Config{
		Host:  host,
		Store: eng,
		Queue: &queue.Config{Poll: time.Millisecond, LeaseTTL: 200 * time.Millisecond},
	})
	t.Cleanup(inst.Shutdown)
	return inst
}

func TestInvokeAsyncRoundTrip(t *testing.T) {
	inst := newAsyncInstance(t, "h1", kvs.NewEngine())
	inst.RegisterNative("upper", func(ctx *core.Ctx) (int32, error) {
		ctx.WriteOutput(bytes.ToUpper(ctx.Input()))
		return 0, nil
	})
	id, err := inst.InvokeAsync("upper", []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := inst.Queue().Await(id, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != mbus.CallSucceeded || string(rec.Output) != "HELLO" {
		t.Fatalf("result = %+v", rec)
	}
	if d, err := inst.Queue().Depth("upper"); err != nil || d != 0 {
		t.Fatalf("depth after completion = %d %v", d, err)
	}
	if _, err := inst.InvokeAsync("ghost", nil); err == nil {
		t.Fatal("unknown function enqueued")
	}
}

func TestInvokeAsyncChain(t *testing.T) {
	inst := newAsyncInstance(t, "h1", kvs.NewEngine())
	stamp := func(tag string) func(ctx *core.Ctx) (int32, error) {
		return func(ctx *core.Ctx) (int32, error) {
			ctx.WriteOutput(append(ctx.Input(), []byte("|"+tag)...))
			return 0, nil
		}
	}
	inst.RegisterNative("a", stamp("a"))
	inst.RegisterNative("b", stamp("b"))
	if err := inst.Queue().Then("a", "b"); err != nil {
		t.Fatal(err)
	}
	root, err := inst.InvokeAsync("a", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	recA, err := inst.Queue().Await(root, 10*time.Second)
	if err != nil || recA.ChildID == 0 {
		t.Fatalf("stage a: %+v %v", recA, err)
	}
	recB, err := inst.Queue().Await(recA.ChildID, 10*time.Second)
	if err != nil || recB.ParentID != root || string(recB.Output) != "x|a|b" {
		t.Fatalf("stage b: %+v %v", recB, err)
	}
}

func TestAsyncDisabledErrors(t *testing.T) {
	inst := New(Config{Host: "h1"})
	t.Cleanup(inst.Shutdown)
	if _, err := inst.InvokeAsync("f", nil); !errors.Is(err, ErrAsyncDisabled) {
		t.Fatalf("InvokeAsync: %v", err)
	}
	if inst.Queue() != nil {
		t.Fatal("queue present without Config.Queue")
	}
}

func TestKilledHostQueuedWorkRedeliveredToPeer(t *testing.T) {
	// Two hosts over one tier; the executing host is killed, so its claimed
	// item must redeliver to the survivor after lease expiry and the client
	// still sees exactly one successful completion.
	eng := kvs.NewEngine()
	h1 := newAsyncInstance(t, "h1", eng)
	h2 := newAsyncInstance(t, "h2", eng)

	started := make(chan string, 8)
	release := make(chan struct{})
	mkFn := func(inst *Instance) func(ctx *core.Ctx) (int32, error) {
		return func(ctx *core.Ctx) (int32, error) {
			started <- inst.Host()
			if inst.Host() == "h1" {
				<-release // hold the item in flight while h1 is killed
			}
			ctx.WriteOutput([]byte("done"))
			return 0, nil
		}
	}
	h1.RegisterNative("work", mkFn(h1))
	// Delay h2's deployment so h1 deterministically claims first.
	id, err := h1.InvokeAsync("work", nil)
	if err != nil {
		t.Fatal(err)
	}
	first := <-started
	if first != "h1" {
		t.Fatalf("first claim on %s", first)
	}
	h1.Kill()
	close(release) // h1 finishes, but being killed it must abandon the result
	h2.RegisterNative("work", mkFn(h2))

	rec, err := h2.Queue().Await(id, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != mbus.CallSucceeded || string(rec.Output) != "done" {
		t.Fatalf("result = %+v", rec)
	}
	if got := h2.Queue().Stats().Redelivered; got != 1 {
		t.Fatalf("redelivered = %d, want 1", got)
	}
	// A killed host refuses new async submissions outright.
	if _, err := h1.InvokeAsync("work", nil); err == nil {
		t.Fatal("killed host accepted a submit")
	}
}

func TestExecuteQueuedReportsConsumerDeadWhenKilled(t *testing.T) {
	inst := newAsyncInstance(t, "h1", kvs.NewEngine())
	inst.RegisterNative("noop", func(ctx *core.Ctx) (int32, error) { return 0, nil })
	inst.Kill()
	if _, _, err := inst.ExecuteQueued("noop", nil, 0); !errors.Is(err, queue.ErrConsumerDead) {
		t.Fatalf("ExecuteQueued on killed host: %v", err)
	}
}
