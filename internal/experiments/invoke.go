package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"faasm.dev/faasm/internal/core"
	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/obsv"
)

// InvokeScale measures the per-host invocation hot path this repo makes
// concurrent beyond the paper: closed-loop warm calls to a no-op function
// from 1/4/16 goroutines, reporting calls/sec and p50/p99 latency. The
// pre-PR pipeline serialised every call on one instance mutex (taken 3–5×
// per call), a single-cond call table whose completion broadcast woke every
// waiter, and an inline Proto-Faaslet reset on the caller's critical path;
// the rebuilt pipeline is lock-free on definition lookup, per-function on
// pool acquire/release, and resets off the critical path.
func InvokeScale(opts Options) *Report {
	callsPerG := 20_000
	if opts.Quick {
		callsPerG = 2_000
	}
	gs := []int{1, 4, 16}

	r := &Report{
		ID:     "invoke-scale",
		Title:  "Invocation hot path: parallel warm-call throughput",
		Header: []string{"section", "config", "calls/s", "speedup", "p50", "p99"},
	}

	var baseline float64
	for _, g := range gs {
		callsPerSec, p50, p99, err := measureWarmInvoke(g, callsPerG)
		if err != nil {
			r.Note("%d goroutines: %v", g, err)
			continue
		}
		speedup := "-"
		if g == gs[0] {
			baseline = callsPerSec
		} else if baseline > 0 {
			speedup = fmt.Sprintf("%.2fx", callsPerSec/baseline)
		}
		r.Add("throughput", fmt.Sprintf("%d goroutine(s)", g),
			fmt.Sprintf("%.0f", callsPerSec), speedup, fmtDur(p50), fmtDur(p99))
	}

	// Span breakdown: every call traced (sample rate 1), then the warm
	// path decomposed by span from the tracer's aggregates — where a warm
	// invocation's time actually goes.
	if rep, err := measureSpanBreakdown(callsPerG / 4); err != nil {
		r.Note("span section: %v", err)
	} else {
		for _, st := range rep {
			r.Add("spans", st.Name, fmt.Sprintf("%d calls", st.Count), "-",
				fmtDur(st.P50), fmtDur(st.P99))
		}
	}

	r.Note("throughput: closed-loop no-op calls per goroutine count, pool prewarmed to 2x goroutines; p50/p99 are per-call response latencies (reset excluded — it runs off the critical path)")
	r.Note("spans: per-span latency aggregates over fully traced warm calls (trace sample rate 1); throughput rows above run at the default 1-in-%d sampling", obsv.DefaultSampleRate)
	r.Note("GOMAXPROCS=%d; on one core the gain is the removed per-call work (dispatch goroutine, call-table broadcast, inline reset); with more cores the per-function pools also remove lock contention", runtime.GOMAXPROCS(0))
	return r
}

// measureSpanBreakdown runs calls fully traced warm invocations on a fresh
// instance and returns the tracer's per-span aggregates, sorted by total
// time descending so the dominant phase leads the table.
func measureSpanBreakdown(calls int) ([]obsv.SpanStat, error) {
	inst := frt.New(frt.Config{Host: "span-host", TraceSample: 1})
	defer inst.Shutdown()
	inst.RegisterNative("noop", func(ctx *core.Ctx) (int32, error) { return 0, nil })
	for k := 0; k < calls; k++ {
		if _, _, err := inst.Call("noop", nil); err != nil {
			return nil, err
		}
	}
	stats := inst.Tracer().SpanStats()
	sort.Slice(stats, func(i, j int) bool { return stats[i].Total > stats[j].Total })
	return stats, nil
}

// measureWarmInvoke drives closed-loop warm calls from g goroutines against
// a prewarmed instance and returns calls/sec plus p50/p99 latency.
func measureWarmInvoke(g, callsPerG int) (float64, time.Duration, time.Duration, error) {
	inst := frt.New(frt.Config{Host: "bench-host", PoolCap: 256})
	defer inst.Shutdown()
	gate := make(chan struct{})
	started := make(chan struct{}, 2*g)
	inst.RegisterNative("noop", func(ctx *core.Ctx) (int32, error) {
		if len(ctx.Input()) > 0 {
			started <- struct{}{}
			<-gate
		}
		return 0, nil
	})
	// Prewarm 2g Faaslets by holding 2g calls open simultaneously.
	warm := 2 * g
	var pre sync.WaitGroup
	var preErr error
	var preMu sync.Mutex
	for k := 0; k < warm; k++ {
		pre.Add(1)
		go func() {
			defer pre.Done()
			if _, _, err := inst.Call("noop", []byte("w")); err != nil {
				preMu.Lock()
				preErr = err
				preMu.Unlock()
			}
		}()
	}
	for k := 0; k < warm; k++ {
		<-started
	}
	close(gate)
	pre.Wait()
	if preErr != nil {
		return 0, 0, 0, preErr
	}

	lats := make([][]time.Duration, g)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := make([]time.Duration, 0, callsPerG)
			for k := 0; k < callsPerG; k++ {
				t0 := time.Now()
				if _, _, err := inst.Call("noop", nil); err != nil {
					return
				}
				mine = append(mine, time.Since(t0))
			}
			lats[w] = mine
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		return 0, 0, 0, fmt.Errorf("no calls completed")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p50 := all[len(all)/2]
	p99 := all[(len(all)*99)/100]
	return float64(len(all)) / elapsed.Seconds(), p50, p99, nil
}
