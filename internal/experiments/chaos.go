package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"faasm.dev/faasm/internal/cluster"
	"faasm.dev/faasm/internal/hostapi"
	"faasm.dev/faasm/internal/shardkvs"
	"faasm.dev/faasm/internal/simnet"

	"faasm.dev/faasm/internal/kvs"
)

// StateChaos is the robustness gate for the sharded tier: kill one shard
// under mixed traffic with R=2 copies, W=1 write quorum, and failover reads,
// then revive it and let read-repair converge. Two sections:
//
//   - ring: the raw shardkvs ring under concurrent mixed load. Gate: zero
//     failed operations during the outage, failovers observed, and after
//     Heal the revived shard is at parity with its peers (no suspects).
//   - cluster: the same outage under the multi-host harness, with call
//     traffic whose guests read tier state. Gate: zero failed invocations.
//
// Each condition is a Check; TestGates enforces them in CI (with -race, so
// the failover paths are also race-checked).
func StateChaos(opts Options) *Report {
	iters := 2000
	if opts.Quick {
		iters = 400
	}

	r := &Report{
		ID:     "state-chaos",
		Title:  "Tier shard failure: failover reads, quorum writes, read-repair",
		Header: []string{"section", "metric", "value", "gate"},
	}

	ringSection(r, iters)
	clusterSection(r, opts)
	r.Note("ring: 3 shards, R=2, W=1, ReadAny+failover; 4 workers × %d mixed ops (set/get/incr); shard-1 killed mid-run and revived, then Heal", iters)
	r.Note("cluster: 3 hosts, 3 shards (R=2, W=1, failover); shard-0 killed under invocations whose guests pull tier state, then revived and healed")
	r.Note("what can be lost: with W<R a write acknowledged only by copies that all later crash is invisible to repair — see the failure model in docs/ARCHITECTURE.md")
	return r
}

func ringSection(r *Report, iters int) {
	const shards = 3
	const workers = 4
	const slots = 8
	engines := map[string]*kvs.Engine{}
	faults := map[string]*simnet.FaultShard{}
	members := make([]shardkvs.Shard, shards)
	for i := range members {
		id := fmt.Sprintf("shard-%d", i)
		engines[id] = kvs.NewEngine()
		faults[id] = simnet.NewFaultShard(engines[id])
		members[i] = shardkvs.Shard{ID: id, Store: faults[id]}
	}
	ring, err := shardkvs.New(shardkvs.Options{
		Replication: 2,
		WriteQuorum: 1,
		ReadPref:    shardkvs.ReadAny,
	}, members...)
	if err != nil {
		r.Check(false, "ring", "build", err.Error())
		return
	}

	// The outage is keyed to operation counts, not the wall clock: the
	// worker whose ops cross a quarter of the total crashes shard-1, the one
	// crossing three quarters revives it, so half the run sees it down
	// however fast the workers go.
	total := int64(workers * iters * 3)
	var crash, restore sync.Once
	var failed atomic.Int64
	var ops atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 1; i <= iters; i++ {
				key := fmt.Sprintf("chaos-%d-%d", w, i%slots)
				if err := ring.Set(key, []byte(fmt.Sprintf("v-%d", i))); err != nil {
					failed.Add(1)
				}
				if _, err := ring.Get(key); err != nil {
					failed.Add(1)
				}
				if _, err := ring.Incr(fmt.Sprintf("ctr-%d", w), 1); err != nil {
					failed.Add(1)
				}
				if n := ops.Add(3); n >= total/4 {
					crash.Do(faults["shard-1"].Crash)
					if n >= total*3/4 {
						restore.Do(faults["shard-1"].Restore)
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()

	healStart := time.Now()
	stats, healErr := ring.Heal()
	recovery := time.Since(healStart)
	st := ring.FailureStats()

	// Parity: after repair every copy of every key must agree with the last
	// write; staleness past Heal is unbounded divergence.
	parityErrs := 0
	for w := 0; w < workers; w++ {
		for s := 0; s < slots; s++ {
			last := 0
			for i := 1; i <= iters; i++ {
				if i%slots == s {
					last = i
				}
			}
			key := fmt.Sprintf("chaos-%d-%d", w, s)
			want := fmt.Sprintf("v-%d", last)
			for _, id := range ring.Owners(key) {
				if v, err := engines[id].Get(key); err != nil || string(v) != want {
					parityErrs++
				}
			}
		}
		for _, id := range ring.Owners(fmt.Sprintf("ctr-%d", w)) {
			if n, err := engines[id].Incr(fmt.Sprintf("ctr-%d", w), 0); err != nil || n != int64(iters) {
				parityErrs++
			}
		}
	}

	r.Add("ring", "ops issued", fmt.Sprint(ops.Load()), "-")
	r.Check(failed.Load() == 0, "ring", "failed ops", fmt.Sprint(failed.Load()))
	r.Check(st.Failovers > 0, "ring", "failovers", fmt.Sprint(st.Failovers))
	r.Add("ring", "divergent writes", fmt.Sprint(st.Divergence), "-")
	r.Add("ring", "repair copies", fmt.Sprint(stats.CopiesWritten), "-")
	r.Add("ring", "recovery time", fmtDur(recovery), "-")
	r.Check(st.Suspects == 0 && healErr == nil, "ring", "suspects after heal", healed(st.Suspects, healErr))
	r.Check(parityErrs == 0, "ring", "parity errors", fmt.Sprint(parityErrs))
}

// healed renders a heal's outcome: the suspects left, and its error if any.
func healed(suspects int64, err error) string {
	if err != nil {
		return fmt.Sprintf("%d (heal: %v)", suspects, err)
	}
	return fmt.Sprint(suspects)
}

func clusterSection(r *Report, opts Options) {
	calls := 120
	if opts.Quick {
		calls = 40
	}
	c := cluster.New(cluster.Config{
		Mode: cluster.ModeFaasm, Hosts: 3, TimeScale: 1000,
		StateShards: 3, StateReplicas: 2, StateWriteQuorum: 1,
		FaultyShards: true,
	})
	defer c.Shutdown()
	if err := c.Register("read", func(api hostapi.API) (int32, error) {
		if err := api.StatePull("data"); err != nil {
			return 1, err
		}
		buf, err := api.StateView("data", -1)
		if err != nil {
			return 2, err
		}
		api.WriteOutput(buf)
		return 0, nil
	}); err != nil {
		r.Check(false, "cluster", "register", err.Error())
		return
	}
	if err := c.SetState("data", []byte("payload")); err != nil {
		r.Check(false, "cluster", "seed", err.Error())
		return
	}
	failedCalls := 0
	drive := func(n int) {
		for i := 0; i < n; i++ {
			out, ret, err := c.Call("read", nil)
			if err != nil || ret != 0 || string(out) != "payload" {
				failedCalls++
			}
			// Tier writes and reads ride along so the dead shard's keys keep
			// changing and its read paths keep being exercised.
			key := fmt.Sprintf("k-%d", i%16)
			want := fmt.Sprintf("v-%d", i)
			if err := c.SetState(key, []byte(want)); err != nil {
				failedCalls++
			}
			if v, err := c.GetState(key); err != nil || string(v) != want {
				failedCalls++
			}
		}
	}
	drive(calls / 4)
	c.KillShard(0)
	drive(calls / 2)
	c.RestoreShard(0)
	drive(calls / 4)
	stats, healErr := c.HealState()
	st := c.StateRing().FailureStats()

	r.Add("cluster", "calls+tier ops", fmt.Sprint(calls*3), "-")
	r.Check(failedCalls == 0, "cluster", "failed", fmt.Sprint(failedCalls))
	r.Check(st.Failovers > 0, "cluster", "failovers", fmt.Sprint(st.Failovers))
	r.Add("cluster", "repair copies", fmt.Sprint(stats.CopiesWritten), "-")
	r.Check(st.Suspects == 0 && healErr == nil, "cluster", "suspects after heal", healed(st.Suspects, healErr))
}
