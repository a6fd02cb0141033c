package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"faasm.dev/faasm/internal/cluster"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/shardkvs"
	"faasm.dev/faasm/internal/workloads/sgd"
)

// StateScale measures the global-tier scaling this repo adds beyond the
// paper: the paper's single Redis-like store is the ceiling on cluster-wide
// state throughput, and internal/shardkvs raises it by sharding the key
// space. Two sections:
//
//   - tier: raw store throughput under concurrent mixed load, single engine
//     vs consistent-hash rings of 2/4/8 shards (plus a replicated ring, to
//     price the write fan-out);
//   - macro: the Fig 6 SGD training workload run unmodified against each
//     tier size, showing the sharded tier is a drop-in for real guests.
func StateScale(opts Options) *Report {
	workers := 16
	opsPerWorker := 20_000
	macroShards := []int{1, 2, 4, 8}
	if opts.Quick {
		opsPerWorker = 4_000
		macroShards = []int{1, 4}
	}

	r := &Report{
		ID:     "state-scale",
		Title:  "Global state tier: sharded vs single-store throughput",
		Header: []string{"section", "config", "ops/s", "speedup", "time", "accuracy"},
	}

	type tierCase struct {
		label  string
		shards int
		opts   shardkvs.Options
	}
	cases := []tierCase{
		{"1 engine (paper)", 1, shardkvs.Options{}},
		{"2 shards", 2, shardkvs.Options{}},
		{"4 shards", 4, shardkvs.Options{}},
		{"8 shards", 8, shardkvs.Options{}},
		{"4 shards, R=2", 4, shardkvs.Options{Replication: 2}},
	}
	var baseline float64
	for _, tc := range cases {
		var store kvs.Store
		if tc.shards == 1 {
			store = kvs.NewEngine()
		} else {
			store = shardkvs.NewLocal(tc.shards, tc.opts)
		}
		opsPerSec := measureStoreThroughput(store, workers, opsPerWorker)
		speedup := "-"
		if tc.shards == 1 && tc.opts.Replication <= 1 {
			baseline = opsPerSec
		} else if baseline > 0 {
			speedup = fmt.Sprintf("%.2fx", opsPerSec/baseline)
		}
		r.Add("tier", tc.label, fmt.Sprintf("%.0f", opsPerSec), speedup, "-", "-")
	}

	// Batch: the same stores driven through the batch surface (MGet /
	// MSet groups of 16), counted in single-op equivalents, against the
	// single-op loop. In process the win is fewer lock acquisitions and map
	// probes; over the wire (BenchmarkBatchedVsSingleOps) it is fewer round
	// trips.
	for _, tc := range cases {
		var store kvs.Store
		if tc.shards == 1 {
			store = kvs.NewEngine()
		} else {
			store = shardkvs.NewLocal(tc.shards, tc.opts)
		}
		opsPerSec := measureBatchedThroughput(store, workers, opsPerWorker)
		speedup := "-"
		if baseline > 0 {
			speedup = fmt.Sprintf("%.2fx", opsPerSec/baseline)
		}
		r.Add("batch", tc.label, fmt.Sprintf("%.0f", opsPerSec), speedup, "-", "-")
	}

	// Macro: the training workload from Fig 6, quick-sized, per shard count.
	params := sgd.DefaultParams()
	params.Examples = 1024
	params.Features = 512
	params.Epochs = 2
	params.Workers = 16
	ds := sgd.Generate(params)
	for _, shards := range macroShards {
		c := cluster.New(cluster.Config{
			Mode: cluster.ModeFaasm, Hosts: 4, TimeScale: 2000,
			StateShards: shards,
		})
		if err := ds.Seed(c); err != nil {
			r.Note("seed (%d shards): %v", shards, err)
			c.Shutdown()
			continue
		}
		if err := sgd.Register(c); err != nil {
			r.Note("register (%d shards): %v", shards, err)
			c.Shutdown()
			continue
		}
		start := c.Clock.Now()
		_, ret, err := c.Call("sgd-main", sgd.EncodeMain(params))
		dur := c.Clock.Now().Sub(start)
		acc := "-"
		if err == nil && ret == 0 {
			w, _ := c.GetState(sgd.KeyWeights)
			acc = fmt.Sprintf("%.2f", ds.Accuracy(w))
		} else {
			acc = fmt.Sprintf("failed ret=%d err=%v", ret, err)
		}
		r.Add("macro-sgd", fmt.Sprintf("%d shard(s)", shards), "-", "-", fmtDur(dur), acc)
		c.Shutdown()
	}

	r.Note("tier: %d goroutines × %d mixed ops (4 KB set/get, incr, range) on 512 keys, wall clock, GOMAXPROCS=%d", workers, opsPerWorker, runtime.GOMAXPROCS(0))
	r.Note("batch: same load through MGet/MSet groups of 16 (single-op equivalents); speedup is vs the single-op single-engine baseline. In process the batch surface amortises lock acquisitions, which only pays under multi-core contention — on one core it shows its grouping overhead; the round-trip win over TCP is BenchmarkBatchedVsSingleOps")
	r.Note("macro: SGD %d×%d, %d workers on 4 hosts; training answers must not change with shard count", params.Examples, params.Features, params.Workers)
	r.Note("expected shape: with multiple cores, tier throughput grows with shards (the single engine copies value bytes under one mutex); on one core sharding shows only its routing overhead. R=2 pays ~2x write amplification")
	return r
}

// measureBatchedThroughput drives the same key space through the batch
// surface: each worker iteration is one MGet or MSet of batchSize keys,
// counted as batchSize single-op equivalents so the result compares
// directly with measureStoreThroughput.
func measureBatchedThroughput(store kvs.Store, workers, opsPerWorker int) float64 {
	const keySpace = 512
	const batchSize = 16
	val := make([]byte, 4096)
	var wg sync.WaitGroup
	var failed atomic.Bool
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := make([]string, batchSize)
			pairs := make([]kvs.Pair, batchSize)
			for i := 0; i < opsPerWorker/batchSize; i++ {
				base := w*opsPerWorker + i*batchSize
				for j := range keys {
					keys[j] = fmt.Sprintf("bench-%d", (base+j)%keySpace)
					pairs[j] = kvs.Pair{Key: keys[j], Val: val}
				}
				var err error
				if i%2 == 0 {
					err = store.MSet(pairs)
				} else {
					_, err = store.MGet(keys)
				}
				if err != nil {
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() {
		return 0
	}
	ops := workers * (opsPerWorker / batchSize) * batchSize
	return float64(ops) / time.Since(start).Seconds()
}

// measureStoreThroughput drives a mixed workload and returns ops/second on
// the wall clock.
func measureStoreThroughput(store kvs.Store, workers, opsPerWorker int) float64 {
	// 4 KB values: the engine copies value bytes while holding its one
	// mutex, which is precisely the serialisation sharding removes.
	const keySpace = 512
	val := make([]byte, 4096)
	var wg sync.WaitGroup
	var failed atomic.Bool
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWorker; i++ {
				key := fmt.Sprintf("bench-%d", (w*opsPerWorker+i)%keySpace)
				var err error
				switch i % 4 {
				case 0:
					err = store.Set(key, val)
				case 1:
					_, err = store.Get(key)
				case 2:
					_, err = store.Incr("ctr-"+key, 1)
				default:
					_, err = store.GetRange(key, 0, 32)
				}
				if err != nil {
					failed.Store(true)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() {
		return 0
	}
	return float64(workers*opsPerWorker) / time.Since(start).Seconds()
}
