package faasm_test

// One testing.B benchmark per table and figure of the paper's evaluation.
// Each wraps the corresponding experiment from internal/experiments in its
// quick configuration; `cmd/faasm-bench` runs the full-sized sweeps and
// prints their reports. Benchmarks report one run per iteration, so ns/op
// approximates one complete experiment pass.

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"faasm.dev/faasm/internal/core"
	"faasm.dev/faasm/internal/experiments"
	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/shardkvs"
)

var quick = experiments.Options{Quick: true}

func benchReport(b *testing.B, run func(experiments.Options) *experiments.Report) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := run(quick)
		if len(r.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
		if i == 0 && testing.Verbose() {
			r.Fprint(io.Discard)
		}
	}
}

// BenchmarkTable1Isolation regenerates Table 1 (isolation approaches).
func BenchmarkTable1Isolation(b *testing.B) { benchReport(b, experiments.Table1) }

// BenchmarkTable3ColdStart regenerates Table 3 (cold-start comparison).
func BenchmarkTable3ColdStart(b *testing.B) { benchReport(b, experiments.Table3) }

// BenchmarkTable3Python regenerates the §6.5 Python no-op comparison.
func BenchmarkTable3Python(b *testing.B) { benchReport(b, experiments.Table3Python) }

// BenchmarkFig6SGD regenerates Fig 6 (training time / transfers / memory).
func BenchmarkFig6SGD(b *testing.B) { benchReport(b, experiments.Fig6) }

// BenchmarkFig6Small regenerates the §6.2 reduced-dataset run.
func BenchmarkFig6Small(b *testing.B) { benchReport(b, experiments.Fig6Small) }

// BenchmarkFig7Inference regenerates Fig 7a (latency vs throughput).
func BenchmarkFig7Inference(b *testing.B) { benchReport(b, experiments.Fig7) }

// BenchmarkFig7LatencyCDF regenerates Fig 7b (latency CDF).
func BenchmarkFig7LatencyCDF(b *testing.B) { benchReport(b, experiments.Fig7CDF) }

// BenchmarkFig8Matmul regenerates Fig 8 (matmul duration / transfers).
func BenchmarkFig8Matmul(b *testing.B) { benchReport(b, experiments.Fig8) }

// BenchmarkFig9aPolybench regenerates Fig 9a (kernel overhead vs native).
func BenchmarkFig9aPolybench(b *testing.B) { benchReport(b, experiments.Fig9a) }

// BenchmarkFig9bPython regenerates Fig 9b (dynamic-language overhead).
func BenchmarkFig9bPython(b *testing.B) { benchReport(b, experiments.Fig9b) }

// BenchmarkFig10Churn regenerates Fig 10 (creation latency vs churn).
func BenchmarkFig10Churn(b *testing.B) { benchReport(b, experiments.Fig10) }

// BenchmarkStateScale regenerates the state-tier scaling experiment
// (sharded vs single global store).
func BenchmarkStateScale(b *testing.B) { benchReport(b, experiments.StateScale) }

// BenchmarkInvokeScale regenerates the invocation hot-path experiment
// (parallel warm-call throughput + scheduler global-op accounting).
func BenchmarkInvokeScale(b *testing.B) { benchReport(b, experiments.InvokeScale) }

// BenchmarkElasticity regenerates the elastic-scheduling experiment
// (warm-pool grow-ahead vs static sizing + leased-liveness failover drain).
func BenchmarkElasticity(b *testing.B) { benchReport(b, experiments.Elasticity) }

// BenchmarkLocality regenerates the locality-aware forwarding experiment
// (remote state bytes with the locality weight off vs on, sgd + dmatmul).
func BenchmarkLocality(b *testing.B) { benchReport(b, experiments.Locality) }

// BenchmarkAutoscale regenerates the cluster-autoscaler experiment
// (host count follows a 10x load ramp; safe drains back to the floor).
func BenchmarkAutoscale(b *testing.B) { benchReport(b, experiments.Autoscale) }

// BenchmarkBatchedVsSingleOps demonstrates the batch surface's win through
// the TCP client: one pipelined MGet/MSet/GetRanges exchange against N
// single round trips for the same data.
func BenchmarkBatchedVsSingleOps(b *testing.B) {
	srv, err := kvs.NewServer(kvs.NewEngine(), "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c := kvs.NewClient(srv.Addr())
	defer c.Close()

	const batch = 64
	val := make([]byte, 4096)
	keys := make([]string, batch)
	pairs := make([]kvs.Pair, batch)
	for i := range keys {
		keys[i] = fmt.Sprintf("bk-%d", i)
		pairs[i] = kvs.Pair{Key: keys[i], Val: val}
		if err := c.Set(keys[i], val); err != nil {
			b.Fatal(err)
		}
	}
	ranges := make([]kvs.Range, 16)
	for i := range ranges {
		ranges[i] = kvs.Range{Off: i * 256, N: 128}
	}

	b.Run("single-get-64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				if _, err := c.Get(k); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("mget-64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			vals, err := c.MGet(keys)
			if err != nil || len(vals) != batch {
				b.Fatalf("mget: %d %v", len(vals), err)
			}
		}
	})
	b.Run("single-set-64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				if err := c.Set(p.Key, p.Val); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("mset-64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := c.MSet(pairs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("single-getrange-16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, rg := range ranges {
				if _, err := c.GetRange(keys[0], rg.Off, rg.N); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("getranges-16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.GetRanges(keys[0], ranges); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWarmInvokeThroughput measures the per-host invocation hot path:
// closed-loop warm calls to a no-op function from 1, 4 and 16 goroutines.
// The pool is prewarmed with 2× the goroutine count so warm acquires never
// cold-start; ns/op is then the full per-call runtime overhead (scheduling,
// pool acquire/release, call bookkeeping) and 1e9/ns-op is calls/sec.
func BenchmarkWarmInvokeThroughput(b *testing.B) {
	for _, g := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines-%d", g), func(b *testing.B) {
			inst := frt.New(frt.Config{Host: "bench", PoolCap: 256})
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
			// Prewarm: hold 2g concurrent calls open so the pool ends up
			// with 2g Faaslets, then let them all finish.
			warm := 2 * g
			var wg sync.WaitGroup
			for k := 0; k < warm; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, _, err := inst.Call("noop", []byte("w")); err != nil {
						b.Error(err)
					}
				}()
			}
			for k := 0; k < warm; k++ {
				<-started
			}
			close(gate)
			wg.Wait()
			if b.Failed() {
				return
			}

			b.ResetTimer()
			b.ReportAllocs()
			var next atomic.Int64
			var run sync.WaitGroup
			for k := 0; k < g; k++ {
				run.Add(1)
				go func() {
					defer run.Done()
					for next.Add(1) <= int64(b.N) {
						if _, _, err := inst.Call("noop", nil); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			run.Wait()
		})
	}
}

// BenchmarkShardedVsSingleStore compares raw global-tier throughput under
// concurrent mixed load: the paper's single engine against consistent-hash
// rings of 4 and 8 shards, and a replicated ring.
func BenchmarkShardedVsSingleStore(b *testing.B) {
	stores := []struct {
		name string
		mk   func() kvs.Store
	}{
		{"single-engine", func() kvs.Store { return kvs.NewEngine() }},
		{"4-shards", func() kvs.Store { return shardkvs.NewLocal(4, shardkvs.Options{}) }},
		{"8-shards", func() kvs.Store { return shardkvs.NewLocal(8, shardkvs.Options{}) }},
		{"4-shards-r2", func() kvs.Store {
			return shardkvs.NewLocal(4, shardkvs.Options{Replication: 2})
		}},
	}
	val := make([]byte, 4096)
	for _, sc := range stores {
		b.Run(sc.name, func(b *testing.B) {
			s := sc.mk()
			var seq atomic.Uint64
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := seq.Add(1)
					key := fmt.Sprintf("bench-%d", i%512)
					switch i % 3 {
					case 0:
						if err := s.Set(key, val); err != nil {
							b.Error(err)
							return
						}
					case 1:
						if _, err := s.Get(key); err != nil {
							b.Error(err)
							return
						}
					default:
						if _, err := s.Incr("ctr-"+key, 1); err != nil {
							b.Error(err)
							return
						}
					}
				}
			})
		})
	}
}
