package main

import (
	"flag"
	"time"

	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/obsv"
	"faasm.dev/faasm/internal/queue"
	"faasm.dev/faasm/internal/sched"
	"faasm.dev/faasm/internal/shardkvs"
)

// config is everything faasmd's command line sets. Each flag binds straight
// into the field of the package config it feeds, and a flag with a package
// default takes that package's exported constant as its own, so -help prints
// the value the daemon runs with.
type config struct {
	listen    string
	kvsListen string // also serve a tier shard here ("" = none)
	state     string // comma-separated tier endpoints ("" = in-process)
	// expirySweep is the expiry-sweep cadence of engines this process hosts.
	expirySweep time.Duration

	// runtime.Queue points at queue when -async-queue is set.
	runtime frt.Config
	queue   queue.Config
	ring    shardkvs.Options
	// dialTimeout and retry are every tier client's kvs.Client settings.
	dialTimeout time.Duration
	retry       kvs.RetryPolicy
}

// parseFlags registers faasmd's flags on fs and parses args into a config.
func parseFlags(fs *flag.FlagSet, args []string) (*config, error) {
	c := &config{}
	var async bool
	fs.StringVar(&c.listen, "listen", ":8090", "HTTP listen address")
	fs.StringVar(&c.runtime.Host, "host", "faasmd-0", "this instance's cluster name")
	fs.StringVar(&c.kvsListen, "kvs", "", "also serve a kvs global-tier shard on this address")
	fs.DurationVar(&c.expirySweep, "expiry-sweep", kvs.DefaultSweepInterval, "background sweep cadence for tier-side key expiry on engines this process hosts")

	fs.StringVar(&c.state, "state", "", "comma-separated kvs shard endpoints (empty = in-process; >1 shards the tier)")
	fs.IntVar(&c.ring.Replication, "state-replicas", 1, "copies per key when the tier is sharded")
	fs.IntVar(&c.ring.WriteQuorum, "state-write-quorum", 0, "copies that must acknowledge a replicated tier write (0 = all; W<replicas keeps writing while a shard is down)")
	fs.DurationVar(&c.ring.HealInterval, "state-heal-interval", 0, "probe and re-sync suspect tier shards on this cadence (0 = off; sharded tier)")
	fs.DurationVar(&c.dialTimeout, "kvs-dial-timeout", kvs.DefaultDialTimeout, "dial timeout for tier shard connections")
	fs.IntVar(&c.retry.Max, "kvs-retry-max", kvs.DefaultRetryMax, "retries per tier operation on connect/timeout failures, with exponential backoff (<0 = never retry)")

	fs.IntVar(&c.runtime.PoolCap, "pool-cap", frt.DefaultPoolCap, "idle warm Faaslets kept per function")
	fs.DurationVar(&c.runtime.LeaseTTL, "lease-ttl", sched.DefaultLeaseTTL, "liveness lease on this host's warm advertisements; heartbeats run at a third of it")
	fs.BoolVar(&c.runtime.ElasticPool, "elastic-pool", false, "autoscale warm pools: grow ahead of misses, shrink on idle")
	fs.DurationVar(&c.runtime.PoolIdleTimeout, "pool-idle-timeout", frt.DefaultPoolIdleTimeout, "idle time before an elastic pool starts shrinking")
	fs.IntVar(&c.runtime.TraceSample, "trace-sample", obsv.DefaultSampleRate, "trace 1-in-N invocations (1 = all, <0 = off)")
	fs.IntVar(&c.runtime.TraceBuffer, "trace-buffer", obsv.DefaultTraceBuffer, "finished traces retained for /trace and /traces")

	fs.BoolVar(&async, "async-queue", false, "enable the durable async invocation queue: POST /invoke/<name>?async=1 enqueues and acks with a call id, GET /call/<id> reads the result")
	fs.IntVar(&c.queue.DepthCap, "queue-depth", queue.DefaultDepthCap, "per-function depth cap on queued-plus-in-flight async calls; submits beyond it are rejected 429")
	fs.IntVar(&c.queue.RetryMax, "queue-retry-max", queue.DefaultRetryMax, "redeliveries after a failed async execution before the call dead-letters (<0 = none, 0 = the default)")
	fs.DurationVar(&c.queue.LeaseTTL, "queue-lease-ttl", queue.DefaultLeaseTTL, "in-flight redelivery lease: a consumer dead this long after claiming has its item reclaimed")

	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if async {
		c.runtime.Queue = &c.queue
	}
	return c, nil
}
