package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/obsv"
	"faasm.dev/faasm/internal/queue"
	"faasm.dev/faasm/internal/sched"
	"faasm.dev/faasm/internal/shardkvs"
)

func parse(t *testing.T, args ...string) (*config, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("faasmd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c, err := parseFlags(fs, args)
	if err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return c, fs
}

// With no arguments every value is its owning package's default constant.
func TestFlagDefaultsArePackageConstants(t *testing.T) {
	got, _ := parse(t)
	want := &config{
		listen:      ":8090",
		expirySweep: kvs.DefaultSweepInterval,
		runtime: frt.Config{
			Host:            "faasmd-0",
			PoolCap:         frt.DefaultPoolCap,
			LeaseTTL:        sched.DefaultLeaseTTL,
			PoolIdleTimeout: frt.DefaultPoolIdleTimeout,
			TraceSample:     obsv.DefaultSampleRate,
			TraceBuffer:     obsv.DefaultTraceBuffer,
		},
		queue: queue.Config{
			DepthCap: queue.DefaultDepthCap,
			RetryMax: queue.DefaultRetryMax,
			LeaseTTL: queue.DefaultLeaseTTL,
		},
		ring:        shardkvs.Options{Replication: 1},
		dialTimeout: kvs.DefaultDialTimeout,
		retry:       kvs.RetryPolicy{Max: kvs.DefaultRetryMax},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("defaults:\n got %+v\nwant %+v", got, want)
	}
}

// Every flag lands in its field: a non-default value set on the command line
// is the value the field holds.
func TestEveryFlagLandsInItsField(t *testing.T) {
	cases := []struct {
		flag, value string
		field       func(*config) any
		want        any
	}{
		{"listen", "127.0.0.1:1", func(c *config) any { return c.listen }, "127.0.0.1:1"},
		{"host", "h9", func(c *config) any { return c.runtime.Host }, "h9"},
		{"kvs", "127.0.0.1:2", func(c *config) any { return c.kvsListen }, "127.0.0.1:2"},
		{"expiry-sweep", "3s", func(c *config) any { return c.expirySweep }, 3 * time.Second},
		{"state", "a:1,b:2", func(c *config) any { return c.state }, "a:1,b:2"},
		{"state-replicas", "3", func(c *config) any { return c.ring.Replication }, 3},
		{"state-write-quorum", "2", func(c *config) any { return c.ring.WriteQuorum }, 2},
		{"state-heal-interval", "300ms", func(c *config) any { return c.ring.HealInterval }, 300 * time.Millisecond},
		{"kvs-dial-timeout", "500ms", func(c *config) any { return c.dialTimeout }, 500 * time.Millisecond},
		{"kvs-retry-max", "-1", func(c *config) any { return c.retry.Max }, -1},
		{"pool-cap", "7", func(c *config) any { return c.runtime.PoolCap }, 7},
		{"lease-ttl", "900ms", func(c *config) any { return c.runtime.LeaseTTL }, 900 * time.Millisecond},
		{"elastic-pool", "true", func(c *config) any { return c.runtime.ElasticPool }, true},
		{"pool-idle-timeout", "2s", func(c *config) any { return c.runtime.PoolIdleTimeout }, 2 * time.Second},
		{"trace-sample", "-1", func(c *config) any { return c.runtime.TraceSample }, -1},
		{"trace-buffer", "16", func(c *config) any { return c.runtime.TraceBuffer }, 16},
		{"async-queue", "true", func(c *config) any { return c.runtime.Queue == &c.queue }, true},
		{"queue-depth", "512", func(c *config) any { return c.queue.DepthCap }, 512},
		{"queue-retry-max", "-1", func(c *config) any { return c.queue.RetryMax }, -1},
		{"queue-lease-ttl", "2s", func(c *config) any { return c.queue.LeaseTTL }, 2 * time.Second},
	}
	def, fs := parse(t)
	covered := map[string]bool{}
	for _, tc := range cases {
		c, _ := parse(t, "-"+tc.flag+"="+tc.value)
		if got := tc.field(c); got != tc.want || got == tc.field(def) {
			t.Errorf("-%s=%s: field = %v, want %v (default %v)", tc.flag, tc.value, got, tc.want, tc.field(def))
		}
		covered[tc.flag] = true
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !covered[f.Name] {
			t.Errorf("-%s has no row in the table", f.Name)
		}
	})
}

// faasmd runs no fleet controller, tier reads always fail over, a cold miss
// reads a view the heartbeat refreshes rather than a TTL'd cache, and faasmd
// has no transport to forward a call through (so neither the locality weight
// nor shard co-location could steer one), so the fleet flags, the failover
// switch, the peer-cache TTL and the two locality flags are unknown flags,
// not silently ignored ones.
func TestRemovedFlagsAreUnknown(t *testing.T) {
	for _, arg := range []string{"-autoscale", "-min-hosts=2", "-max-hosts=6", "-scale-cooldown=1s", "-state-read-failover", "-peer-cache-ttl=1s", "-locality-weight=8", "-shard-id=s1"} {
		fs := flag.NewFlagSet("faasmd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if _, err := parseFlags(fs, []string{arg}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an unknown-flag error", arg, err)
		}
	}
}

// The two command lines the benchmark starts faasmd with keep the effective
// configuration they had when main copied each flag into frt.Config by hand:
// then every unset knob reached frt, sched, obsv and kvs as 0, which those
// packages resolve to the values below.
func TestBenchArgVectorsKeepTheirEffectiveConfig(t *testing.T) {
	runtime := func(traceSample int) frt.Config {
		return frt.Config{
			Host:            "faasmd-0",
			PoolCap:         64,
			LeaseTTL:        10 * time.Second,
			PoolIdleTimeout: 30 * time.Second,
			TraceSample:     traceSample,
			TraceBuffer:     1024,
		}
	}
	for _, tc := range []struct {
		args    []string
		runtime frt.Config
		ring    shardkvs.Options
	}{
		{[]string{"-kvs", "127.0.0.1:16500"}, runtime(64), shardkvs.Options{Replication: 1}},
		{[]string{"-state", "a:1,b:2", "-state-replicas", "2", "-trace-sample", "-1"}, runtime(-1), shardkvs.Options{Replication: 2}},
	} {
		c, _ := parse(t, tc.args...)
		if !reflect.DeepEqual(c.runtime, tc.runtime) {
			t.Errorf("%q: runtime\n got %+v\nwant %+v", tc.args, c.runtime, tc.runtime)
		}
		if !reflect.DeepEqual(c.ring, tc.ring) {
			t.Errorf("%q: ring options %+v, want %+v", tc.args, c.ring, tc.ring)
		}
		if c.dialTimeout != 5*time.Second || c.retry != (kvs.RetryPolicy{Max: 2}) || c.expirySweep != time.Second {
			t.Errorf("%q: client dial %v retry %+v, sweep %v", tc.args, c.dialTimeout, c.retry, c.expirySweep)
		}
	}
}
