package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The generator is closed loop: nproc workers, one keep-alive connection
// each, every worker sending its next request only after the previous reply
// has been read to its last byte. See README.md for why not open loop.

// newClient returns an HTTP client capped at conns keep-alive connections to
// the daemon, the only connections the generator ever opens to it.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			MaxIdleConns:        conns,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// request is one generated invocation and what its reply must be.
type request struct {
	fn   string
	body []byte
	// want is the exact expected output, when the oracle is an equality.
	want []byte
	// key and stamp identify a state_write for the end-of-window check.
	key   int
	stamp uint64
}

// invoke POSTs one request and returns the reply body once fully read. A
// transport error, a status other than 200 or a non-zero guest return code
// is an error.
func invoke(c *http.Client, base string, r request) ([]byte, error) {
	resp, err := c.Post(base+"/invoke/"+r.fn, "application/octet-stream", bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", r.fn, resp.StatusCode, bytes.TrimSpace(out))
	}
	if rc := resp.Header.Get("X-Faasm-Return-Code"); rc != "0" {
		return nil, fmt.Errorf("%s: guest return code %q", r.fn, rc)
	}
	return out, nil
}

// window is what one closed-loop measurement saw.
type window struct {
	latMs     []float64 // successful requests, ascending
	attempted int
	failed    int // transport errors + non-200 + oracle mismatches
	elapsed   time.Duration
	firstErr  error
}

func (w *window) ok() int { return w.attempted - w.failed }

// add appends another window's requests; latMs is left unsorted.
func (w *window) add(o window) {
	w.latMs = append(w.latMs, o.latMs...)
	w.attempted += o.attempted
	w.failed += o.failed
	w.elapsed += o.elapsed
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
}

// loadPhase separates the generated streams of one workload: the same index
// yields different requests in the warm-up and in the measured window.
type loadPhase uint64

const (
	phaseFirstPass loadPhase = iota
	phaseWarmup
	phaseWindow
	phaseProbe
)

// runClosedLoop drives base with conns workers until dur has passed (when
// count is 0) or exactly count requests have been sent. Request i is
// gen(i); check verifies a reply.
func runClosedLoop(c *http.Client, base string, conns int, dur time.Duration, count uint64,
	gen func(i uint64) request, check func(r request, out []byte) error) window {

	var next atomic.Uint64
	var mu sync.Mutex
	var res window
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			attempted, failed := 0, 0
			var firstErr error
			for {
				i := next.Add(1) - 1
				if count > 0 && i >= count {
					break
				}
				if count == 0 && !time.Now().Before(deadline) {
					break
				}
				r := gen(i)
				t0 := time.Now()
				out, err := invoke(c, base, r)
				d := time.Since(t0)
				if err == nil {
					err = check(r, out)
				}
				attempted++
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				lat = append(lat, float64(d)/float64(time.Millisecond))
			}
			mu.Lock()
			res.latMs = append(res.latMs, lat...)
			res.attempted += attempted
			res.failed += failed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	sort.Float64s(res.latMs)
	return res
}

// scrape fetches and parses a daemon's /metrics.
func scrape(c *http.Client, p *proc) (promSeries, error) {
	resp, err := c.Get(p.url("/metrics"))
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", p.name, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", p.name, err)
	}
	return parsePromText(string(b)), nil
}

// sample is the outside view of the deployment at one instant: every
// daemon's counters and consumed CPU, and the generator's own CPU.
type sample struct {
	host      promSeries
	shards    []promSeries
	hostCPU   float64 // ms
	shardCPU  float64 // ms, both shards
	loadgen   float64 // ms
	wallClock time.Time
}

// daemonCPUms is the CPU time the host and both shards have consumed.
func daemonCPUms(d *deployment) (float64, error) {
	var total float64
	for _, p := range d.procs() {
		cpu, err := procCPUms(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += cpu
	}
	return total, nil
}

// takeSample scrapes all three daemons and reads their CPU clocks.
func takeSample(c *http.Client, d *deployment) (sample, error) {
	var s sample
	var err error
	if s.host, err = scrape(c, d.host); err != nil {
		return s, err
	}
	if s.hostCPU, err = procCPUms(d.host.cmd.Process.Pid); err != nil {
		return s, err
	}
	for _, sh := range d.shards {
		series, err := scrape(c, sh)
		if err != nil {
			return s, err
		}
		s.shards = append(s.shards, series)
		cpu, err := procCPUms(sh.cmd.Process.Pid)
		if err != nil {
			return s, err
		}
		s.shardCPU += cpu
	}
	if s.loadgen, err = procCPUms(os.Getpid()); err != nil {
		return s, err
	}
	s.wallClock = time.Now()
	return s, nil
}

// outside is what one window changed, seen from outside the daemons:
// counter deltas and CPU consumed, plus the gauges as the window ended.
type outside struct {
	hostDelta  promSeries   // after − before, every host series
	hostEnd    promSeries   // the host's series at window end
	shardsEnd  []promSeries // each shard's series at window end
	hostCPU    float64      // ms
	shardCPU   float64      // ms, both shards
	loadgenCPU float64      // ms
	wall       time.Duration
}

func diffSamples(before, after sample) outside {
	o := outside{
		hostDelta:  promSeries{},
		hostEnd:    after.host,
		shardsEnd:  after.shards,
		hostCPU:    after.hostCPU - before.hostCPU,
		shardCPU:   after.shardCPU - before.shardCPU,
		loadgenCPU: after.loadgen - before.loadgen,
		wall:       after.wallClock.Sub(before.wallClock),
	}
	for series, v := range after.host {
		o.hostDelta[series] = v - before.host[series]
	}
	return o
}

// add folds a later window in: deltas sum, end states are the later ones.
func (o *outside) add(p outside) {
	if o.hostDelta == nil {
		o.hostDelta = promSeries{}
	}
	for series, v := range p.hostDelta {
		o.hostDelta[series] += v
	}
	o.hostEnd, o.shardsEnd = p.hostEnd, p.shardsEnd
	o.hostCPU += p.hostCPU
	o.shardCPU += p.shardCPU
	o.loadgenCPU += p.loadgenCPU
	o.wall += p.wall
}

// nproc is the generator's width: worker goroutines, connections and
// GOMAXPROCS are all this many.
func nproc() int { return runtime.NumCPU() }
