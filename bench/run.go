package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/shardkvs"
)

const (
	// warmupTime precedes every measured window, on the deployment the
	// window uses; it is not part of setup_s (a constant would only dilute
	// what set-up work costs).
	warmupTime = 2 * time.Second
	// setupRepeats is how many times a run sets the system up from nothing;
	// setup_s is their quiet quartile, the window uses the last deployment.
	setupRepeats = 25
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric name to value, for one workload.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// entry is one workload's measurements: the untraced run fills EndToEnd,
// the traced run PerLayer and Budget, both add to the request tally.
type entry struct {
	Workload  string  `json:"workload"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Samples   int     `json:"samples"` // successful requests of the untraced window
	EndToEnd  metrics `json:"end_to_end,omitempty"`
	PerLayer  metrics `json:"per_layer,omitempty"`
	Budget    *budget `json:"budget,omitempty"`
	// firstErr explains the first failed request or oracle check, if any.
	firstErr error
}

// tally adds attempted and failed requests or checks to the entry.
func (e *entry) tally(attempted, failed int, firstErr error) {
	e.Attempted += attempted
	e.Failed += failed
	if e.firstErr == nil {
		e.firstErr = firstErr
	}
}

// tallyWindow adds a measured window, its end-of-window checks included.
func (e *entry) tallyWindow(m measured) {
	e.tally(m.win.attempted, m.win.failed, m.win.firstErr)
	e.tally(m.verifyBad, m.verifyBad, m.verifyErr)
}

// runner carries what every run of this process shares.
type runner struct {
	root    string // checkout
	outDir  string // bench/out: binary, logs, traces
	bin     string // built faasmd
	buildS  float64
	seed    int64
	seconds time.Duration
	conns   int
	client  *http.Client
	logSeq  int
}

// tierStore attaches to the shards the way the host daemon does (same ring,
// same replication), so seeded values land where the daemon will look.
func tierStore(addrs []string) (*shardkvs.Ring, error) {
	return shardkvs.AttachRemote(addrs, shardkvs.Options{
		Replication: stateReplicas,
		NewStore:    func(addr string) kvs.Store { return kvs.NewClient(addr) },
	})
}

// newLogDir names a fresh log directory for one deployment.
func (r *runner) newLogDir(label string) string {
	r.logSeq++
	return filepath.Join(r.outDir, "logs", fmt.Sprintf("%s-%d", label, r.logSeq))
}

// upload deploys one guest through the daemon's upload endpoint.
func (r *runner) upload(host *proc, name string, g guest) error {
	req, err := http.NewRequest(http.MethodPut, host.url("/f/"+name+"?lang="+g.Lang), bytes.NewReader([]byte(g.Src)))
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("upload %s: %w", name, err)
	}
	body, _ := io.ReadAll(resp.Body) // the status decides; the body is only the explanation
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("upload %s: status %d: %s", name, resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}

// bringUp readies a host for w on d: seed the tier (first host only), start
// the daemon, deploy the guests, send the first pass.
func (r *runner) bringUp(d *deployment, w *workload, traceSample int) error {
	if d.host == nil && w.seedTier != nil {
		ring, err := tierStore(d.shardAddrs())
		if err != nil {
			return fmt.Errorf("attach tier: %w", err)
		}
		err = w.seedTier(ring)
		ring.Close()
		if err != nil {
			return fmt.Errorf("seed tier: %w", err)
		}
	}
	if err := d.startHost(traceSample); err != nil {
		return err
	}
	for _, g := range w.guests {
		if err := r.upload(d.host, g.Name, g); err != nil {
			return err
		}
	}
	first := runClosedLoop(r.client, d.host.url(""), 1, 0, uint64(len(w.firstPass)),
		func(i uint64) request { return w.firstPass[i] }, w.check)
	if first.failed > 0 {
		return fmt.Errorf("first pass: %d of %d failed: %v", first.failed, first.attempted, first.firstErr)
	}
	return d.checkAlive()
}

// setUp builds a whole deployment for workload name and returns it ready,
// with how long that took from the first daemon's exec.
func (r *runner) setUp(name string, traceSample int) (*deployment, *workload, time.Duration, error) {
	w, err := newWorkload(name, r.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	d, err := newDeployment(r.bin, r.newLogDir(name))
	if err != nil {
		return nil, nil, 0, err
	}
	if err := r.bringUp(d, w, traceSample); err != nil {
		d.stop()
		return nil, nil, 0, err
	}
	return d, w, time.Since(d.firstExec), nil
}

// sliceTime is how long one slice of a measured window lasts. Each
// end-to-end metric is computed per slice and reported as the quiet quartile
// over slices (quietQuartile), so bursts of outside interference that cover
// up to three quarters of the run do not set its latency or throughput.
const sliceTime = 2 * time.Second

// slicesIn is how many equal slices a window of dur is cut into.
func slicesIn(dur time.Duration) int { return max(1, int(dur/sliceTime)) }

// slice is one part of a measured window: its requests and the CPU time the
// three daemons consumed while it ran. A cold_first_call round is a slice.
type slice struct {
	win   window
	cpuMs float64
}

// measured is one warm-up plus window on a ready host, with what the window
// changed as seen from outside the daemons.
type measured struct {
	win       window // every slice pooled
	slices    []slice
	out       outside
	hostHWM   float64
	verifyBad int
	verifyErr error
}

func (r *runner) measure(d *deployment, w *workload, warmup, dur time.Duration) (measured, error) {
	var m measured
	base := d.host.url("")
	warm := runClosedLoop(r.client, base, r.conns, warmup, 0,
		func(i uint64) request { return w.gen(phaseWarmup, i) }, w.check)
	if warm.failed > 0 {
		return m, fmt.Errorf("warm-up: %d of %d failed: %v", warm.failed, warm.attempted, warm.firstErr)
	}
	n := slicesIn(dur)
	err := r.observe(d, &m, n, func(k int) window {
		// Each slice continues the stream in its own index range.
		return runClosedLoop(r.client, base, r.conns, dur/time.Duration(n), 0,
			func(i uint64) request { return w.gen(phaseWindow, uint64(k)<<40|i) }, w.check)
	})
	if err != nil {
		return m, err
	}
	if w.verify != nil {
		m.verifyBad, m.verifyErr = w.verify(d.shardAddrs())
		if m.verifyBad == 0 && m.verifyErr != nil {
			return m, m.verifyErr // the tier could not be read at all
		}
	}
	return m, nil
}

// observe runs the slices of one window back to back between two outside
// samples, reads the daemons' CPU clocks at every slice boundary, and
// records the host's peak RSS at the end; a daemon found dead fails the run.
func (r *runner) observe(d *deployment, m *measured, slices int, run func(k int) window) error {
	before, err := takeSample(r.client, d)
	if err != nil {
		return err
	}
	cpu := before.hostCPU + before.shardCPU
	for k := 0; k < slices; k++ {
		win := run(k)
		if err := d.checkAlive(); err != nil {
			return err
		}
		now, err := daemonCPUms(d)
		if err != nil {
			return err
		}
		m.slices = append(m.slices, slice{win: win, cpuMs: now - cpu})
		m.win.add(win)
		cpu = now
	}
	sort.Float64s(m.win.latMs)
	after, err := takeSample(r.client, d)
	if err != nil {
		return err
	}
	m.out = diffSamples(before, after)
	m.hostHWM, err = procHWMmb(d.host.cmd.Process.Pid)
	return err
}

// endToEnd fills the user-visible metrics of one window: each the quiet
// quartile over the window's slices.
func endToEnd(e *entry, m measured, setupS float64) {
	e.tallyWindow(m)
	e.Samples = len(m.win.latMs)
	var tput, p50, tail, cpu []float64
	for _, s := range m.slices {
		if len(s.win.latMs) == 0 {
			continue
		}
		ok := float64(s.win.ok())
		tput = append(tput, ok/s.win.elapsed.Seconds())
		p50 = append(p50, percentile(s.win.latMs, 50))
		tail = append(tail, percentile(s.win.latMs, tailPct))
		cpu = append(cpu, s.cpuMs/ok)
	}
	mt := metrics{}
	e.EndToEnd = mt
	mt.set("setup_s", setupS, "s")
	if len(tput) == 0 {
		return
	}
	mt.set("throughput_rps", quietQuartile(tput, true), "1/s")
	mt.set("lat_p50_ms", quietQuartile(p50, false), "ms")
	mt.set("lat_tail_ms", quietQuartile(tail, false), "ms")
	mt.set("cpu_ms_per_req", quietQuartile(cpu, false), "ms")
	mt.set("host_rss_mb", m.hostHWM, "MiB")
}

// boundaryCounts fills the per-layer metrics read at the daemons' own
// boundaries: /metrics deltas per successful request, and the CPU split.
func boundaryCounts(mt metrics, m measured, conns int) {
	ok := float64(m.win.ok())
	if ok == 0 {
		return
	}
	o := m.out
	per := func(name, series, unit string) { mt.set(name, o.hostDelta.sum(series)/ok, unit) }
	per("frt.cold_starts", "faasm_frt_cold_starts_total", "1/req")
	per("frt.warm_starts", "faasm_frt_warm_starts_total", "1/req")
	per("frt.pool_misses", "faasm_frt_pool_misses_total", "1/req")
	per("mbus.calls_created", "faasm_mbus_calls_created_total", "1/req")
	per("sched.decisions", "faasm_sched_decisions_total", "1/req")
	per("shardkvs.reads", "faasm_shardkvs_reads_total", "1/req")
	per("shardkvs.writes", "faasm_shardkvs_writes_total", "1/req")
	per("state.pulled_bytes", "faasm_state_pulled_bytes_total", "B/req")
	per("state.pushed_bytes", "faasm_state_pushed_bytes_total", "B/req")
	mt.set("frt.faaslets", o.hostEnd.sum("faasm_frt_faaslets"), "count")
	if n := o.hostDelta.sum("faasm_frt_exec_seconds_count"); n > 0 {
		mt.set("frt.exec_mean_us", o.hostDelta.sum("faasm_frt_exec_seconds_sum")/n*1e6, "us")
	}
	var keys, bytes float64
	for _, s := range o.shardsEnd {
		keys += s.sum("faasm_kvs_keys")
		bytes += s.sum("faasm_kvs_value_bytes")
	}
	mt.set("kvs.keys", keys/float64(len(o.shardsEnd)), "count")
	mt.set("kvs.value_bytes", bytes/float64(len(o.shardsEnd)), "B")
	mt.set("ingress.host_cpu_ms_per_req", o.hostCPU/ok, "ms")
	mt.set("kvs.shard_cpu_ms_per_req", o.shardCPU/ok, "ms")
	mt.set("loadgen.cpu_frac", o.loadgenCPU/(float64(o.wall.Milliseconds())*float64(conns)), "frac")
}

// runUntraced measures one workload's end-to-end metrics with tracing off.
func (r *runner) runUntraced(e *entry) error {
	if e.Workload == wlCold {
		return r.runColdUntraced(e)
	}
	var setups []float64
	var d *deployment
	var w *workload
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		var err error
		if d, w, took, err = r.setUp(e.Workload, -1); err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
	}
	defer d.stop()
	m, err := r.measure(d, w, warmupTime, r.seconds)
	if err != nil {
		return err
	}
	endToEnd(e, m, quietQuartile(setups, false))
	return nil
}

// coldRound is one round of cold_first_call on a fresh host: upload K
// functions (set-up), then invoke each exactly once (measured).
type coldRound struct {
	setupS float64
	m      measured
}

// coldRoundN runs round on a fresh host and invokes the first invoke
// functions of the round's seeded order.
func (r *runner) coldRoundN(d *deployment, round, traceSample, invoke int) (coldRound, error) {
	var cr coldRound
	hostStart := time.Now()
	if d.host == nil {
		hostStart = d.firstExec // the first round also pays for the shards
	}
	if err := d.startHost(traceSample); err != nil {
		return cr, err
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, r.conns) // one slot per uploader
	for k := 0; k < r.conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= coldFunctions {
					return
				}
				if err := r.upload(d.host, coldName(round, idx), coldGuest); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return cr, err
	default:
	}
	cr.setupS = time.Since(hostStart).Seconds()

	order := coldOrder(r.seed, round, coldFunctions)
	err := r.observe(d, &cr.m, 1, func(int) window {
		return runClosedLoop(r.client, d.host.url(""), r.conns, 0, uint64(invoke),
			func(i uint64) request { return coldRequest(r.seed, round, order[i]) }, wantBytes)
	})
	return cr, err
}

// coldRounds runs rounds on fresh hosts until the next one would overrun
// the budget (always at least one), and folds them into one measured: the
// windows concatenated, counter and CPU deltas summed, the peak RSS the
// median of the rounds' peaks.
func (r *runner) coldRounds(d *deployment, firstRound, traceSample int, budget time.Duration) (measured, []float64, error) {
	var total measured
	var setups, hwms []float64
	start := time.Now()
	var lastRound time.Duration
	for round := firstRound; ; round++ {
		if round > firstRound && time.Since(start)+lastRound > budget {
			break
		}
		t0 := time.Now()
		cr, err := r.coldRoundN(d, round, traceSample, coldFunctions)
		if err != nil {
			return total, nil, err
		}
		lastRound = time.Since(t0)
		setups = append(setups, cr.setupS)
		hwms = append(hwms, cr.m.hostHWM)
		total.win.add(cr.m.win)
		total.slices = append(total.slices, cr.m.slices...)
		total.out.add(cr.m.out)
	}
	sort.Float64s(total.win.latMs)
	total.hostHWM = median(hwms)
	return total, setups, nil
}

func (r *runner) runColdUntraced(e *entry) error {
	d, err := newDeployment(r.bin, r.newLogDir(wlCold))
	if err != nil {
		return err
	}
	defer d.stop()
	m, setups, err := r.coldRounds(d, 0, -1, r.seconds)
	if err != nil {
		return err
	}
	endToEnd(e, m, quietQuartile(setups, false))
	return nil
}
