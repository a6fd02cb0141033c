// Command bench is the repository's regression benchmark: it builds
// cmd/faasmd, runs a deployment of real daemon processes on loopback, drives
// six workloads against it and reports end-to-end and per-layer metrics.
// README.md in this directory is the manual; BENCHMARK.json at the root of
// the repository is the contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 20

func main() {
	workloadFlag := flag.String("workload", "", "run this workload only and end with the one-line JSON result (empty = all six, with budget tables)")
	seed := flag.Int64("seed", 1, "generator seed: the only source of request contents")
	seconds := flag.Int("seconds", defaultSeconds, "measured window per workload, in seconds")
	trace := flag.Int("trace", -1, "0 = end-to-end metrics, tracing off; 1 = per-layer metrics from the traced run; -1 = both")
	aa := flag.Bool("aa", false, "run two untraced sets, interleaved workload by workload, and compare them against the bounds in BENCHMARK.json")
	flag.Parse()

	// The generator is one process of nproc threads.
	runtime.GOMAXPROCS(nproc())

	// A signal must not leave daemons behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		liveProcs.stopAll()
		os.Exit(130)
	}()

	err := run(*workloadFlag, *seed, *seconds, *trace, *aa)
	liveProcs.stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed int64, seconds, trace int, aa bool) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if trace < -1 || trace > 1 {
		return fmt.Errorf("-trace must be 0, 1 or -1")
	}
	if workloadName != "" && !slices.Contains(workloadNames, workloadName) {
		return fmt.Errorf("unknown workload %q (have %v)", workloadName, workloadNames)
	}
	r, err := newRunner(seed, seconds)
	if err != nil {
		return err
	}
	switch {
	case aa:
		return r.runAA(workloadName)
	case workloadName != "":
		return r.runOne(workloadName, trace)
	default:
		return r.runAll(trace)
	}
}

// newRunner finds the checkout, clears the previous run's daemon logs and
// builds the daemon.
func newRunner(seed int64, seconds int) (*runner, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	r := &runner{
		root: root, outDir: filepath.Join(root, "bench", "out"),
		seed: seed, seconds: time.Duration(seconds) * time.Second,
		conns: nproc(), client: newClient(nproc()),
	}
	if err := os.RemoveAll(filepath.Join(r.outDir, "logs")); err != nil {
		return nil, err
	}
	bin, took, err := buildDaemon(root, r.outDir)
	if err != nil {
		return nil, err
	}
	r.bin, r.buildS = bin, took.Seconds()
	return r, nil
}

// result is the one-line JSON a single-workload run ends with.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// measureWorkload runs the untraced and/or the traced run of one workload.
func (r *runner) measureWorkload(name string, trace, minWalks int) (*entry, error) {
	e := &entry{Workload: name}
	if trace != 1 {
		if err := r.runUntraced(e); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if beyond := samplesBeyond(e.Samples/slicesIn(r.seconds), tailPct); beyond < 10 {
			fmt.Printf("note: %s: only %d samples beyond p%d in a slice (%d in the window)\n", name, beyond, tailPct, e.Samples)
		}
	}
	if trace != 0 {
		if err := r.runTraced(e, minWalks); err != nil {
			return nil, fmt.Errorf("%s (traced): %w", name, err)
		}
		if frac := e.PerLayer["loadgen.cpu_frac"].Value; frac > 0.5 {
			fmt.Printf("flag: %s: loadgen.cpu_frac %.2f > 0.5 — the generator, not the daemon, may bound this run\n", name, frac)
		}
	}
	return e, nil
}

func printMetrics(title string, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println(title)
	for _, n := range names {
		fmt.Printf("  %-32s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func (e *entry) print() {
	fmt.Printf("== %s: attempted %d, failed %d, window samples %d\n", e.Workload, e.Attempted, e.Failed, e.Samples)
	if e.firstErr != nil {
		fmt.Printf("  first failure: %v\n", e.firstErr)
	}
	if e.EndToEnd != nil {
		printMetrics(" end to end (tracing off)", e.EndToEnd)
	}
	if e.PerLayer != nil {
		printMetrics(" per layer (traced run)", e.PerLayer)
	}
	if e.Budget != nil {
		fmt.Print(e.Budget)
	}
}

// runOne is the contract mode: one workload, one JSON object as the last
// line of standard output.
func (r *runner) runOne(name string, trace int) error {
	e, err := r.measureWorkload(name, trace, 0)
	if err != nil {
		return err
	}
	e.print()
	out := result{Correct: e.Failed == 0, Attempted: e.Attempted, Failed: e.Failed, Metrics: metrics{}}
	for _, m := range []metrics{e.EndToEnd, e.PerLayer} {
		for n, v := range m {
			out.Metrics[n] = v
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if e.Failed > 0 {
		return fmt.Errorf("%s: %d of %d failed: %v", name, e.Failed, e.Attempted, e.firstErr)
	}
	return nil
}

// fingerprint identifies the machine and build a ledger entry came from.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func (r *runner) fingerprint() fingerprint {
	fp := fingerprint{NProc: nproc(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Kernel: "unknown", Commit: "unknown"}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = r.root
	if b, err := cmd.Output(); err == nil { // a checkout without git history stays "unknown"
		fp.Commit = strings.TrimSpace(string(b))
	}
	return fp
}

// ledger is what a full run writes to bench/out/result.json.
type ledger struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Seed        int64       `json:"seed"`
	Seconds     float64     `json:"seconds"`
	BuildS      float64     `json:"build_s"`
	Workloads   []*entry    `json:"workloads"`
}

func (r *runner) writeJSON(name string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(r.outDir, name)
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// runAll measures every workload and prints every metric and budget table.
func (r *runner) runAll(trace int) error {
	led := ledger{Fingerprint: r.fingerprint(), Seed: r.seed, Seconds: r.seconds.Seconds(), BuildS: r.buildS}
	fmt.Printf("bench: %+v seed %d window %v build %.1fs\n", led.Fingerprint, r.seed, r.seconds, r.buildS)
	failed := 0
	for _, name := range workloadNames {
		minWalks := minWalksFull
		if name == wlCompute {
			minWalks = minWalksFullCompute
		}
		e, err := r.measureWorkload(name, trace, minWalks)
		if err != nil {
			return err
		}
		e.print()
		failed += e.Failed
		led.Workloads = append(led.Workloads, e)
	}
	if trace != 0 {
		printSelectivity(led.Workloads)
	}
	if err := r.writeJSON("result.json", led); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d requests or oracle checks failed", failed)
	}
	return nil
}

// layerGroups are the layers each workload is built to stress; warm_echo is
// the control that should spend next to nothing in any of them.
var layerGroups = []struct {
	workload string
	layers   []string
}{
	{wlChain, []string{"frt", "mbus", "sched", "core"}},
	{wlCompute, []string{"wavm"}},
	{wlStateRead, []string{"state", "shardkvs", "kvs.wire", "kvs.engine"}},
	{wlStateWrite, []string{"state", "shardkvs", "kvs.wire", "kvs.engine"}},
}

// printSelectivity shows, for each layer group, its share of the serial HTTP
// median on the workload built for it and on warm_echo.
func printSelectivity(entries []*entry) {
	budgets := map[string]*budget{}
	for _, e := range entries {
		budgets[e.Workload] = e.Budget
	}
	fmt.Printf("selectivity: %-38s %8s %12s\n", "layer group on its workload", "share", "on warm_echo")
	for _, g := range layerGroups {
		own, control := budgets[g.workload], budgets[wlWarmEcho]
		if own == nil || control == nil {
			continue
		}
		fmt.Printf("  %-49s %7.1f%% %11.1f%%\n", strings.Join(g.layers, "+")+" on "+g.workload,
			100*own.layerShare(g.layers...), 100*control.layerShare(g.layers...))
	}
}
