package experiments

import (
	"fmt"
	"time"

	"faasm.dev/faasm/internal/core"
	"faasm.dev/faasm/internal/kernels"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/minipy"
	"faasm.dev/faasm/internal/state"
	"faasm.dev/faasm/internal/wamem"
	"faasm.dev/faasm/internal/wavm"
)

// Paper constants for the container side (Table 3, §6.5), reproduced as
// published: this substrate cannot run Docker, so the baseline column is
// the paper's own measurement.
const (
	paperDockerInit     = 2800 * time.Millisecond
	paperDockerCycles   = int64(251_000_000)
	paperDockerPSS      = int64(1_300_000)
	paperDockerRSS      = int64(5_000_000)
	paperDockerCapacity = 8_000
	paperPythonDocker   = 3200 * time.Millisecond
)

// noopModule builds the no-op function used by the cold-start micro
// benchmarks.
func noopModule() *wavm.Module {
	mod, err := wavm.AssembleAndValidate(`(module
	  (memory 1 16)
	  (func $main (export "main") (result i32) i32.const 0))`)
	if err != nil {
		panic(err)
	}
	return mod
}

func microEnv() *core.Env {
	return &core.Env{State: state.NewLocalTier(kvs.NewEngine())}
}

// measureFaasletInit measures cold Faaslet creation + one no-op execution.
func measureFaasletInit(iters int) (time.Duration, int64, uint64) {
	env := microEnv()
	mod := noopModule()
	var totalSteps uint64
	var footprint int64
	start := time.Now()
	for i := 0; i < iters; i++ {
		f, err := core.New(core.FuncDef{Name: "noop", Module: mod}, env)
		if err != nil {
			panic(err)
		}
		f.Execute(nil)
		totalSteps += f.Steps
		footprint = f.Footprint()
		f.Close()
	}
	return time.Since(start) / time.Duration(iters), footprint, totalSteps / uint64(iters)
}

// measureProtoInit measures restore-based creation + one no-op execution.
func measureProtoInit(iters int) (time.Duration, int64, uint64) {
	env := microEnv()
	mod := noopModule()
	f, err := core.New(core.FuncDef{Name: "noop", Module: mod}, env)
	if err != nil {
		panic(err)
	}
	proto, err := f.Snapshot()
	if err != nil {
		panic(err)
	}
	def := core.FuncDef{Name: "noop", Module: mod}
	var totalSteps uint64
	var footprint int64
	start := time.Now()
	for i := 0; i < iters; i++ {
		g, err := core.NewFromProto(def, env, proto)
		if err != nil {
			panic(err)
		}
		g.Execute(nil)
		totalSteps += g.Steps
		footprint = g.Footprint()
		g.Close()
	}
	return time.Since(start) / time.Duration(iters), footprint, totalSteps / uint64(iters)
}

// Table3 regenerates the cold-start comparison (no-op function).
func Table3(opts Options) *Report {
	iters := 2000
	if opts.Quick {
		iters = 200
	}
	fInit, fMem, fSteps := measureFaasletInit(iters)
	pInit, pMem, pSteps := measureProtoInit(iters)
	if fMem == 0 {
		fMem = 1
	}
	if pMem == 0 {
		pMem = 1
	}
	const hostMem = int64(32) << 30     // the paper's 32 GB measurement host
	fCap := hostMem / (fMem + 256*1024) // plus thread stack reservation
	pCap := hostMem / (pMem + 256*1024)

	r := &Report{
		ID:     "table3",
		Title:  "Faaslets vs container cold starts (no-op function)",
		Header: []string{"metric", "docker(paper)", "faaslet", "proto-faaslet", "vs docker"},
	}
	r.Add("initialisation", fmtDur(paperDockerInit), fmtDur(fInit), fmtDur(pInit),
		fmt.Sprintf("%.0fx", float64(paperDockerInit)/float64(pInit)))
	r.Add("exec steps (VM instrs)", fmt.Sprintf("%d (cycles)", paperDockerCycles),
		fmt.Sprintf("%d", fSteps), fmt.Sprintf("%d", pSteps),
		fmt.Sprintf("%.0fKx", float64(paperDockerCycles)/float64(maxU64(pSteps, 1))/1000))
	r.Add("memory footprint", fmtBytes(paperDockerPSS)+" PSS", fmtBytes(fMem), fmtBytes(pMem),
		fmt.Sprintf("%.0fx", float64(paperDockerPSS)/float64(pMem)))
	r.Add("capacity (32 GB host)", fmt.Sprintf("~%dK", paperDockerCapacity/1000),
		fmt.Sprintf("~%dK", fCap/1000), fmt.Sprintf("~%dK", pCap/1000),
		fmt.Sprintf("%.0fx", float64(pCap)/float64(paperDockerCapacity)))
	r.Note("docker column is the paper's measurement (this substrate does not run Docker)")
	r.Note("faaslet/proto columns measured live on this machine, %d iterations", iters)
	return r
}

// Table3Python regenerates the §6.5 Python no-op comparison: a dynamic
// language runtime (minipy here, CPython in the paper) restored from a
// Proto-Faaslet versus a container boot.
func Table3Python(opts Options) *Report {
	iters := 300
	if opts.Quick {
		iters = 50
	}
	env := microEnv()
	// Build the interpreter inside a Faaslet, warm it up, snapshot.
	prog, _ := minipy.ProgramByName("float")
	def := core.FuncDef{
		Name: "python-noop",
		Native: func(ctx *core.Ctx) (int32, error) {
			heap := minipy.NewMemHeap(ctx.Memory(), 0)
			ip := minipy.New(heap)
			prog.Build(ip)
			if _, err := ip.Call(prog.Entry, minipy.IntV(1)); err != nil {
				return 1, err
			}
			return 0, nil
		},
		InitialPages: 4,
	}
	f, err := core.New(def, env)
	if err != nil {
		panic(err)
	}
	f.Execute(nil) // interpreter warm-up = the user-defined init code
	proto, err := f.Snapshot()
	if err != nil {
		panic(err)
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		g, err := core.NewFromProto(def, env, proto)
		if err != nil {
			panic(err)
		}
		g.Execute(nil)
		g.Close()
	}
	perRestore := time.Since(start) / time.Duration(iters)

	r := &Report{
		ID:     "table3-python",
		Title:  "Python no-op: container boot vs Proto-Faaslet restore (§6.5)",
		Header: []string{"platform", "init+run", "vs container"},
	}
	r.Add("python:3.7-alpine container (paper)", fmtDur(paperPythonDocker), "1x")
	r.Add("minipy proto-faaslet restore", fmtDur(perRestore),
		fmt.Sprintf("%.0fx", float64(paperPythonDocker)/float64(perRestore)))
	r.Note("paper: container 3.2 s vs proto restore 0.9 ms")
	return r
}

// Table1 regenerates the isolation-approach comparison with this
// substrate's measured Faaslet values.
func Table1(opts Options) *Report {
	iters := 500
	if opts.Quick {
		iters = 100
	}
	fInit, fMem, _ := measureFaasletInit(iters)
	pInit, _, _ := measureProtoInit(iters)
	r := &Report{
		ID:     "table1",
		Title:  "Isolation approaches for serverless (functional/non-functional)",
		Header: []string{"property", "containers", "VMs", "unikernel", "SFI", "faaslet(measured)"},
	}
	r.Add("memory safety", "yes", "yes", "yes", "yes", "yes")
	r.Add("resource isolation", "yes", "yes", "yes", "no", "memory only (SFI)")
	r.Add("efficient state sharing", "no", "no", "no", "no", "yes (shared regions)")
	r.Add("shared filesystem", "yes", "no", "no", "yes", "yes (read-global)")
	r.Add("initialisation", "100ms", "100ms", "10ms", "10us",
		fmt.Sprintf("%s (%s proto)", fmtDur(fInit), fmtDur(pInit)))
	r.Add("memory footprint", "MBs", "MBs", "KBs", "Bytes", fmtBytes(fMem))
	r.Add("multi-language", "yes", "yes", "yes", "no", "yes (wavm/FC/native)")
	r.Note("non-faaslet columns are the paper's literature values (Table 1)")
	r.Note("a daemon Faaslet's memory is isolated by SFI; CPU (cgroup) and network (netns) isolation exist only as library code that faasmd does not wire in")
	return r
}

// Fig9a regenerates the Polybench overhead figure: per-kernel runtime
// ratio, wavm sandbox vs native.
func Fig9a(opts Options) *Report {
	reps := 3
	if opts.Quick {
		reps = 1
	}
	r := &Report{
		ID:     "fig9a",
		Title:  "Polybench kernels: sandbox runtime vs native (ratio)",
		Header: []string{"kernel", "native", "wavm", "ratio"},
	}
	for _, k := range kernels.All() {
		mod, err := kernels.CompileKernel(k)
		if err != nil {
			r.Note("%s failed to compile: %v", k.Name, err)
			continue
		}
		var nBest, wBest time.Duration
		for rep := 0; rep < reps; rep++ {
			t0 := time.Now()
			k.Native(k.N)
			if d := time.Since(t0); nBest == 0 || d < nBest {
				nBest = d
			}
			inst, err := wavm.Instantiate(mod, nil)
			if err != nil {
				r.Note("%s: %v", k.Name, err)
				continue
			}
			t1 := time.Now()
			if _, err := inst.Call("main"); err != nil {
				r.Note("%s: %v", k.Name, err)
				continue
			}
			if d := time.Since(t1); wBest == 0 || d < wBest {
				wBest = d
			}
		}
		ratio := float64(wBest) / float64(maxDur(nBest, time.Nanosecond))
		r.Add(k.Name, fmtDur(nBest), fmtDur(wBest), fmt.Sprintf("%.1fx", ratio))
	}
	r.Note("paper (JIT-based WAVM): most kernels ≤1.25x, two at 1.4–1.55x; this VM interprets, so absolute ratios are higher but the kernel-to-kernel shape matches")
	return r
}

// Fig9b regenerates the dynamic-language suite: minipy on the Faaslet's
// bounds-checked linear-memory heap vs the native heap.
func Fig9b(opts Options) *Report {
	reps := 5
	if opts.Quick {
		reps = 2
	}
	r := &Report{
		ID:     "fig9b",
		Title:  "Dynamic-language suite: interpreter in Faaslet memory vs native (ratio)",
		Header: []string{"benchmark", "native", "faaslet-heap", "ratio"},
	}
	for _, p := range minipy.Programs() {
		var nBest, fBest time.Duration
		for rep := 0; rep < reps; rep++ {
			ipN := minipy.New(minipy.NewSliceHeap())
			p.Build(ipN)
			t0 := time.Now()
			if _, err := ipN.Call(p.Entry, minipy.IntV(p.Arg)); err != nil {
				r.Note("%s: %v", p.Name, err)
				continue
			}
			if d := time.Since(t0); nBest == 0 || d < nBest {
				nBest = d
			}
			mem := wamem.MustNew(4, 0)
			ipF := minipy.New(minipy.NewMemHeap(mem, 0))
			p.Build(ipF)
			t1 := time.Now()
			if _, err := ipF.Call(p.Entry, minipy.IntV(p.Arg)); err != nil {
				r.Note("%s: %v", p.Name, err)
				continue
			}
			if d := time.Since(t1); fBest == 0 || d < fBest {
				fBest = d
			}
		}
		ratio := float64(fBest) / float64(maxDur(nBest, time.Nanosecond))
		r.Add(p.Name, fmtDur(nBest), fmtDur(fBest), fmt.Sprintf("%.2fx", ratio))
	}
	r.Note("paper: most Python benchmarks ≤1.25x, some 1.5–1.6x, pidigits 3.4x (32-bit bignum)")
	return r
}

// Fig10 regenerates the churn figure: creation latency vs creations/s for
// docker (paper service time), faaslets and proto-faaslets (measured
// service times), through a deterministic single-server queue — the
// serialisation point the paper's dockerd/runtime exhibits.
func Fig10(opts Options) *Report {
	iters := 500
	if opts.Quick {
		iters = 100
	}
	fInit, _, _ := measureFaasletInit(iters)
	pInit, _, _ := measureProtoInit(iters)
	// Docker boots ~2 s each but dockerd overlaps several: the paper's
	// throughput ceiling of ~3 creations/s implies ~6 concurrent boots.
	const dockerService = 2 * time.Second
	const dockerConcurrency = 6
	// Faaslet creation parallelism is bounded by the host's cores.
	coreCount := 2

	rates := []float64{0.1, 0.5, 1, 3, 10, 30, 100, 300, 600, 1000, 2000, 4000, 8000}
	r := &Report{
		ID:     "fig10",
		Title:  "Function churn: creation latency vs creations per second",
		Header: []string{"rate/s", "docker", "faaslet", "proto-faaslet"},
	}
	for _, rate := range rates {
		r.Add(fmt.Sprintf("%g", rate),
			fmtDur(queueLatency(rate, dockerService, dockerConcurrency)),
			fmtDur(queueLatency(rate, fInit, coreCount)),
			fmtDur(queueLatency(rate, pInit, coreCount)))
	}
	r.Note("faaslet service time measured %v, proto %v; docker fixed at the paper's ~2s × %d concurrent boots (≈3/s ceiling)", fInit, pInit, dockerConcurrency)
	r.Note("latency = mean sojourn of a deterministic %d/%d-server creation queue over a 1000-request burst (capped at 60s)", dockerConcurrency, coreCount)
	return r
}

// queueLatency computes the mean creation latency at the given arrival rate
// for a creator with fixed service time and k-way concurrency, over a
// finite burst. Below k/service the latency is flat at the service time;
// past it the queue grows — the knees of Fig 10.
func queueLatency(ratePerSec float64, service time.Duration, k int) time.Duration {
	const n = 1000
	interval := time.Duration(float64(time.Second) / ratePerSec)
	done := make([]time.Duration, n)
	var total time.Duration
	for i := 0; i < n; i++ {
		arrival := time.Duration(i) * interval
		start := arrival
		if i >= k && done[i-k] > start {
			start = done[i-k]
		}
		done[i] = start + service
		lat := done[i] - arrival
		if lat > time.Minute {
			lat = time.Minute // the paper's plots also saturate
		}
		total += lat
	}
	return total / n
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fus", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	}
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
