package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"time"

	"faasm.dev/faasm/internal/core"
	"faasm.dev/faasm/internal/frt"
	"faasm.dev/faasm/internal/kernels"
	"faasm.dev/faasm/internal/kvs"
	"faasm.dev/faasm/internal/mbus"
	"faasm.dev/faasm/internal/shardkvs"
	"faasm.dev/faasm/internal/state"
	"faasm.dev/faasm/internal/upload"
	"faasm.dev/faasm/internal/wamem"
	"faasm.dev/faasm/internal/wavm"
)

// Layer probes: the traced run. An in-process runtime instance is attached
// to the same shard processes the daemon uses, the same guest objects are
// deployed on it, and every seeded request is walked down the stack by
// hand, each public call wrapped in a span. The spans are the benchmark's
// own: nothing inside the program is instrumented.

const (
	probeHost   = "bench-probe"
	probeROKey  = "probe/ro"
	probeRWKey  = "probe/rw"
	probeLogKey = "probe/log"
	probeRTTKey = "probe/rtt"
	// slowProbeRuns is how often a traced run times the 2mm kernel (35 ms)
	// in the sandbox and natively, for wavm.native_ratio.
	slowProbeRuns = 5
)

// tierOps is everything the tier clients implement: kvs.Engine, kvs.Client
// and shardkvs.Ring all do.
type tierOps interface {
	kvs.Store
	kvs.Batcher
	kvs.Lister
}

// spanStore records a span around every tier operation that passes through
// it. Wrapped around the ring it shows shardkvs calls; wrapped around each
// shard's client it shows the wire calls those make.
type spanStore struct {
	tierOps
	rec    *recorder
	prefix string // "shardkvs." or "kvs.wire_"
	level  spanLevel
}

func spanned[T any](s *spanStore, op string, f func() (T, error)) (T, error) {
	id := s.rec.begin(s.prefix+op, s.level)
	v, err := f()
	s.rec.end(id)
	return v, err
}

func spannedErr(s *spanStore, op string, f func() error) error {
	_, err := spanned(s, op, func() (struct{}, error) { return struct{}{}, f() })
	return err
}

func (s *spanStore) Get(key string) ([]byte, error) {
	return spanned(s, "get", func() ([]byte, error) { return s.tierOps.Get(key) })
}
func (s *spanStore) Set(key string, val []byte) error {
	return spannedErr(s, "set", func() error { return s.tierOps.Set(key, val) })
}
func (s *spanStore) GetRange(key string, off, n int) ([]byte, error) {
	return spanned(s, "get_range", func() ([]byte, error) { return s.tierOps.GetRange(key, off, n) })
}
func (s *spanStore) SetRange(key string, off int, val []byte) error {
	return spannedErr(s, "set_range", func() error { return s.tierOps.SetRange(key, off, val) })
}
func (s *spanStore) Append(key string, val []byte) (int, error) {
	return spanned(s, "append", func() (int, error) { return s.tierOps.Append(key, val) })
}
func (s *spanStore) Len(key string) (int, error) {
	return spanned(s, "len", func() (int, error) { return s.tierOps.Len(key) })
}
func (s *spanStore) SetEx(key string, val []byte, ttl time.Duration) error {
	return spannedErr(s, "setex", func() error { return s.tierOps.SetEx(key, val, ttl) })
}
func (s *spanStore) SAdd(key, member string) (bool, error) {
	return spanned(s, "sadd", func() (bool, error) { return s.tierOps.SAdd(key, member) })
}
func (s *spanStore) SMembers(key string) ([]string, error) {
	return spanned(s, "smembers", func() ([]string, error) { return s.tierOps.SMembers(key) })
}
func (s *spanStore) MGet(keys []string) ([][]byte, error) {
	return spanned(s, "mget", func() ([][]byte, error) { return s.tierOps.MGet(keys) })
}

// prober owns the in-process side of a traced run.
type prober struct {
	r    *runner
	d    *deployment
	rec  *recorder
	ring *shardkvs.Ring
	inst *frt.Instance
	wire *kvs.Client // raw client to one shard, for the round-trip probe
	eng  *kvs.Engine // in-process engine, for the engine-op probes
	tbl  *mbus.CallTable

	guest    guest         // the workload's function, for the codegen probes
	mod      *wavm.Module  // its module
	held     *core.Faaslet // a warm Faaslet of it the walker executes on directly
	echoMod  *wavm.Module
	echoHeld *core.Faaslet
	coldDef  core.FuncDef
	coldObj  *core.Proto
	compute  *wavm.Module
	kernel   kernels.Kernel // the 2mm kernel's native twin
	ro, rw   *state.Value   // probe-owned 512 KiB replicas
	stateSeg *wamem.Segment // what the stub get_state maps

	walks    int
	failed   int
	firstErr error
	steps    []float64 // interpreter steps per wavm.call of fn
}

func (p *prober) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// compile runs a guest through the upload pipeline, timing both halves.
func (p *prober) compile(g guest) (*wavm.Module, error) {
	var obj []byte
	var mod *wavm.Module
	var err error
	p.rec.do("upload.codegen", func() { obj, err = upload.Codegen(g.Src, g.Lang) })
	if err != nil {
		return nil, fmt.Errorf("probe codegen %s: %w", g.Name, err)
	}
	p.rec.do("wavm.decode_object", func() { mod, err = wavm.DecodeObject(obj) })
	if err != nil {
		return nil, fmt.Errorf("probe decode %s: %w", g.Name, err)
	}
	return mod, nil
}

// newProber attaches the probe instance to d's shards and deploys the
// workload's guests, the echo guest and the cold module on it.
func newProber(r *runner, d *deployment, fn string, guests []guest) (*prober, error) {
	p := &prober{r: r, d: d, rec: newRecorder(), eng: kvs.NewEngine(), tbl: mbus.NewCallTable()}
	ring, err := shardkvs.AttachRemote(d.shardAddrs(), shardkvs.Options{
		Replication: stateReplicas,
		NewStore: func(addr string) kvs.Store {
			return &spanStore{tierOps: kvs.NewClient(addr), rec: p.rec, prefix: "kvs.wire_", level: levelWire}
		},
	})
	if err != nil {
		return nil, fmt.Errorf("probe: attach tier: %w", err)
	}
	p.ring = ring
	p.wire = kvs.NewClient(d.shardAddrs()[0])
	p.inst = frt.New(frt.Config{
		Host:        probeHost,
		Store:       &spanStore{tierOps: ring, rec: p.rec, prefix: "shardkvs.", level: levelRing},
		TraceSample: -1,
	})

	// Probe-owned tier values, so the state probes never touch a workload's.
	val := seededValue(r.seed, 99)
	for _, key := range []string{probeROKey, probeRWKey} {
		if err := ring.Set(key, val); err != nil {
			return nil, fmt.Errorf("probe: seed %s: %w", key, err)
		}
	}
	if err := ring.Set(probeRTTKey, val[:16]); err != nil {
		return nil, err
	}
	if err := p.eng.Set(probeROKey, val); err != nil {
		return nil, err
	}
	if p.ro, err = p.inst.State().Value(probeROKey, stateValueBytes); err != nil {
		return nil, err
	}
	if p.rw, err = p.inst.State().Value(probeRWKey, stateValueBytes); err != nil {
		return nil, err
	}
	if _, err := p.rw.PullN(); err != nil {
		return nil, err
	}
	p.stateSeg = wamem.NewSegment(stateValueBytes)

	deploy := func(g guest, name string) (*wavm.Module, error) {
		mod, err := p.compile(g)
		if err != nil {
			return nil, err
		}
		return mod, p.inst.RegisterModule(name, mod)
	}
	for _, g := range guests {
		mod, err := deploy(g, g.Name)
		if err != nil {
			return nil, err
		}
		if g.Name == fn {
			p.mod, p.guest = mod, g
		}
		if g.Name == echoGuest.Name {
			p.echoMod = mod
		}
	}
	if p.echoMod == nil {
		if p.echoMod, err = deploy(echoGuest, echoGuest.Name); err != nil {
			return nil, err
		}
	}
	coldMod, err := p.compile(coldGuest)
	if err != nil {
		return nil, err
	}
	p.coldDef = core.FuncDef{Name: "cold-probe", Module: coldMod}
	if fn == "" { // cold_first_call: every walk registers a fresh name for this module
		p.mod, p.guest = coldMod, coldGuest
	}
	f, err := core.New(p.coldDef, p.inst.Env())
	if err != nil {
		return nil, err
	}
	if _, _, err := f.Execute(le32(1)); err != nil {
		return nil, err
	}
	if p.coldObj, err = f.Snapshot(); err != nil {
		return nil, err
	}
	f.Close()

	if fn != "" {
		if p.held, err = core.New(core.FuncDef{Name: fn, Module: p.mod}, p.inst.Env()); err != nil {
			return nil, err
		}
	}
	if p.echoHeld, err = core.New(core.FuncDef{Name: echoGuest.Name, Module: p.echoMod}, p.inst.Env()); err != nil {
		return nil, err
	}

	cg, _, err := computeGuest()
	if err != nil {
		return nil, err
	}
	if fn == cg.Name {
		p.compute = p.mod
	} else if p.compute, err = p.compile(cg); err != nil {
		return nil, err
	}
	p.kernel, _ = kernels.ByName(computeKernel) // computeGuest found it above
	return p, nil
}

func (p *prober) close() {
	if p.held != nil {
		p.held.Close()
	}
	p.echoHeld.Close()
	p.inst.Shutdown()
	p.ring.Close()
	p.wire.Close()
}

// stubHosts is a host interface that does no work, so a guest run against
// it costs interpreter time only. State calls resolve to one pre-mapped
// 512 KiB segment.
func (p *prober) stubHosts(input []byte) map[string]wavm.HostModule {
	ret := func(v int32) []uint64 { return []uint64{wavm.EncodeI32(v)} }
	nop := func(*wavm.Instance, []uint64) ([]uint64, error) { return nil, nil }
	var stateBase uint32
	return map[string]wavm.HostModule{"faasm": {
		"read_call_input": func(inst *wavm.Instance, a []uint64) ([]uint64, error) {
			n := min(int(wavm.DecodeI32(a[1])), len(input))
			return ret(int32(n)), inst.Memory().WriteBytes(uint32(a[0]), input[:n])
		},
		"write_call_output": nop,
		"chain_call":        func(*wavm.Instance, []uint64) ([]uint64, error) { return ret(1), nil },
		"await_call":        func(*wavm.Instance, []uint64) ([]uint64, error) { return ret(0), nil },
		"get_call_output": func(inst *wavm.Instance, a []uint64) ([]uint64, error) {
			return ret(4), inst.Memory().WriteBytes(uint32(a[1]), []byte{0, 0, 0, 0})
		},
		"pull_state":   nop,
		"push_state":   nop,
		"append_state": nop,
		"get_state": func(inst *wavm.Instance, _ []uint64) ([]uint64, error) {
			if stateBase == 0 {
				base, err := inst.Memory().MapShared(p.stateSeg)
				if err != nil {
					return nil, err
				}
				stateBase = base
			}
			return ret(int32(stateBase)), nil
		},
	}}
}

// wavmSteps instantiates mod against the stub host interface and calls its
// entry point: the interpreter's share of one request. It returns the
// interpreter steps the call took.
func (p *prober) wavmSteps(mod *wavm.Module, input []byte, suffix string) uint64 {
	var inst *wavm.Instance
	var err error
	p.rec.do("wavm.instantiate"+suffix, func() { inst, err = wavm.Instantiate(mod, p.stubHosts(input)) })
	if err != nil {
		p.fail(fmt.Errorf("probe instantiate: %w", err))
		return 0
	}
	p.rec.do("wavm.call"+suffix, func() { _, err = inst.Call("main") })
	if err != nil {
		p.fail(fmt.Errorf("probe wavm call: %w", err))
	}
	return inst.Steps
}

// executeHeld runs one request on a Faaslet the walker holds, then resets
// it: core's share of a warm call, without frt around it.
func (p *prober) executeHeld(f *core.Faaslet, req request, check func(request, []byte) error, suffix string) {
	var out []byte
	var ret int32
	var err error
	p.rec.do("core.execute"+suffix, func() { out, ret, err = f.Execute(req.body) })
	if err == nil && ret != 0 {
		err = fmt.Errorf("probe execute %s: return code %d", req.fn, ret)
	}
	if err == nil {
		err = check(req, out)
	}
	if err != nil {
		p.fail(err)
	}
	p.rec.do("core.reset"+suffix, func() { err = f.Reset() })
	if err != nil {
		p.fail(err)
	}
}

// call runs one request through the probe instance's synchronous entry.
func (p *prober) call(span string, req request, check func(request, []byte) error) {
	var out []byte
	var ret int32
	var err error
	p.rec.do(span, func() { out, ret, err = p.inst.Call(req.fn, req.body) })
	if err == nil && ret != 0 {
		err = fmt.Errorf("probe call %s: return code %d", req.fn, ret)
	}
	if err == nil {
		err = check(req, out)
	}
	if err != nil {
		p.fail(err)
	}
}

// http sends one request to the host daemon over the generator's client.
// The walker leaves the connection idle for milliseconds between requests,
// and a daemon woken from idle answers ~2× slower than one under load, so
// an untimed echo goes first: the timed request meets the daemon as a
// request in a closed-loop window would.
func (p *prober) http(span string, req request, check func(request, []byte) error) {
	primer := echoRequest(p.r.seed, phaseFirstPass, 0)
	out, err := invoke(p.r.client, p.d.host.url(""), primer)
	if err == nil {
		err = wantBytes(primer, out)
	}
	if err != nil {
		p.fail(err)
	}
	p.rec.do(span, func() { out, err = invoke(p.r.client, p.d.host.url(""), req) })
	if err == nil {
		err = check(req, out)
	}
	if err != nil {
		p.fail(err)
	}
}

// The part of a traced run that does not depend on the workload is one timed
// call into every layer below frt, on probe-owned data. It comes in two
// loops: the calls that move half a megabyte evict the caches the
// microsecond-scale calls run from, so they are walked separately.

// walkLight is the microsecond-scale half, done in the same walk as the
// workload's own request.
func (p *prober) walkLight(i uint64) {
	echo := echoRequest(p.r.seed, phaseProbe, i)

	// ingress reference: the cheapest function, over HTTP and in process.
	p.http("http.null", echo, wantBytes)
	p.call("frt.call.null", echo, wantBytes)

	// frt + mbus: one chained child, and the call table on its own.
	p.rec.do("frt.invoke_await", func() {
		id, err := p.inst.Invoke(echo.fn, echo.body)
		if err == nil {
			_, err = p.inst.Await(id)
		}
		var out []byte
		if err == nil {
			out, err = p.inst.Output(id)
		}
		if err == nil {
			err = wantBytes(echo, out)
		}
		if err != nil {
			p.fail(err)
		}
	})
	var id uint64
	p.rec.do("mbus.call_cycle", func() {
		id = p.tbl.Create(echo.fn, echo.body)
		err := p.tbl.Start(id)
		if err == nil {
			err = p.tbl.Complete(id, echo.body, 0, nil)
		}
		if err == nil {
			_, err = p.tbl.Await(id)
		}
		if err != nil {
			p.fail(err)
		}
	})
	p.tbl.Delete(id)
	p.rec.do("sched.schedule.child", func() {
		if _, err := p.inst.Scheduler().Schedule(echo.fn); err != nil {
			p.fail(err)
		}
	})
	p.executeHeld(p.echoHeld, echo, wantBytes, ".child")
	p.wavmSteps(p.echoMod, echo.body, ".child")
}

// walkHeavy is the other half: cold start, 512 KiB state transfers, engine
// operations on 512 KiB values, code generation.
func (p *prober) walkHeavy(i uint64) {
	// core: a cold start and a Proto-Faaslet restore of the same module.
	p.rec.do("core.cold_start", func() {
		f, err := core.New(p.coldDef, p.inst.Env())
		if err != nil {
			p.fail(err)
			return
		}
		f.Close()
	})
	p.rec.do("core.proto_restore", func() {
		f, err := core.NewFromProto(p.coldDef, p.inst.Env(), p.coldObj)
		if err != nil {
			p.fail(err)
			return
		}
		f.Close()
	})

	// state → shardkvs → kvs wire: 512 KiB each way through the R=2 ring;
	// the ring and wire spans nest under these by themselves.
	p.rec.do("state.pull", func() {
		if n, err := p.ro.PullN(); err != nil || n != stateValueBytes {
			p.fail(fmt.Errorf("probe pull: %d bytes, %v", n, err))
		}
	})
	p.rec.do("state.local_hit", func() {
		if n, err := p.ro.EnsurePulledN(0, stateValueBytes); err != nil || n != 0 {
			p.fail(fmt.Errorf("probe local hit fetched %d bytes, %v", n, err))
		}
	})
	p.rec.do("state.push", func() {
		if err := p.rw.Push(); err != nil {
			p.fail(err)
		}
	})
	rec16 := make([]byte, 16)
	binary.LittleEndian.PutUint64(rec16, i)
	p.rec.do("state.append", func() {
		if err := p.inst.State().Append(probeLogKey, rec16); err != nil {
			p.fail(err)
		}
	})
	p.rec.do("kvs.wire_rtt", func() {
		if v, err := p.wire.Get(probeRTTKey); err != nil || len(v) != 16 {
			p.fail(fmt.Errorf("probe rtt: %d bytes, %v", len(v), err))
		}
	})

	// kvs.Engine in process: what a shard does once the bytes have arrived.
	var val []byte
	p.rec.do("kvs.engine_get_range", func() { val, _ = p.eng.GetRange(probeROKey, 0, stateValueBytes) })
	if len(val) != stateValueBytes {
		p.fail(fmt.Errorf("probe engine read %d bytes", len(val)))
	}
	p.rec.do("kvs.engine_set_range", func() {
		if err := p.eng.SetRange(probeRWKey, 0, val); err != nil {
			p.fail(err)
		}
	})
	p.rec.do("kvs.engine_append", func() {
		if _, err := p.eng.Append(probeLogKey, rec16); err != nil {
			p.fail(err)
		}
	})

	// upload: the trusted code-generation phase for the workload's guest.
	if _, err := p.compile(p.guest); err != nil {
		p.fail(err)
	}
}

// walkWarm walks request i of a warm workload: the daemon over HTTP, the
// same call in process, then each layer under it on its own.
func (p *prober) walkWarm(w *workload, i uint64) {
	req := w.gen(phaseProbe, i)
	p.http("http", req, w.check)
	p.call("frt.call", req, w.check)
	p.rec.do("sched.schedule", func() {
		if _, err := p.inst.Scheduler().Schedule(req.fn); err != nil {
			p.fail(err)
		}
	})
	p.executeHeld(p.held, req, w.check, "")
	p.steps = append(p.steps, float64(p.wavmSteps(p.mod, req.body, "")))
}

// walkCold walks cold function idx: its single HTTP invocation on the
// daemon, then a first call of a never-seen function on the probe instance
// and the pieces of that cold path.
func (p *prober) walkCold(round, idx int) {
	req := coldRequest(p.r.seed, round, idx)
	p.http("http", req, wantBytes)
	name := fmt.Sprintf("cold-probe-%d", idx)
	if err := p.inst.RegisterModule(name, p.mod); err != nil {
		p.fail(err)
		return
	}
	local := req
	local.fn = name
	p.call("frt.call", local, wantBytes)
	p.rec.do("sched.schedule", func() {
		// A name the scheduler has never seen takes the cold decision and
		// its advertise-transition tier writes.
		if _, err := p.inst.Scheduler().Schedule(name + "-sched"); err != nil {
			p.fail(err)
		}
	})
	f, err := core.New(p.coldDef, p.inst.Env())
	if err != nil {
		p.fail(err)
		return
	}
	p.executeHeld(f, req, wantBytes, "")
	f.Close()
	p.steps = append(p.steps, float64(p.wavmSteps(p.mod, req.body, "")))
}

// slowProbes times the 2mm kernel in the sandbox and natively.
func (p *prober) slowProbes() {
	for i := 0; i < slowProbeRuns; i++ {
		p.wavmSteps(p.compute, nil, ".2mm")
		p.rec.do("kernels.native", func() {
			if v := p.kernel.Native(p.kernel.N); math.IsNaN(v) {
				p.fail(fmt.Errorf("native kernel returned NaN"))
			}
		})
	}
}

// layerMetrics turns the recorded spans into the per-layer metrics of
// source A and the workload's budget table.
func (p *prober) layerMetrics(mt metrics, workload string) budget {
	st := summarize(p.rec.spans)
	us := func(metricName, spanName string) { mt.set(metricName, st.p50us[spanName], "us") }
	us("frt.call_us", "frt.call")
	us("frt.invoke_await_us", "frt.invoke_await")
	us("sched.schedule_us", "sched.schedule")
	us("mbus.call_cycle_us", "mbus.call_cycle")
	us("core.cold_start_us", "core.cold_start")
	us("core.proto_restore_us", "core.proto_restore")
	mt.set("core.restore_vs_cold", st.p50us["core.proto_restore"]/st.p50us["core.cold_start"], "ratio")
	us("core.execute_us", "core.execute")
	us("core.reset_us", "core.reset")
	us("wavm.call_us", "wavm.call")
	us("wavm.instantiate_us", "wavm.instantiate")
	steps := median(p.steps)
	mt.set("wavm.steps_per_call", steps, "count")
	mt.set("wavm.ns_per_step", st.p50us["wavm.call"]*1e3/steps, "ns")
	mt.set("wavm.native_ratio", st.p50us["wavm.call.2mm"]/st.p50us["kernels.native"], "ratio")
	us("upload.codegen_us", "upload.codegen")
	us("wavm.decode_object_us", "wavm.decode_object")
	us("state.pull_us", "state.pull")
	us("state.push_us", "state.push")
	us("state.local_hit_us", "state.local_hit")
	us("shardkvs.get_range_us", "shardkvs.get_range")
	us("shardkvs.set_range_us", "shardkvs.set_range")
	mt.set("shardkvs.get_range_self_us", st.selfus["shardkvs.get_range"], "us")
	mt.set("shardkvs.set_range_self_us", st.selfus["shardkvs.set_range"], "us")
	us("kvs.wire_get_range_us", "kvs.wire_get_range")
	us("kvs.wire_set_range_us", "kvs.wire_set_range")
	us("kvs.wire_rtt_us", "kvs.wire_rtt")
	us("kvs.engine_get_range_us", "kvs.engine_get_range")
	us("kvs.engine_set_range_us", "kvs.engine_set_range")
	us("kvs.engine_append_us", "kvs.engine_append")
	mt.set("ingress.self_us", st.p50us["http"]-st.p50us["frt.call"], "us")
	mt.set("ingress.null_us", st.p50us["http.null"]-st.p50us["frt.call.null"], "us")
	mt.set("bench.probe_walks", float64(p.walks), "count")

	vals := st.p50us
	vals["ingress.null"] = max(0, st.p50us["http.null"]-st.p50us["frt.call.null"])
	// A step's tier time is what its nested ring spans cover; a ring span's
	// wire time what its nested wire spans cover.
	vals["sched.schedule/shardkvs"] = st.p50us["sched.schedule"] - st.selfus["sched.schedule"]
	for _, op := range []string{"get_range", "set_range", "append"} {
		vals["shardkvs."+op+"/wire"] = st.p50us["shardkvs."+op] - st.selfus["shardkvs."+op]
	}
	b := computeBudget(workload, st.p50us["http"], budgetTree(workload), vals)
	for _, layer := range layerOrder {
		mt.set(budgetMetric(layer), 0, "us")
	}
	for _, row := range b.Rows {
		mt.set(budgetMetric(row.Layer), row.SelfUs, "us")
	}
	mt.set("bench.http_serial_p50_us", b.HTTPp50Us, "us")
	mt.set("bench.unexplained_us", b.UnexplainedUs, "us")
	return b
}

// budgetTree is the static call tree of one request of a workload: which
// timed call contains which. The medians come from the walks.
func budgetTree(workload string) []budgetNode {
	one := func(layer, span string, kids ...budgetNode) budgetNode {
		return budgetNode{layer: layer, span: span, times: 1, kids: kids}
	}
	readPath := one("state", "state.pull",
		one("shardkvs", "shardkvs.get_range",
			one("kvs.wire", "shardkvs.get_range/wire", one("kvs.engine", "kvs.engine_get_range"))))
	writePath := one("state", "state.push",
		one("shardkvs", "shardkvs.set_range",
			one("kvs.wire", "shardkvs.set_range/wire", one("kvs.engine", "kvs.engine_set_range"))))
	appendPath := one("state", "state.append",
		one("shardkvs", "shardkvs.append",
			one("kvs.wire", "shardkvs.append/wire", one("kvs.engine", "kvs.engine_append"))))

	execKids := []budgetNode{one("wavm", "wavm.call")}
	callKids := []budgetNode{one("sched", "sched.schedule")}
	switch workload {
	case wlStateRead:
		execKids = append(execKids, readPath, one("state", "state.local_hit"))
	case wlStateWrite:
		execKids = append(execKids, writePath, appendPath)
	case wlChain:
		// The parent's own execute is nearly all of frt.call and, walked a
		// second time, queues behind the 65 background resets of the first;
		// its children hang under frt.call directly.
		child := budgetNode{layer: "frt", span: "frt.invoke_await", times: fanoutChildren, parallel: true, kids: []budgetNode{
			one("mbus", "mbus.call_cycle"),
			one("sched", "sched.schedule.child"),
			one("core", "core.execute.child", one("wavm", "wavm.call.child")),
		}}
		return []budgetNode{
			one("ingress", "ingress.null"),
			one("frt", "frt.call", one("sched", "sched.schedule"), one("wavm", "wavm.call"), child),
		}
	case wlCold:
		callKids = []budgetNode{
			one("sched", "sched.schedule", one("shardkvs", "sched.schedule/shardkvs")),
			one("core", "core.cold_start", one("wavm", "wavm.instantiate")),
		}
	}
	callKids = append(callKids, one("core", "core.execute", execKids...))
	return []budgetNode{
		one("ingress", "ingress.null"),
		one("frt", "frt.call", callKids...),
	}
}

// run walks seeded requests until budget has passed and at least minWalks
// are done. walk returns false when the workload has no request left.
func (p *prober) run(budget time.Duration, minWalks int, walk func(i uint64) bool) {
	p.slowProbes()
	start := time.Now()
	for i := uint64(0); time.Since(start) < budget*2/3 || p.walks < minWalks; i++ {
		p.rec.nextWalk()
		if !walk(i) {
			break
		}
		p.walkLight(i)
		p.walks++
	}
	// The heavy loop gets the last third of the budget, and as many walks
	// as the first loop when a minimum is asked for.
	for i := 0; time.Since(start) < budget || (minWalks > 0 && i < p.walks); i++ {
		p.rec.nextWalk()
		p.walkHeavy(uint64(i))
	}
}

// budgetMetric names the per-layer metric that carries a budget row:
// frt.budget_self_us, kvs.wire_budget_self_us.
func budgetMetric(layer string) string {
	if strings.Contains(layer, ".") {
		return layer + "_budget_self_us"
	}
	return layer + ".budget_self_us"
}
