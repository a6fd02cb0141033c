package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// The traced run of one workload, in three parts of a third of the window
// each: an untraced host (boundary counts, and the reference median), a
// host with the daemon's own tracing on (-trace-sample 1), and the layer
// probes, whose HTTP requests go to that traced host.

const (
	// tracedWarmup precedes each of the traced run's two windows.
	tracedWarmup = time.Second
	// Full runs (no -workload) keep walking until this many walks are done,
	// however long the window; a walk of compute_2mm takes ~150 ms.
	minWalksFull        = 2000
	minWalksFullCompute = 200
)

// runTraced fills e's per-layer metrics and budget table and writes the
// walks' spans to bench/out/trace-<workload>.json.
func (r *runner) runTraced(e *entry, minWalks int) error {
	name := e.Workload
	part := r.seconds / 3
	var ref, traced measured
	var p *prober
	var d *deployment
	var err error

	if name == wlCold {
		if d, err = newDeployment(r.bin, r.newLogDir(name)); err != nil {
			return err
		}
		defer d.stop()
		if ref, _, err = r.coldRounds(d, 0, -1, part); err != nil {
			return err
		}
		// One traced round: half its functions for the closed-loop window,
		// the other half for the walks, one each.
		const round = 1 << 20 // clear of the untraced rounds' names
		cr, err := r.coldRoundN(d, round, 1, coldFunctions/2)
		if err != nil {
			return err
		}
		traced = cr.m
		if p, err = newProber(r, d, "", []guest{echoGuest}); err != nil {
			return err
		}
		defer p.close()
		if err := r.upload(d.host, echoGuest.Name, echoGuest); err != nil {
			return err
		}
		order := coldOrder(r.seed, round, coldFunctions)
		p.run(part, min(minWalks, coldFunctions/2), func(i uint64) bool {
			if int(i) >= coldFunctions/2 {
				return false
			}
			p.walkCold(round, order[coldFunctions/2+int(i)])
			return true
		})
	} else {
		var w *workload
		if d, w, _, err = r.setUp(name, -1); err != nil {
			return err
		}
		defer d.stop()
		if ref, err = r.measure(d, w, tracedWarmup, part); err != nil {
			return err
		}
		w.guests = withEcho(w.guests) // the probes' ingress reference
		if err := r.bringUp(d, w, 1); err != nil {
			return err
		}
		if traced, err = r.measure(d, w, tracedWarmup, part); err != nil {
			return err
		}
		if p, err = newProber(r, d, w.fn, w.guests); err != nil {
			return err
		}
		defer p.close()
		p.run(part, minWalks, func(i uint64) bool {
			p.walkWarm(w, i)
			return true
		})
	}
	if err := d.checkAlive(); err != nil {
		return err
	}

	e.tallyWindow(ref)
	e.tallyWindow(traced)
	e.tally(p.walks, p.failed, p.firstErr)
	if len(ref.win.latMs) == 0 || len(traced.win.latMs) == 0 || p.walks == 0 {
		return fmt.Errorf("traced run measured nothing (first error: %v)", e.firstErr)
	}

	mt := metrics{}
	e.PerLayer = mt
	boundaryCounts(mt, ref, r.conns)
	mt.set("bench.failed_frac", float64(e.Failed)/float64(e.Attempted), "frac")
	mt.set("bench.build_s", r.buildS, "s")
	mt.set("ingress.lat_p99_ms", percentile(ref.win.latMs, 99), "ms")
	mt.set("bench.trace_overhead_frac", percentile(traced.win.latMs, 50)/percentile(ref.win.latMs, 50), "ratio")
	b := p.layerMetrics(mt, name)
	e.Budget = &b
	return writeTrace(filepath.Join(r.outDir, "trace-"+name+".json"), traceFile{Workload: name, Seed: r.seed, Spans: p.rec.spans})
}

// withEcho adds the echo guest to a deployment that lacks it.
func withEcho(guests []guest) []guest {
	for _, g := range guests {
		if g.Name == echoGuest.Name {
			return guests
		}
	}
	return append(guests[:len(guests):len(guests)], echoGuest)
}
