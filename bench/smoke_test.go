package main

import (
	"slices"
	"testing"
)

// TestSmokeEveryWorkload runs each workload for one second, untraced and
// traced, against real daemons: every oracle must hold and every metric
// BENCHMARK.json names must be reported. It builds and starts processes, so
// it is skipped under -short.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real daemons")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	contract, err := readContract(root)
	if err != nil {
		t.Fatal(err)
	}
	r, err := newRunner(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer liveProcs.stopAll()
	for _, name := range workloadNames {
		e, err := r.measureWorkload(name, -1, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if e.Failed != 0 || e.Attempted == 0 {
			t.Errorf("%s: %d of %d failed: %v", name, e.Failed, e.Attempted, e.firstErr)
		}
		for _, m := range contract.EndToEnd {
			if v, ok := e.EndToEnd[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v (reported %v)", name, m.Name, v, ok)
			}
		}
		for _, m := range contract.PerLayer {
			if v, ok := e.PerLayer[m.Name]; !ok || v.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s = %+v (reported %v)", name, m.Name, v, ok)
			}
		}
		if len(e.PerLayer) != len(contract.PerLayer) || len(e.EndToEnd) != len(contract.EndToEnd) {
			t.Errorf("%s: reports %d+%d metrics, BENCHMARK.json lists %d+%d", name,
				len(e.EndToEnd), len(e.PerLayer), len(contract.EndToEnd), len(contract.PerLayer))
		}
	}
	// The driver's list is the benchmark's six less state_write (README:
	// "Where this departs from ISSUE 11").
	for _, w := range contract.Workloads {
		if !slices.Contains(workloadNames, w.Name) || w.Name == wlStateWrite {
			t.Errorf("BENCHMARK.json lists workload %q", w.Name)
		}
	}
	if len(contract.Workloads) != len(workloadNames)-1 {
		t.Errorf("BENCHMARK.json lists %d workloads, want the benchmark's %d less one", len(contract.Workloads), len(workloadNames))
	}
}
