package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// A/A: two untraced sets from the same build must agree within the bounds
// BENCHMARK.json fixes, or the bounds mean nothing for an A/B.

// contractMetric is one metric entry of BENCHMARK.json; per-layer entries
// carry no bound.
type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// contract is the part of BENCHMARK.json the benchmark itself reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

// readContract loads BENCHMARK.json from the root of the checkout.
func readContract(root string) (contract, error) {
	var c contract
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return c, err
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(c.EndToEnd) == 0 {
		return c, fmt.Errorf("BENCHMARK.json lists no end_to_end metrics")
	}
	return c, nil
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction: positive means b regressed.
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// aaRow is one (metric, workload) comparison.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	Gap      float64 `json:"gap"` // worse side against the other, as a share
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within"`
}

// compareSets checks every gating metric of every workload: whichever of
// the two sets is worse may be worse by at most the bound.
func compareSets(bounds []contractMetric, a, b []*entry) []aaRow {
	var rows []aaRow
	for i := range a {
		for _, cm := range bounds {
			va, vb := a[i].EndToEnd[cm.Name].Value, b[i].EndToEnd[cm.Name].Value
			gap := max(worseBy(va, vb, cm.Better), worseBy(vb, va, cm.Better))
			rows = append(rows, aaRow{
				Workload: a[i].Workload, Metric: cm.Name, A: va, B: vb,
				Gap: gap, Bound: cm.Bound, Within: gap <= cm.Bound,
			})
		}
	}
	return rows
}

// runAA runs two untraced sets (of one workload, or all six) and fails if any gating pair disagrees by more than its bound or any
// request failed.
func (r *runner) runAA(only string) error {
	c, err := readContract(r.root)
	if err != nil {
		return err
	}
	names := workloadNames
	if only != "" {
		names = []string{only}
	}
	// The two sets are interleaved workload by workload, A then B: the
	// reference sandbox has slow episodes that last minutes, and two runs
	// twenty seconds apart mostly share one, two runs two minutes apart
	// often do not.
	var sets [2][]*entry
	failed := 0
	for _, name := range names {
		for s := range sets {
			e, err := r.measureWorkload(name, 0, 0)
			if err != nil {
				return err
			}
			fmt.Printf("set %c ", 'A'+s)
			e.print()
			failed += e.Failed
			sets[s] = append(sets[s], e)
		}
	}
	rows := compareSets(c.EndToEnd, sets[0], sets[1])
	outside := 0
	fmt.Printf("%-16s %-16s %12s %12s %8s %8s\n", "workload", "metric", "A", "B", "gap", "bound")
	for _, row := range rows {
		mark := ""
		if !row.Within {
			mark = "  OUTSIDE"
			outside++
		}
		fmt.Printf("%-16s %-16s %12.4f %12.4f %7.1f%% %7.1f%%%s\n",
			row.Workload, row.Metric, row.A, row.B, 100*row.Gap, 100*row.Bound, mark)
	}
	err = r.writeJSON("aa.json", struct {
		Fingerprint fingerprint `json:"fingerprint"`
		Seed        int64       `json:"seed"`
		Seconds     float64     `json:"seconds"`
		Sets        [2][]*entry `json:"sets"`
		Rows        []aaRow     `json:"rows"`
	}{r.fingerprint(), r.seed, r.seconds.Seconds(), sets, rows})
	if err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("A/A: %d requests or oracle checks failed", failed)
	}
	if outside > 0 {
		return fmt.Errorf("A/A: %d of %d (metric, workload) pairs differ by more than their bound", outside, len(rows))
	}
	return nil
}
