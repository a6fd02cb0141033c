package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: %v", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of unsorted input: %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing: %v", got)
	}
}

// The quiet quartile is the value a quarter of the way in from the better
// end, whichever end that is.
func TestQuietQuartile(t *testing.T) {
	eleven := []float64{9, 3, 11, 1, 5, 7, 2, 10, 4, 8, 6}
	for _, c := range []struct {
		vals         []float64
		higherBetter bool
		want         float64
	}{
		{eleven, false, 3}, {eleven, true, 9}, // third best of eleven slices
		{[]float64{4, 2, 8, 6}, false, 2}, {[]float64{4, 2, 8, 6}, true, 8},
		{[]float64{4, 2, 8, 6, 5}, false, 4}, {[]float64{4, 2, 8, 6, 5}, true, 6},
		{[]float64{7}, false, 7}, {nil, true, 0},
	} {
		if got := quietQuartile(c.vals, c.higherBetter); got != c.want {
			t.Errorf("quietQuartile(%v, %v) = %v, want %v", c.vals, c.higherBetter, got, c.want)
		}
	}
	if eleven[0] != 9 {
		t.Error("quietQuartile reordered its input")
	}
}

// At least ten samples must lie beyond the tail percentile in a slice of the
// slowest workload (compute_2mm: ~60 requests/s for sliceTime).
func TestSamplesBeyondTail(t *testing.T) {
	if got := samplesBeyond(1000, 99); got != 10 {
		t.Errorf("1000 samples beyond p99: %d", got)
	}
	if got := samplesBeyond(810, 90); got != 81 {
		t.Errorf("810 samples beyond p90: %d", got)
	}
	if got := samplesBeyond(int(60*sliceTime.Seconds()), tailPct); got < 10 {
		t.Errorf("a compute_2mm slice leaves %d samples beyond p%d", got, tailPct)
	}
	if got := slicesIn(22 * time.Second); got != 11 {
		t.Errorf("slices in 22 s: %d", got)
	}
	if got := slicesIn(time.Second); got != 1 {
		t.Errorf("slices in 1 s: %d", got)
	}
}

func TestParsePromTextAndDelta(t *testing.T) {
	before := parsePromText(`# HELP faasm_frt_cold_starts_total cold starts
# TYPE faasm_frt_cold_starts_total counter
faasm_frt_cold_starts_total{host="bench-host"} 3
faasm_sched_decisions_total{host="bench-host",placement="local_warm"} 10
faasm_sched_decisions_total{host="bench-host",placement="local_cold"} 3
faasm_shardkvs_reads_total 7
faasm_frt_exec_seconds_sum{host="bench-host"} 3.4980000000000002e-06
faasm_note{text="a b c"} 1
garbage line without a number x
`)
	after := parsePromText(`faasm_frt_cold_starts_total{host="bench-host"} 5
faasm_sched_decisions_total{host="bench-host",placement="local_warm"} 110
faasm_sched_decisions_total{host="bench-host",placement="local_cold"} 5
faasm_shardkvs_reads_total 9
faasm_new_series_total 4
`)
	if got := before.sum("faasm_sched_decisions_total"); got != 13 {
		t.Errorf("sum over labels = %v, want 13", got)
	}
	if got := before.sum("faasm_note"); got != 1 {
		t.Errorf("label value with spaces: %v", got)
	}
	if got := before.sum("faasm_frt_exec_seconds_sum"); math.Abs(got-3.498e-06) > 1e-15 {
		t.Errorf("exponent value: %v", got)
	}
	if got := before.sum("faasm_sched_decisions"); got != 0 {
		t.Errorf("a name prefix must not match: %v", got)
	}
	d := diffSamples(sample{host: before}, sample{host: after})
	for series, want := range map[string]float64{
		"faasm_frt_cold_starts_total": 2, "faasm_sched_decisions_total": 102,
		"faasm_shardkvs_reads_total": 2, "faasm_new_series_total": 4,
	} {
		if got := d.hostDelta.sum(series); got != want {
			t.Errorf("delta %s = %v, want %v", series, got, want)
		}
	}
	// Rounds on fresh hosts fold by summing deltas and keeping the last gauges.
	var total outside
	total.add(d)
	total.add(d)
	if got := total.hostDelta.sum("faasm_sched_decisions_total"); got != 204 {
		t.Errorf("folded delta = %v, want 204", got)
	}
	if got := total.hostEnd.sum("faasm_shardkvs_reads_total"); got != 9 {
		t.Errorf("folded end state = %v, want 9", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses must not shift the fields.
	stat := "4242 (faasmd (x) y) S 1 4242 4242 0 -1 4194560 1234 0 0 0 150 25 0 0 20 0 9 0 5000 1000000 300 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseProcStatCPU(stat)
	if err != nil || got != 1750 {
		t.Fatalf("cpu = %v ms, %v; want 1750 (150+25 ticks of 10 ms)", got, err)
	}
	if _, err := parseProcStatCPU("no parenthesis here"); err == nil {
		t.Error("malformed stat accepted")
	}
	if _, err := parseProcStatCPU("1 (x) S 1 2"); err == nil {
		t.Error("truncated stat accepted")
	}
	status := "Name:\tfaasmd\nVmPeak:\t  999999 kB\nVmHWM:\t  577536 kB\nVmRSS:\t  400000 kB\n"
	hwm, err := parseProcStatusHWM(status)
	if err != nil || hwm != 564 {
		t.Fatalf("VmHWM = %v MiB, %v; want 564", hwm, err)
	}
	if _, err := parseProcStatusHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM accepted")
	}
}

func TestWorseBy(t *testing.T) {
	if got := worseBy(100, 110, "lower"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("latency up 10%%: %v", got)
	}
	if got := worseBy(100, 90, "higher"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("throughput down 10%%: %v", got)
	}
	if got := worseBy(100, 90, "lower"); got >= 0 {
		t.Errorf("an improvement must be negative: %v", got)
	}
	bounds := []contractMetric{{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}, {Name: "throughput_rps", Better: "higher", Bound: 0.10}}
	a := []*entry{{Workload: "w", EndToEnd: metrics{"lat_p50_ms": {Value: 1.00}, "throughput_rps": {Value: 1000}}}}
	b := []*entry{{Workload: "w", EndToEnd: metrics{"lat_p50_ms": {Value: 0.85}, "throughput_rps": {Value: 950}}}}
	rows := compareSets(bounds, a, b)
	if len(rows) != 2 || rows[0].Within || !rows[1].Within {
		t.Fatalf("A/A rows: %+v (a 17.6%% latency gap must be outside, a 5%% throughput gap within)", rows)
	}
}
