package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestReportFormatting(t *testing.T) {
	r := &Report{ID: "x", Title: "T", Header: []string{"a", "bb"}}
	r.Add("1", "2")
	r.Note("hello %d", 7)
	var buf bytes.Buffer
	r.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== x — T ==") || !strings.Contains(out, "hello 7") {
		t.Fatalf("format: %q", out)
	}
	if csv := r.CSV(); csv != "a,bb\n1,2\n" {
		t.Fatalf("csv: %q", csv)
	}
}

func TestTable3Shape(t *testing.T) {
	r := Table3(Options{Quick: true})
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Faaslet init must be far below the paper's docker constant.
	init := r.Rows[0]
	if !strings.Contains(init[1], "2.80s") {
		t.Fatalf("docker constant lost: %v", init)
	}
	fInit := parseDur(t, init[2])
	pInit := parseDur(t, init[3])
	if fInit > 100*time.Millisecond {
		t.Fatalf("faaslet init %v too slow", fInit)
	}
	if pInit > fInit*10 {
		t.Fatalf("proto init %v not in faaslet's league (%v)", pInit, fInit)
	}
}

func TestTable1AndPython(t *testing.T) {
	r := Table1(Options{Quick: true})
	if len(r.Rows) != 7 {
		t.Fatalf("table1 rows = %d", len(r.Rows))
	}
	if cell := r.Rows[1][5]; cell != "memory only (SFI)" {
		t.Fatalf("faaslet resource isolation = %q: CPU and network isolation are not wired into faasmd", cell)
	}
	py := Table3Python(Options{Quick: true})
	if len(py.Rows) != 2 {
		t.Fatalf("python rows = %d", len(py.Rows))
	}
	restore := parseDur(t, py.Rows[1][1])
	if restore > 500*time.Millisecond {
		t.Fatalf("interpreter proto restore %v not ≪ container 3.2s", restore)
	}
}

// Fig 7's quantiles are nearest-rank over every sample; q = 1 is the max.
func TestLatenciesNearestRank(t *testing.T) {
	var l latencies
	if l.quantile(0.5) != 0 {
		t.Fatal("empty series must read 0")
	}
	for i := 100; i >= 1; i-- {
		l.record(time.Duration(i) * time.Millisecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0, time.Millisecond}, {0.5, 50 * time.Millisecond}, {0.99, 99 * time.Millisecond}, {1, 100 * time.Millisecond}} {
		if got := l.quantile(c.q); got != c.want {
			t.Errorf("q%v = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestFig9aShape(t *testing.T) {
	r := Fig9a(Options{Quick: true})
	if len(r.Rows) < 10 {
		t.Fatalf("only %d kernels", len(r.Rows))
	}
	for _, row := range r.Rows {
		ratio := parseRatio(t, row[3])
		if ratio < 1 {
			t.Logf("kernel %s faster in sandbox (%v) — interpreter noise", row[0], row[3])
		}
		if ratio > 2000 {
			t.Fatalf("kernel %s ratio %v absurd", row[0], row[3])
		}
	}
}

func TestFig9bShape(t *testing.T) {
	r := Fig9b(Options{Quick: true})
	if len(r.Rows) != 6 {
		t.Fatalf("programs = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		ratio := parseRatio(t, row[3])
		// The faaslet heap must cost something but stay the same order of
		// magnitude — the paper's dynamic-runtime overhead band.
		if ratio > 20 {
			t.Fatalf("%s ratio %v implausible", row[0], row[3])
		}
	}
}

func TestFig10Shape(t *testing.T) {
	r := Fig10(Options{Quick: true})
	if len(r.Rows) < 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Docker saturates at low rates; proto-faaslets stay fast to ≥1000/s.
	var docker3, proto1000 time.Duration
	for _, row := range r.Rows {
		if row[0] == "3" {
			docker3 = parseDur(t, row[1])
		}
		if row[0] == "1000" {
			proto1000 = parseDur(t, row[3])
		}
	}
	if docker3 < time.Second {
		t.Fatalf("docker at 3/s = %v, expected saturation", docker3)
	}
	if proto1000 > 100*time.Millisecond {
		t.Fatalf("proto at 1000/s = %v, expected sub-100ms", proto1000)
	}
}

func TestFig6QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r := Fig6(Options{Quick: true})
	// Rows come in faasm/knative pairs per worker count.
	if len(r.Rows) < 8 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// At 32 workers knative must be OOM or slower; faasm must be ok.
	var faasmOK bool
	var knativeHurt bool
	for _, row := range r.Rows {
		if row[0] == "32" && row[1] == "faasm" && row[6] == "ok" {
			faasmOK = true
		}
		if row[0] == "32" && row[1] == "knative" && row[6] != "ok" {
			knativeHurt = true
		}
	}
	if !faasmOK {
		t.Fatalf("faasm did not survive 32 workers: %v", r.Rows)
	}
	if !knativeHurt {
		t.Logf("knative survived 32 workers (memory model roomy); rows: %v", r.Rows)
	}
}

func TestFig8QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r := Fig8(Options{Quick: true})
	if len(r.Rows) < 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if strings.Contains(row[4], "failed") {
			t.Fatalf("run failed: %v", row)
		}
	}
}

func TestStateScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	r := StateScale(Options{Quick: true})
	var tierRows, macroRows int
	for _, row := range r.Rows {
		switch row[0] {
		case "tier":
			tierRows++
			if row[2] == "0" {
				t.Fatalf("tier config %q produced no throughput: %v", row[1], row)
			}
		case "macro-sgd":
			macroRows++
			if strings.Contains(row[5], "failed") {
				t.Fatalf("macro run failed: %v", row)
			}
		}
	}
	if tierRows < 5 || macroRows < 2 {
		t.Fatalf("rows: tier=%d macro=%d (%v)", tierRows, macroRows, r.Rows)
	}
}

func parseDur(t *testing.T, s string) time.Duration {
	t.Helper()
	s = strings.TrimSpace(s)
	var mult time.Duration
	var num string
	switch {
	case strings.HasSuffix(s, "ms"):
		mult, num = time.Millisecond, strings.TrimSuffix(s, "ms")
	case strings.HasSuffix(s, "us"):
		mult, num = time.Microsecond, strings.TrimSuffix(s, "us")
	case strings.HasSuffix(s, "ns"):
		mult, num = time.Nanosecond, strings.TrimSuffix(s, "ns")
	case strings.HasSuffix(s, "s"):
		mult, num = time.Second, strings.TrimSuffix(s, "s")
	default:
		t.Fatalf("bad duration %q", s)
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil {
		t.Fatalf("bad duration %q: %v", s, err)
	}
	return time.Duration(f * float64(mult))
}

func parseRatio(t *testing.T, s string) float64 {
	t.Helper()
	f, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("bad ratio %q: %v", s, err)
	}
	return f
}

func TestInvokeScaleShape(t *testing.T) {
	r := InvokeScale(Options{Quick: true})
	var tputRows int
	for _, row := range r.Rows {
		if row[0] != "throughput" {
			continue
		}
		tputRows++
		if row[2] == "0" {
			t.Fatalf("config %q produced no throughput: %v", row[1], row)
		}
	}
	if tputRows != 3 {
		t.Fatalf("throughput rows = %d (%v)", tputRows, r.Rows)
	}
}

// TestGates runs every gate experiment quick-sized. A gate states each of
// its conditions, preconditions included, as a Report.Check where it
// measures them, so a gate passes only if no check failed and each of its
// sections produced at least one passing check.
func TestGates(t *testing.T) {
	for _, g := range []struct {
		id       string
		run      func(Options) *Report
		sections []string
	}{
		// A tier shard killed and revived under mixed traffic: zero failed
		// operations, failovers observed, convergence after read-repair.
		{"state-chaos", StateChaos, []string{"ring", "cluster"}},
		// With the locality weight on, >=50% fewer remote state bytes.
		{"locality", Locality, []string{"sgd", "dmatmul"}},
		// Grow-ahead beats the static pool; the failover drain fails no call
		// and evicts the dead host within (0, 2] lease TTLs of virtual time.
		{"elastic-sched", Elasticity, []string{"pool", "failover"}},
		// A host killed mid-execution: every accepted call completes exactly
		// once, the chained pipeline keeps its lineage, sync stays fast.
		{"async-queue", AsyncQueue, []string{"crash", "chain", "sync"}},
	} {
		t.Run(g.id, func(t *testing.T) {
			r := g.run(Options{Quick: true})
			if r.ID != g.id {
				t.Fatalf("report ID %q", r.ID)
			}
			for _, row := range r.Failed() {
				t.Errorf("check failed: %v", row)
			}
			passed := map[string]bool{}
			for _, row := range r.Rows {
				if row[len(row)-1] == "ok" {
					passed[row[0]] = true
				}
			}
			for _, s := range g.sections {
				if !passed[s] {
					t.Errorf("section %q has no passing check: %v", s, r.Rows)
				}
			}
		})
	}
}
