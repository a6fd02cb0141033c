// Package experiments regenerates every table and figure in the paper's
// evaluation (§6). Each experiment returns a Report whose rows mirror the
// paper's series, so paper and measured values print side by side.
// cmd/faasm-bench prints them; the repo-root benchmark file wraps
// them in testing.B benches.
//
// Micro experiments (Tables 1 and 3, Figs 9a/9b, the Fig 10 service times)
// measure this substrate for real, in real time. Macro experiments (Figs
// 6–8) run on the cluster harness: real guest code over a simulated 1 Gbps
// network on a scaled clock, with the container baseline using the paper's
// own measured cold-start and footprint constants. Each report's notes state
// the clock scale and substitutions of its run.
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Report is one experiment's regenerated table.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	failed [][]string
}

// Add appends a row.
func (r *Report) Add(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// Check appends a gated row: cells, then an "ok" or "FAILED" gate cell. A
// gate states each of its conditions, preconditions included, as one Check
// where it measures it; Failed returns the rows whose condition did not hold.
func (r *Report) Check(ok bool, cells ...string) {
	if ok {
		r.Add(append(cells, "ok")...)
		return
	}
	r.Add(append(cells, "FAILED")...)
	r.failed = append(r.failed, r.Rows[len(r.Rows)-1])
}

// Failed returns the rows of every Check that failed, in order.
func (r *Report) Failed() [][]string { return r.failed }

// Note appends a footnote.
func (r *Report) Note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders an aligned text table.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// JSON renders the report as one machine-readable object (faasm-bench
// -json); the BENCH_*.json result trajectory consumes this form.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// CSV renders the rows as comma-separated values.
func (r *Report) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Header, ","))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks sweeps for CI; the default runs the full-sized sweeps.
	Quick bool
}
