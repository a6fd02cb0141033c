package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted, which must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median sorts a copy of vals and returns its 50th percentile (0 if empty).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// quietQuartile returns the value a quarter of the way in from the better
// end of vals (0 if empty): the level a run reaches in the quietest quarter of
// its slices. Interference from the shared machine only ever makes a slice
// worse, so this holds still where the median follows how much of the run an
// outside burst happened to cover.
func quietQuartile(vals []float64, higherBetter bool) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if higherBetter {
		slices.Reverse(s)
	}
	return s[(len(s)-1)/4]
}

// samplesBeyond is how many of n samples lie above the p-th percentile.
func samplesBeyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// promSeries is one scrape of a Prometheus text exposition: series name with
// its label set, exactly as printed, to value.
type promSeries map[string]float64

// parsePromText reads the text exposition format 0.0.4. Comment lines and
// lines that do not parse are skipped: a scrape is evidence, not input the
// benchmark may fail on.
func parsePromText(text string) promSeries {
	out := promSeries{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the last space; label values may hold spaces.
		cut := strings.LastIndexByte(line, ' ')
		if cut < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			continue
		}
		out[strings.TrimSpace(line[:cut])] = v
	}
	return out
}

// sum adds every series called name, whatever its labels.
func (p promSeries) sum(name string) float64 {
	var total float64
	for series, v := range p {
		if base, _, _ := strings.Cut(series, "{"); base == name {
			total += v
		}
	}
	return total
}

// clockTicksPerSecond is USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; Linux fixes it at 100 for user space on every port.
const clockTicksPerSecond = 100

// parseProcStatCPU returns utime+stime in milliseconds from the contents of
// /proc/<pid>/stat. The command name may hold spaces and parentheses, so
// fields are counted from the last ')'.
func parseProcStatCPU(stat string) (float64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	f := strings.Fields(stat[end+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: utime %q stime %q", f[11], f[12])
	}
	return float64(utime+stime) * 1000 / clockTicksPerSecond, nil
}

// parseProcStatusHWM returns VmHWM (peak resident set) in MiB from the
// contents of /proc/<pid>/status.
func parseProcStatusHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: VmHWM %q", f[0])
		}
		return float64(kb) / 1024, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// procCPUms reads a live process's consumed CPU time in milliseconds.
func procCPUms(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

// procHWMmb reads a live process's peak resident set in MiB.
func procHWMmb(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatusHWM(string(b))
}
