// Command faasm-bench regenerates the paper's tables and figures on this
// machine. Each subcommand corresponds to one table or figure of the
// evaluation (§6); internal/experiments holds one runner per experiment, and
// each printed report (internal/experiments/report.go) carries the paper's
// series in its rows or notes beside the measured values.
//
// Usage:
//
//	faasm-bench all            # every experiment (minutes)
//	faasm-bench table1|table3|table3-python
//	faasm-bench fig6|fig6-small|fig7|fig7b|fig8|fig9a|fig9b|fig10
//	faasm-bench -quick <id>    # reduced sweeps for a fast pass
//	faasm-bench -csv <id>      # raw CSV instead of the text table
//	faasm-bench -json <id>     # machine-readable results (one JSON object
//	                           # per experiment, for the BENCH_*.json
//	                           # result trajectory)
package main

import (
	"flag"
	"fmt"
	"os"

	"faasm.dev/faasm/internal/experiments"
)

// experimentList is every runnable experiment, in the order "all" runs them;
// the lookup table, "all" and the usage line all derive from it.
var experimentList = []struct {
	id  string
	run func(experiments.Options) *experiments.Report
}{
	{"table1", experiments.Table1},
	{"table3", experiments.Table3},
	{"table3-python", experiments.Table3Python},
	{"fig6", experiments.Fig6},
	{"fig6-small", experiments.Fig6Small},
	{"fig7", experiments.Fig7},
	{"fig7b", experiments.Fig7CDF},
	{"fig8", experiments.Fig8},
	{"fig9a", experiments.Fig9a},
	{"fig9b", experiments.Fig9b},
	{"fig10", experiments.Fig10},
	{"state-scale", experiments.StateScale},
	{"invoke-scale", experiments.InvokeScale},
	{"elastic-sched", experiments.Elasticity},
	{"state-chaos", experiments.StateChaos},
	{"locality", experiments.Locality},
	{"async-queue", experiments.AsyncQueue},
}

func main() {
	quick := flag.Bool("quick", false, "reduced sweeps (seconds instead of minutes)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of aligned tables")
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		os.Exit(2)
	}
	opts := experiments.Options{Quick: *quick}

	table := map[string]func(experiments.Options) *experiments.Report{}
	var all []string
	for _, e := range experimentList {
		table[e.id] = e.run
		all = append(all, e.id)
	}
	ids := flag.Args()
	if len(ids) == 1 && ids[0] == "all" {
		ids = all
	}
	for _, id := range ids {
		run, ok := table[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
			usage()
			os.Exit(2)
		}
		report := run(opts)
		switch {
		case *jsonOut:
			b, err := report.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "encode %s: %v\n", id, err)
				os.Exit(1)
			}
			fmt.Printf("%s\n", b)
		case *csv:
			fmt.Print(report.CSV())
		default:
			report.Fprint(os.Stdout)
		}
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: faasm-bench [-quick] [-csv] [-json] <experiment>...")
	fmt.Fprint(os.Stderr, "experiments: all")
	for _, e := range experimentList {
		fmt.Fprint(os.Stderr, " ", e.id)
	}
	fmt.Fprintln(os.Stderr)
}
