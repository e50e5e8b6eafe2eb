// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator's public packages, checks the
// simulated output, and prints every metric by name and unit, ending
// with one JSON result line.
//
//	perfbench --workload census --seed 2022 --seconds 20 --trace 0
//	perfbench compare --spec BENCHMARK.json --parent a.jsonl --change b.jsonl
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run.
// README.md in this directory documents the workloads and metrics.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

// defaultSeed is the recorded seed: expected.json pins each workload's
// output digest at this seed.
const defaultSeed = 2022

// options are the parsed command-line arguments of a benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	record   string // append the result line here too (A/B result sets)
	outDir   string // profiles and span dumps
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 20, "how long the timed section measures, in host seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fs.StringVar(&o.record, "record", "", "also append the result line, tagged with workload and seed, to this file")
	fs.StringVar(&o.outDir, "out", ".bench_build", "directory for CPU profiles and span dumps of traced runs")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloadByName(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, workloadNames())
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1 (got %d)", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1 (got %d)", trace)
	}
	o.trace = trace == 1
	return o, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Args[2:], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	o, err := parseOptions(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	w, _ := workloadByName(o.workload)
	var res result
	if o.trace {
		res, err = tracedRun(w, o)
	} else {
		res, err = plainRun(w, o)
	}
	if err == nil {
		err = checkDeclared(res, o.trace, "BENCHMARK.json")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, res, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
