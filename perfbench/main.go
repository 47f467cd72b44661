// Command perfbench is the end-to-end benchmark of the Ursa reproduction. It
// runs one workload as a series of cold child processes, checks that the
// modelled outputs are correct, and prints every metric by name with its
// unit; the last line of standard output is one JSON object.
//
// Usage (from the repository root, after building with perfbench/run.sh):
//
//	perfbench --workload ursa-diurnal --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics of untraced runs; --trace 1 adds
// traced runs, writes their spans under -out and reports the per-layer
// metrics. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// childEnv marks a process started by the orchestrator to run one workload.
const childEnv = "PERFBENCH_CHILD"

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:]))
	}
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
		seed    = flag.Int64("seed", defaultSeed, "workload seed")
		seconds = flag.Float64("seconds", 10, "measuring time; cold runs repeat until it is spent (at least minRuns)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics of untraced runs; 1: per-layer metrics of traced runs")
		out     = flag.String("out", ".bench_build/perfbench/spans", "directory for span dumps of traced runs")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --trace 0|1 and --seconds > 0\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	cfg := benchConfig{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out}
	os.Exit(orchestrate(os.Stdout, cfg))
}

// childMain runs one workload in this process and prints its runResult as
// JSON on standard output.
func childMain(args []string) int {
	fs := flag.NewFlagSet("perfbench-child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", defaultSeed, "seed")
	traced := fs.Bool("traced", false, "record spans")
	tiny := fs.Bool("tiny", false, "shrink the workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *tiny {
		w = w.tiny()
	}
	res, err := runOnce(w, *seed, *traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// median of a non-empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
