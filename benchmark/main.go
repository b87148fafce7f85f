// Command benchmark is this repository's benchmark: four workloads that each
// drive the whole pipeline (generate inputs, build the spanner in-process,
// boot a real ftserve, query it over loopback HTTP with and without
// concurrent churn, SIGKILL it, recover), ten bounded end-to-end metrics and a
// failure count per workload, and a separate traced run that splits them by
// layer.
//
//	go run ./benchmark                         all workloads, timed run, table
//	go run ./benchmark -repeat 10              ten seeds each, medians and spreads
//	go run ./benchmark -trace 1                all workloads, traced run
//	go run ./benchmark -workload W -seed N -seconds S -trace 0|1
//	                                           one run; last line is the result JSON
//
// README.md in this directory is the glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 16

func main() {
	workload := flag.String("workload", "", "run one workload and print its result as one JSON line (default: all, as a table)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", defaultSeconds, "seconds of load per run: warm-up, phase A and phase B together")
	trace := flag.Int("trace", 0, "1 = the traced run (per-layer metrics), 0 = the timed run (end-to-end metrics)")
	repeat := flag.Int("repeat", 1, "timed runs per workload, on seeds seed, seed+1, ...; prints medians, quartiles and spreads")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *repeat < 1 || (*trace != 0 && *trace != 1) || (*workload != "" && *repeat > 1) {
		flag.Usage()
		os.Exit(2)
	}
	env, err := newRunEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	run := runTimed
	if *trace == 1 {
		run = runTraced
	}
	if *workload == "" {
		os.Exit(report(env, run, *trace == 1, *seed, *seconds, *repeat))
	}
	sp := findWorkload(*workload)
	if sp == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	res, err := run(env, sp, *seed, *seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	res.printNotes()
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.ok() {
		os.Exit(1)
	}
}

// ok is the pass criterion of a run: every output right, no operation
// failed, no phase saturated.
func (r *result) ok() bool { return r.correct && r.failed == 0 && !r.saturated }

func (r *result) printNotes() {
	for _, n := range r.notes {
		fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %s\n", r.workload, r.seed, n)
	}
}
