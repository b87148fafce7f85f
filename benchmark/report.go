package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// The metrics of the timed run, in the order of BENCHMARK.json. failed_share
// is printed with them; in the result JSON it is the attempted and failed
// counts instead, because the contract has no place for a metric that is 0.
var endToEnd = []string{
	"setup_s", "build_s", "spanner_edges", "boot_s", "query_qps", "query_p50_us",
	"batch_p50_ms", "checkpoint_stall_ms", "recover_s", "serve_peak_rss_mb", "failed_share",
}

// printEnv prints what a reader needs to place the numbers.
func printEnv(seed int64, seconds int) {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	kernel := "unknown"
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(data))
	}
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("env: cpu=%q nproc=%d GOMAXPROCS=%d go=%s kernel=%s commit=%s seed=%d seconds=%d\n",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel, commit, seed, seconds)
}

// runFunc is runTimed or runTraced.
type runFunc func(env *runEnv, sp *spec, seed int64, seconds int) (*result, error)

// report runs every workload and prints the table: with repeat > 1, per
// metric the median, the quartiles and the relative spread over the seeds,
// which is what the bounds in BENCHMARK.json were set from. It returns the
// exit code: 1 if any run failed an operation, got an output wrong or
// saturated.
func report(env *runEnv, run runFunc, traced bool, seed int64, seconds int, repeat int) int {
	printEnv(seed, seconds)
	code := 0
	for _, sp := range workloads {
		values := map[string][]float64{}
		units := map[string]string{}
		var names []string
		for i := 0; i < repeat; i++ {
			res, err := run(env, sp, seed+int64(i), seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %v\n", sp.name, seed+int64(i), err)
				code = 1
				continue
			}
			res.printNotes()
			if !res.ok() {
				code = 1
			}
			if !traced {
				res.set("failed_share", float64(res.failed)/float64(res.attempted), "ratio")
				names = endToEnd
			} else if names == nil {
				names = res.sortedNames()
			}
			for name, m := range res.metrics {
				values[name] = append(values[name], m.Value)
				units[name] = m.Unit
			}
			runtime.GC()
		}
		fmt.Printf("\n%s\n", sp.name)
		for _, name := range names {
			v := values[name]
			switch {
			case len(v) == 0:
				fmt.Printf("  %-36s (no run completed)\n", name)
			case len(v) == 1:
				fmt.Printf("  %-36s %14.6g %s\n", name, v[0], units[name])
			default:
				q1, _, q3 := quartiles(v)
				fmt.Printf("  %-36s %14.6g %-8s q1 %-12.6g q3 %-12.6g spread %5.1f %%  (n=%d)\n",
					name, median(v), units[name], q1, q3, 100*spread(v), len(v))
			}
		}
	}
	return code
}
