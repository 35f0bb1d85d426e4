// Command perfbench is the repository's benchmark. It runs one workload
// per process through the simulator's public packages, checks every
// output it produces, and prints the workload's metrics as the last
// line of standard output:
//
//	{"correct": true, "attempted": 15, "failed": 0, "metrics": {"wall_s": {"value": 21.7, "unit": "s"}, ...}}
//
// Usage (from the repository root, normally through run.py):
//
//	perfbench -workload figs-quick|mesh32-sweep|serve-mixed -seed N -seconds S -trace 0|1
//
// -trace 0 reports the end-to-end metrics of the named workload. -trace
// 1 replays every layer from the benchmark's own code with a span around
// each public call and reports the per-layer metrics; see README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// config is what every workload gets from the command line.
type config struct {
	seed    uint64
	seconds time.Duration
	root    string // repository checkout (holds results/)
	out     string // directory for trace and digest output
}

var workloads = []string{"figs-quick", "mesh32-sweep", "serve-mixed"}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload: "+fmt.Sprint(workloads))
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "how long one run measures")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	root := flag.String("root", ".", "repository checkout to read committed results from")
	out := flag.String("out", ".bench_build/perfbench", "directory for span dumps and recorded digests")
	record := flag.Bool("record-digest", false, "mesh32-sweep only: record this seed's digest into -out instead of checking it")
	flag.Parse()

	if !slices.Contains(workloads, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %v, -seconds >= 1, -trace 0|1\n", workloads)
		return 2
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, root: *root, out: *out}
	if _, err := os.Stat(filepath.Join(cfg.root, "results")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (run from the repository root)\n", err)
		return 1
	}

	var (
		m   = metrics{}
		t   tally
		err error
	)
	switch {
	case *record:
		err = recordDigest(cfg)
		if err == nil {
			return 0
		}
	case *trace == 1:
		err = runTraced(cfg, *workload, m, &t)
	default:
		err = runWorkload(cfg, *workload, m, &t)
		m.set("peak_rss_mib", "MiB", peakRSSMiB())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, r := range t.reasons {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED %s\n", r)
	}
	report(os.Stdout, *workload, m, &t)
	return 0
}

// runWorkload runs one workload untraced and fills its end-to-end metrics.
func runWorkload(cfg config, workload string, m metrics, t *tally) error {
	switch workload {
	case "figs-quick":
		return figsQuick(cfg, m, t)
	case "mesh32-sweep":
		return mesh32Sweep(cfg, m, t)
	default:
		return serveMixed(cfg, m, t)
	}
}

// report prints a readable table and then the result line.
func report(w io.Writer, workload string, m metrics, t *tally) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s: %d attempted, %d failed (failed_frac %.4f)\n", workload, t.attempted, t.failed, t.failedFrac())
	for _, n := range names {
		fmt.Fprintf(w, "%-44s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
	line, _ := json.Marshal(result{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: m})
	fmt.Fprintln(w, string(line))
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
