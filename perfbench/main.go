// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three closed-loop workloads against the cadcam engine, checks the
// engine's answers with correctness oracles, and prints every metric by
// name with its unit. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics, measured with
// tracing off. With --trace 1 the run measures an untraced and a traced
// phase and reports the per-layer metrics derived from the spans and
// counter deltas of the traced phase, plus the tracing overhead.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload inherit-read --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare parent-results/ change-results/
//
// README.md in this directory lists the workloads, each metric and the
// end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workDir holds everything a run writes: data directories and trace
// files. It is relative to the directory the benchmark runs from, which
// is the root of the checkout.
const workDir = ".bench_build/run"

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run measured.
type result struct {
	e2e       map[string]metric // every end-to-end measurement, gated or not
	layer     map[string]metric // per-layer measurements (traced runs only)
	samples   map[string]int    // latency samples behind each timing
	selfUs    map[string]float64
	attempted int64
	failed    int64
	errs      []string
	oracle    *oracle
	notes     map[string]any
}

// runConfig is one invocation of a workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // scratch directory for data and traces
	sc       scale
}

type workloadFunc func(cfg runConfig) (*result, error)

var workloads = map[string]workloadFunc{
	"inherit-read":  runInheritRead,
	"design-commit": runDesignCommit,
	"wire-mixed":    runWireMixed,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: inherit-read, design-commit or wire-mixed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		dir:      filepath.Join(workDir, *name),
		sc:       fullScale,
	}
	if err := os.RemoveAll(cfg.dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printLine(map[string]any{"perfbench": "env", "workload": cfg.workload, "trace": *trace,
		"seconds": cfg.seconds, "env": envStamp(cfg)})
	res, err := fn(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printLine(map[string]any{"perfbench": "detail", "workload": cfg.workload, "e2e": res.e2e,
		"samples": res.samples, "self_us": res.selfUs, "errors": res.errs,
		"oracle": res.oracle.report(), "notes": res.notes})
	final, err := finalLine(res, cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printLine(final)
	if !final["correct"].(bool) {
		return 1
	}
	return 0
}

// finalLine assembles the result object: the gated end-to-end metrics
// without tracing, every per-layer metric with it.
func finalLine(res *result, traced bool) (map[string]any, error) {
	want, from := gatedE2E, res.e2e
	if traced {
		want, from = perLayer, res.layer
	}
	out := make(map[string]metric, len(want))
	for _, d := range want {
		m, ok := from[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if m.Unit != d.unit {
			return nil, fmt.Errorf("metric %s measured in %s, declared in %s", d.name, m.Unit, d.unit)
		}
		out[d.name] = m
	}
	// Expected refusals (one_way) are checked by an oracle and are not
	// failures, so any failed operation makes the run incorrect: a change
	// must not gain throughput by failing operations.
	return map[string]any{
		"correct":   res.oracle.ok() && res.attempted > 0 && res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	}, nil
}

func printLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value printed is a plain map of numbers and strings
	}
	fmt.Println(string(b))
}

// elapsedSince returns seconds since t0.
func elapsedSince(t0 time.Time) float64 { return time.Since(t0).Seconds() }
