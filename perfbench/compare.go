package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// The compare mode reads two result sets — directories holding the
// saved standard output of benchmark runs, one file per run, from the
// parent commit (A) and from the change (B) — and prints, per workload,
// one row per end-to-end metric with each side's median and quartiles
// and a verdict, followed by the medians of the per-layer metrics of
// the traced runs:
//
//	bash perfbench/run.sh compare [-bench BENCHMARK.json] parent/ change/
//
// The verdict follows the measuring rules the benchmark was built to:
//   - improved: at least ten pairs of runs (paired by seed, else by
//     order), B better in at least nine tenths of them (ties count for
//     neither side), and the medians differ by more than A's quartile
//     distance;
//   - no worse: B's median is within the metric's bound of A's, and A's
//     own spread (quartile distance over median) is within the bound;
//   - unresolved: A's spread is wider than the bound, unless every run
//     of B is better than every run of A (then no worse);
//   - worse: B's median is worse than A's by more than the bound;
//   - incorrect: a run of B reported correct=false (an oracle tripped or
//     an operation failed), so no figure of B counts, however fast.
//
// Every row counts each side's runs, its incorrect runs and its failed
// operations. The medians and quartiles are taken over correct runs only.

// savedRun is one parsed benchmark run.
type savedRun struct {
	workload  string
	seed      int64
	trace     bool
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]metric
}

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: compare [-bench BENCHMARK.json] <parent-results-dir> <change-results-dir>")
	}
	b, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	a, err := loadRuns(fs.Arg(0))
	if err != nil {
		return err
	}
	bb, err := loadRuns(fs.Arg(1))
	if err != nil {
		return err
	}
	return compare(w, spec, a, bb)
}

// loadRuns parses every file in dir that holds a benchmark run's output.
func loadRuns(dir string) ([]savedRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []savedRun
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		r, ok, err := parseRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no benchmark results", dir)
	}
	return out, nil
}

// parseRun reads the env line and the final result line of one run's
// output. A file without both is not a run and is skipped; a run that
// reported correct=false is kept, marked incorrect.
func parseRun(path string) (savedRun, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, false, err
	}
	defer f.Close()
	var r savedRun
	var haveEnv bool
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		var env struct {
			Perfbench string         `json:"perfbench"`
			Workload  string         `json:"workload"`
			Trace     int            `json:"trace"`
			Env       map[string]any `json:"env"`
		}
		if json.Unmarshal([]byte(line), &env) == nil && env.Perfbench == "env" {
			r.workload, r.trace, haveEnv = env.Workload, env.Trace == 1, true
			if s, ok := env.Env["seed"].(float64); ok {
				r.seed = int64(s)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return savedRun{}, false, fmt.Errorf("%s: %w", path, err)
	}
	var res struct {
		Correct   *bool             `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if !haveEnv {
		return savedRun{}, false, nil
	}
	if json.Unmarshal([]byte(last), &res) != nil || res.Correct == nil {
		// The run ended without a result line: it failed.
		return r, true, nil
	}
	r.correct, r.attempted, r.failed, r.metrics = *res.Correct, res.Attempted, res.Failed, res.Metrics
	return r, true, nil
}

// summary is a side's distribution of one metric.
type summary struct{ q1, med, q3 float64 }

// quartiles matches Python's statistics.quantiles(values, n=4), the
// exclusive method.
func quartiles(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return summary{s[0], s[0], s[0]}
	}
	at := func(p float64) float64 {
		h := p * float64(n+1)
		j := int(math.Floor(h))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return summary{at(0.25), medianFloat(s), at(0.75)}
}

// verdict applies the comparison rule to one metric.
func verdict(a, b []savedRun, name string, higherBetter bool, bound float64) string {
	av, bv := values(a, name), values(b, name)
	sa, sb := quartiles(av), quartiles(bv)
	better := func(x, y float64) bool { // x better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	pairs, wins := pairUp(a, b, name, better)
	if pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && better(sb.med, sa.med) &&
		math.Abs(sb.med-sa.med) > sa.q3-sa.q1 {
		return "improved"
	}
	worseBy := (sb.med - sa.med) / sa.med
	if higherBetter {
		worseBy = -worseBy
	}
	if sa.med != 0 && (sa.q3-sa.q1)/math.Abs(sa.med) > bound {
		if allBetter(bv, av, better) {
			return "no worse"
		}
		return "unresolved"
	}
	if worseBy > bound {
		return "worse"
	}
	return "no worse"
}

func values(rs []savedRun, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// pairUp pairs runs of equal seed, or else by position, and counts the
// pairs in which B is better.
func pairUp(a, b []savedRun, name string, better func(x, y float64) bool) (pairs, wins int) {
	bySeed := map[int64]savedRun{}
	for _, r := range b {
		bySeed[r.seed] = r
	}
	matched := 0
	for _, r := range a {
		if _, ok := bySeed[r.seed]; ok {
			matched++
		}
	}
	for i, r := range a {
		var o savedRun
		if matched == len(a) {
			o = bySeed[r.seed]
		} else if i < len(b) {
			o = b[i]
		} else {
			break
		}
		x, okx := o.metrics[name]
		y, oky := r.metrics[name]
		if !okx || !oky {
			continue
		}
		pairs++
		if better(x.Value, y.Value) {
			wins++
		}
	}
	return pairs, wins
}

func allBetter(b, a []float64, better func(x, y float64) bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// outcome counts one side's runs of a workload: all of them, those that
// reported correct=false, and their failed operations.
func outcome(rs []savedRun) string {
	bad, failed := 0, int64(0)
	for _, r := range rs {
		if !r.correct {
			bad++
		}
		failed += r.failed
	}
	return fmt.Sprintf("%d runs, %d incorrect, %d failed ops", len(rs), bad, failed)
}

// correctOnly drops the runs that reported correct=false.
func correctOnly(rs []savedRun) []savedRun {
	var out []savedRun
	for _, r := range rs {
		if r.correct {
			out = append(out, r)
		}
	}
	return out
}

func compare(w io.Writer, spec benchSpec, a, b []savedRun) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	of := func(rs []savedRun, wl string) []savedRun {
		var out []savedRun
		for _, r := range rs {
			if r.workload == wl {
				out = append(out, r)
			}
		}
		return out
	}
	split := func(rs []savedRun, traced bool) []savedRun {
		var out []savedRun
		for _, r := range correctOnly(rs) {
			if r.trace == traced {
				out = append(out, r)
			}
		}
		return out
	}
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tdelta\tverdict")
	for _, wl := range spec.Workloads {
		wa, wb := of(a, wl.Name), of(b, wl.Name)
		if len(wa) == 0 && len(wb) == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t  runs\tA: %s\tB: %s\t\t\n", wl.Name, outcome(wa), outcome(wb))
		bIncorrect := len(correctOnly(wb)) < len(wb)
		ea, eb := split(wa, false), split(wb, false)
		for _, m := range spec.EndToEnd {
			av, bv := values(ea, m.Name), values(eb, m.Name)
			if bIncorrect {
				fmt.Fprintf(tw, "%s\t%s (%s)\t\t\t\tincorrect\n", wl.Name, m.Name, m.Unit)
				continue
			}
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			sa, sb := quartiles(av), quartiles(bv)
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%s\n",
				wl.Name, m.Name, m.Unit, sa.med, sa.q1, sa.q3, sb.med, sb.q1, sb.q3,
				pct(sa.med, sb.med), verdict(ea, eb, m.Name, m.Better == "higher", m.Bound))
		}
		la, lb := split(wa, true), split(wb, true)
		if bIncorrect || len(la) == 0 || len(lb) == 0 {
			continue
		}
		for _, m := range spec.PerLayer {
			av, bv := values(la, m.Name), values(lb, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			ma, mb := medianFloat(av), medianFloat(bv)
			if ma == 0 && mb == 0 {
				continue // a layer this workload bypasses
			}
			fmt.Fprintf(tw, "%s\t  layer %s (%s)\t%.4g\t%.4g\t%+.1f%%\t\n", wl.Name, m.Name, m.Unit, ma, mb, pct(ma, mb))
		}
	}
	return tw.Flush()
}

func pct(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / math.Abs(a) * 100
}
