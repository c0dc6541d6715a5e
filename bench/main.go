// Command bench is the one benchmark of this repository: six named
// workloads over the virtual-time engine and the networked runtime,
// end-to-end metrics with tracing off and per-layer metrics from a
// separate traced run. See BENCHMARK.md beside this file.
//
//	sh bench/run.sh                                  # all six, untraced
//	sh bench/run.sh --trace 1                        # all six, traced
//	sh bench/run.sh --workload overload_24x48 --seed 7 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output, the driver's contract.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all six, one after another)")
		seed    = flag.Int64("seed", 1, "offsets every engine, controller and node seed")
		seconds = flag.Float64("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 makes the traced run that yields the per-layer metrics")
		outDir  = flag.String("out", filepath.Join("bench", "out"), "directory for traces and the record")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [--workload name] [--seed n] [--seconds s] [--trace 0|1]")
		os.Exit(2)
	}
	opt := options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, SetupReps: 5, OutDir: *outDir, Shrink: 1}

	ws := workloads()
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		ws = []*workload{w}
	}
	env := environment()
	printEnv(env)
	var results []*result
	ok := true
	for _, w := range ws {
		r, err := runWorkload(w, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			os.Exit(1)
		}
		printResult(r)
		results = append(results, r)
		ok = ok && r.correct()
	}
	if err := writeRecord(opt, env, results); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	if len(results) == 1 {
		line, err := json.Marshal(results[0].line())
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}

func runWorkload(w *workload, opt options) (*result, error) {
	if w.Net {
		return runNet(w, opt)
	}
	return runEngine(w, opt)
}

// declared is the metric list the run's mode reports.
func (r *result) declared() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// line is the contract's result: exactly the declared metrics of the
// run's mode. A per-layer metric the workload has no layer for reads 0.
func (r *result) line() resultLine {
	l := resultLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	for _, m := range r.declared() {
		v, ok := r.Metrics[m.Name]
		if !ok && !r.Traced {
			l.Correct = false
		}
		l.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return l
}

// printResult prints every metric the run measured, by name with its
// unit, then the checks.
func printResult(r *result) {
	fmt.Printf("\n== %s  traced=%v seed=%d GOMAXPROCS=%d warm=%.1fs measured=%.2fs\n",
		r.Workload, r.Traced, r.Seed, r.GOMAXPROCS, r.WarmS, r.MeasuredS)
	units := map[string]string{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		units[m.Name] = m.Unit
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		if _, ok := units[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		extra := ""
		if c, ok := r.Samples[n]; ok {
			extra = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Printf("%-36s %16.6g %s%s\n", n, r.Metrics[n], units[n], extra)
	}
	fmt.Printf("operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, c := range r.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Printf("check %s %-44s %s\n", mark, c.Name, c.Detail)
	}
}
