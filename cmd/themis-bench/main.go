// Command themis-bench regenerates the tables and figures of the THEMIS
// paper's evaluation (§7) and prints them as text series.
//
// Usage:
//
//	themis-bench [-scale quick|paper] [-seed N] [-csv DIR] [-run all|
//	              table1|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|
//	              fig14|sec75|sec76|stw|dynamic|ablation]
//	themis-bench -stepbench FILE | -allocbench FILE | -churnbench FILE |
//	              -querybench FILE [-net]
//
// Each -*bench flag runs that one measurement instead of the
// experiments, prints its table and writes the JSON record to FILE.
//
// The quick scale (default) shrinks durations and source rates so the
// whole suite finishes in well under a minute; the paper scale runs the
// full query counts. Shapes — who wins, by what factor, where trends
// bend — are preserved at both scales; see EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/stream"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "experiment scale: quick or paper")
	seed := flag.Int64("seed", 1, "root random seed")
	run := flag.String("run", "all", "comma-separated experiment list or 'all'")
	csvDir := flag.String("csv", "", "also write each experiment's series as CSV files into this directory")
	stepBench := flag.String("stepbench", "", "measure Engine.Step across worker counts and write the JSON comparison to this file")
	churnBench := flag.String("churnbench", "", "measure node-failure recovery time across STWs and write the JSON result to this file")
	allocBench := flag.String("allocbench", "", "measure per-step allocations on the pooled data path and write the JSON comparison to this file")
	queryBench := flag.String("querybench", "", "measure marginal per-query cost across sharing modes and write the JSON result to this file")
	netBench := flag.Bool("net", false, "with -querybench: also sweep a loopback networked federation (slower; adds the distributed share-index rows)")
	flag.Parse()

	switch {
	case *queryBench != "":
		r := experiments.QueryBench(60)
		if *netBench {
			net, err := experiments.QueryBenchNet(6)
			if err != nil {
				fatal("querybench -net", err)
			}
			r.Net = net
		}
		writeJSON("querybench", *queryBench, r)
		return
	case *allocBench != "":
		writeJSON("allocbench", *allocBench, experiments.AllocBench(400))
		return
	case *churnBench != "":
		r, err := experiments.ChurnRecovery([]stream.Duration{
			1 * stream.Second, 2 * stream.Second, 5 * stream.Second,
			10 * stream.Second, 20 * stream.Second,
		}, *seed)
		if err != nil {
			fatal("churnbench", err)
		}
		writeJSON("churnbench", *churnBench, r)
		return
	case *stepBench != "":
		workers := []int{1, 2, 4, 8}
		for _, w := range workers {
			if w > runtime.NumCPU() {
				fmt.Fprintf(os.Stderr, "themis-bench: warning: measuring workers=%d on %d CPUs — rows beyond the core count report scheduling overhead, not parallel speedup\n",
					w, runtime.NumCPU())
				break
			}
		}
		writeJSON("stepbench", *stepBench, experiments.StepBench(workers, 200))
		return
	}

	var csv *experiments.CSVWriter
	if *csvDir != "" {
		var err error
		csv, err = experiments.NewCSVWriter(*csvDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "themis-bench: %v\n", err)
			os.Exit(1)
		}
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "quick":
		scale = experiments.Quick
	case "paper":
		scale = experiments.Paper
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want quick or paper)\n", *scaleFlag)
		os.Exit(2)
	}

	// export writes a result's CSV when -csv is set, tolerating nil.
	export := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "themis-bench: csv: %v\n", err)
		}
	}
	corr := func(name string, rs []*experiments.CorrResult) []renderer {
		if csv != nil {
			for _, r := range rs {
				export(r.CSV(csv, name+"_"+strings.ToLower(strings.ReplaceAll(r.QueryType, "-", ""))))
			}
		}
		return asRenderers(rs)
	}
	fair := func(name string, r *experiments.FairnessResult) []renderer {
		if csv != nil {
			export(r.CSV(csv, name))
		}
		return []renderer{r}
	}
	runners := []struct {
		name string
		fn   func() []renderer
	}{
		{"table1", func() []renderer { return []renderer{experiments.Table1Queries()} }},
		{"fig6", func() []renderer { return corr("fig6", experiments.Fig6(scale, *seed)) }},
		{"fig7", func() []renderer { return corr("fig7", experiments.Fig7(scale, *seed)) }},
		{"fig8", func() []renderer { return fair("fig8", experiments.Fig8(scale, *seed)) }},
		{"fig9", func() []renderer { return fair("fig9", experiments.Fig9(scale, *seed)) }},
		{"fig10", func() []renderer {
			r := experiments.Fig10(scale, *seed)
			if csv != nil {
				export(r.CSV(csv, "fig10"))
			}
			return []renderer{r}
		}},
		{"fig11", func() []renderer { return fair("fig11", experiments.Fig11(scale, *seed)) }},
		{"fig12", func() []renderer { return fair("fig12", experiments.Fig12(scale, *seed)) }},
		{"fig13", func() []renderer { return fair("fig13", experiments.Fig13(scale, *seed)) }},
		{"fig14", func() []renderer { return fair("fig14", experiments.Fig14(scale, *seed)) }},
		{"sec75", func() []renderer {
			r := experiments.Sec75(scale, *seed)
			if csv != nil {
				export(r.CSV(csv, "sec75"))
			}
			return []renderer{r}
		}},
		{"sec76", func() []renderer {
			r := experiments.Sec76(scale, *seed)
			if csv != nil {
				export(r.CSV(csv, "sec76"))
			}
			return []renderer{r}
		}},
		{"stw", func() []renderer {
			r := experiments.STW(scale, *seed)
			if csv != nil {
				export(r.CSV(csv, "stw"))
			}
			return []renderer{r}
		}},
		{"dynamic", func() []renderer {
			r, err := experiments.DynamicWorkload(scale, *seed)
			if err != nil {
				fmt.Fprintf(os.Stderr, "themis-bench: dynamic: %v\n", err)
				os.Exit(1)
			}
			return []renderer{r}
		}},
		{"ablation", func() []renderer {
			r := experiments.Ablation(scale, *seed)
			if csv != nil {
				export(r.CSV(csv, "ablation"))
			}
			return []renderer{r}
		}},
	}

	want := map[string]bool{}
	if *run != "all" {
		for _, n := range strings.Split(*run, ",") {
			want[strings.TrimSpace(n)] = true
		}
	}
	ranAny := false
	for _, r := range runners {
		if *run != "all" && !want[r.name] {
			continue
		}
		ranAny = true
		start := time.Now()
		outs := r.fn()
		fmt.Printf("=== %s (scale=%s, %.1fs) ===\n", r.name, scale.Name, time.Since(start).Seconds())
		for _, o := range outs {
			fmt.Println(o.Render())
		}
	}
	if !ranAny {
		fmt.Fprintf(os.Stderr, "no experiment matched -run=%s\n", *run)
		os.Exit(2)
	}
}

// renderer is anything that prints itself as a text table.
type renderer interface{ Render() string }

// fatal reports a failed -*bench measurement and exits.
func fatal(bench string, err error) {
	fmt.Fprintf(os.Stderr, "themis-bench: %s: %v\n", bench, err)
	os.Exit(1)
}

// writeJSON finishes a -*bench run: print the result's table, then write
// its indented JSON record to path.
func writeJSON(bench, path string, r renderer) {
	fmt.Println(r.Render())
	buf, err := json.MarshalIndent(r, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(buf, '\n'), 0o644)
	}
	if err != nil {
		fatal(bench, err)
	}
}

// asRenderers adapts a CorrResult slice.
func asRenderers(rs []*experiments.CorrResult) []renderer {
	out := make([]renderer, len(rs))
	for i, r := range rs {
		out[i] = r
	}
	return out
}
