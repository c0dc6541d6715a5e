// Command themis-bench regenerates the tables and figures of the THEMIS
// paper's evaluation (§7) and prints them as text series.
//
// Usage:
//
//	themis-bench [-scale quick|paper] [-seed N] [-csv DIR] [-run all|
//	              table1|fig6|fig7|fig8|fig9|fig10|fig11|fig12|fig13|
//	              fig14|sec75|sec76|stw|dynamic|ablation|churn]
//
// The quick scale (default) shrinks durations and source rates so the
// whole suite finishes in well under a minute; the paper scale runs the
// full query counts. Shapes — who wins, by what factor, where trends
// bend — are preserved at both scales; see EXPERIMENTS.md. Performance
// numbers come from `sh bench/run.sh`, not from this command.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
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
	flag.Parse()

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

	// export writes a result's CSV when -csv is set.
	export := func(r result, name string) {
		if csv == nil {
			return
		}
		if err := r.CSV(csv, name); err != nil {
			fmt.Fprintf(os.Stderr, "themis-bench: csv: %v\n", err)
		}
	}
	one := func(name string, r result) []renderer {
		export(r, name)
		return []renderer{r}
	}
	corr := func(name string, rs []*experiments.CorrResult) []renderer {
		out := make([]renderer, len(rs))
		for i, r := range rs {
			export(r, name+"_"+strings.ToLower(strings.ReplaceAll(r.QueryType, "-", "")))
			out[i] = r
		}
		return out
	}
	// must exits on an experiment that could not run at all.
	must := func(name string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "themis-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	runners := []struct {
		name string
		fn   func() []renderer
	}{
		{"table1", func() []renderer { return []renderer{experiments.Table1Queries()} }},
		{"fig6", func() []renderer { return corr("fig6", experiments.Fig6(scale, *seed)) }},
		{"fig7", func() []renderer { return corr("fig7", experiments.Fig7(scale, *seed)) }},
		{"fig8", func() []renderer { return one("fig8", experiments.Fig8(scale, *seed)) }},
		{"fig9", func() []renderer { return one("fig9", experiments.Fig9(scale, *seed)) }},
		{"fig10", func() []renderer { return one("fig10", experiments.Fig10(scale, *seed)) }},
		{"fig11", func() []renderer { return one("fig11", experiments.Fig11(scale, *seed)) }},
		{"fig12", func() []renderer { return one("fig12", experiments.Fig12(scale, *seed)) }},
		{"fig13", func() []renderer { return one("fig13", experiments.Fig13(scale, *seed)) }},
		{"fig14", func() []renderer { return one("fig14", experiments.Fig14(scale, *seed)) }},
		{"sec75", func() []renderer { return one("sec75", experiments.Sec75(scale, *seed)) }},
		{"sec76", func() []renderer { return one("sec76", experiments.Sec76(scale, *seed)) }},
		{"stw", func() []renderer { return one("stw", experiments.STW(scale, *seed)) }},
		{"dynamic", func() []renderer {
			r, err := experiments.DynamicWorkload(scale, *seed)
			must("dynamic", err)
			return []renderer{r}
		}},
		{"ablation", func() []renderer { return one("ablation", experiments.Ablation(scale, *seed)) }},
		// Node-kill recovery across STWs, with and without checkpoints:
		// virtual time and a fixed deployment, so -scale does not apply.
		{"churn", func() []renderer {
			r, err := experiments.ChurnRecovery([]stream.Duration{
				1 * stream.Second, 2 * stream.Second, 5 * stream.Second,
				10 * stream.Second, 20 * stream.Second,
			}, *seed)
			must("churn", err)
			return one("churn", r)
		}},
	}

	want := map[string]bool{}
	if *run != "all" {
		valid := make([]string, len(runners))
		for i, r := range runners {
			valid[i] = r.name
		}
		for _, n := range strings.Split(*run, ",") {
			n = strings.TrimSpace(n)
			if !slices.Contains(valid, n) {
				fmt.Fprintf(os.Stderr, "themis-bench: unknown experiment %q in -run=%s (want all or a comma-separated list of: %s)\n",
					n, *run, strings.Join(valid, ", "))
				os.Exit(2)
			}
			want[n] = true
		}
	}
	for _, r := range runners {
		if *run != "all" && !want[r.name] {
			continue
		}
		start := time.Now()
		outs := r.fn()
		fmt.Printf("=== %s (scale=%s, %.1fs) ===\n", r.name, scale.Name, time.Since(start).Seconds())
		for _, o := range outs {
			fmt.Println(o.Render())
		}
	}
}

// renderer is anything that prints itself as a text table.
type renderer interface{ Render() string }

// result is a renderer that can also export itself as CSV (-csv).
type result interface {
	renderer
	CSV(w *experiments.CSVWriter, name string) error
}
