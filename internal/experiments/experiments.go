// Package experiments regenerates every table and figure of the paper's
// evaluation (§7). Each experiment is a function returning a typed result
// with a Render method that prints the same rows/series the paper
// reports. cmd/themis-bench exposes them on the command line and
// bench_test.go wraps each in a testing.B benchmark.
//
// Absolute numbers differ from the paper — our substrate is a virtual-time
// simulator, not the authors' Emulab testbed — but the shapes the paper
// argues from (who wins, by roughly what factor, where trends bend) are
// reproduced; EXPERIMENTS.md records paper-vs-measured for each figure.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/control"
	"repro/internal/cql"
	"repro/internal/federation"
	"repro/internal/sources"
	"repro/internal/stream"
)

// Scale trades fidelity for runtime. The paper runs 5 minutes of wall
// time at 150 tuples/sec/source; simulating that for ~2,000 fragments is
// hundreds of millions of tuple events, so the scales reduce duration and
// per-source rate while preserving every ratio the experiments measure
// (overload factor, fragments per query, nodes).
type Scale struct {
	Name string
	// Duration and Warmup bound the simulated run.
	Duration stream.Duration
	Warmup   stream.Duration
	// Rate is the per-source tuple rate (tuples/sec) for federation
	// experiments.
	Rate float64
	// LoadFactor scales query counts: paper count × LoadFactor.
	LoadFactor float64
}

// Quick is the CI/bench scale: seconds per experiment.
var Quick = Scale{
	Name:       "quick",
	Duration:   30 * stream.Second,
	Warmup:     12 * stream.Second,
	Rate:       20,
	LoadFactor: 0.25,
}

// Paper is the full-shape scale used by cmd/themis-bench -scale=paper.
var Paper = Scale{
	Name:       "paper",
	Duration:   120 * stream.Second,
	Warmup:     30 * stream.Second,
	Rate:       50,
	LoadFactor: 1,
}

// queries scales a paper query count.
func (s Scale) queries(paperCount int) int {
	n := int(float64(paperCount)*s.LoadFactor + 0.5)
	if n < 3 {
		n = 3
	}
	return n
}

// baseConfig builds the engine config shared by the fairness experiments.
func (s Scale) baseConfig(seed int64) federation.Config {
	cfg := federation.Defaults()
	cfg.Duration = s.Duration
	cfg.Warmup = s.Warmup
	cfg.SourceRate = s.Rate
	cfg.BatchesPerSec = 3
	cfg.Seed = seed
	return cfg
}

// complexMix is the complex workload of §7.2–§7.4, which cycles through
// its three queries.
var complexMix = [...]string{cql.AvgAll, cql.Top5, cql.Cov}

// mixedDeployment deploys n complex-workload queries, cycling AVG-all /
// TOP-5 / COV, with fragsFor(i) fragments each, using the given placement
// function. It returns the total fragment count.
func mixedDeployment(e *federation.Engine, n int, fragsFor func(i int) int,
	place func(k int) []stream.NodeID, dataset sources.Dataset) (int, error) {
	totalFrags := 0
	for i := 0; i < n; i++ {
		k := fragsFor(i)
		sub := federation.QuerySubmit{CQL: complexMix[i%len(complexMix)], Fragments: k, Dataset: int(dataset), Placement: place(k), Feed: i}
		if _, err := e.Submit(sub); err != nil {
			return totalFrags, err
		}
		totalFrags += k
	}
	return totalFrags, nil
}

// uniformPlacer returns a placement function choosing distinct nodes
// uniformly at random.
func uniformPlacer(rng *rand.Rand, numNodes int) func(k int) []stream.NodeID {
	return func(k int) []stream.NodeID {
		return control.UniformPlacement(rng, numNodes, k)
	}
}

// zipfPlacer returns a Zipf-skewed placement function (C1's skewed
// workload distribution).
func zipfPlacer(rng *rand.Rand, numNodes int, s float64) func(k int) []stream.NodeID {
	return func(k int) []stream.NodeID {
		return control.ZipfPlacement(rng, numNodes, k, s)
	}
}

// table renders rows of cells with aligned columns.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
