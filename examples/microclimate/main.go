// Microclimate reproduces the paper's motivating scenario (Figure 1): a
// federated stream processing system for urban micro-climate monitoring
// spanning three autonomous sites — a cloud data centre in Paris, a
// governmental institute in Rome and a research institute in Mexico —
// with environmental sensors as data sources.
//
// Queries arrive from local users at each site, so the load is skewed
// (characteristic C1 of the paper): Rome hosts far more queries than the
// other sites, and several queries span two or three sites as fragment
// chains and trees. Every site is overloaded and autonomous; there is no
// central shedding controller. The example runs the same deployment under
// random shedding and under BALANCE-SIC and prints the per-site and
// per-query outcome, reproducing the headline claim of the paper: fair
// shedding narrows the spread of processing quality across queries
// without processing fewer tuples.
package main

import (
	"fmt"
	"math/rand"

	themis "repro"
)

var sites = []string{"Paris (cloud)", "Rome (governmental)", "Mexico (research)"}

func run(policy themis.Policy) *themis.Results {
	cfg := themis.Defaults()
	cfg.Duration = 90 * themis.Second
	cfg.Warmup = 20 * themis.Second
	cfg.Policy = policy
	cfg.Latency = 50 * themis.Millisecond // intercontinental links
	cfg.Seed = 2016

	engine := themis.NewEngine(cfg)
	// Heterogeneous sites: the cloud data centre is twice as fast as the
	// institutes.
	engine.AddNode(8000) // Paris
	engine.AddNode(4000) // Rome
	engine.AddNode(4000) // Mexico

	// Queries are written in the paper's CQL-like syntax (Table 1) and
	// planned over one fragment per site they span. Each reads its own
	// data feed, so repeated statements monitor different sensors.
	rng := rand.New(rand.NewSource(7))
	feed := 0
	deploy := func(cql string, placement []themis.NodeID) {
		_, err := engine.Submit(themis.QuerySubmit{
			CQL: cql, Fragments: len(placement), Dataset: int(themis.PlanetLab),
			Rate: 60, Placement: placement, Feed: feed,
		})
		if err != nil {
			panic(err)
		}
		feed++
	}
	const (
		top5 = `Select Top5(AllSrcCPU.id) From AllSrcCPU[Range 1 sec], AllSrcMem[Range 1 sec] ` +
			`Where AllSrcMem.free >= 100,000 and AllSrcCPU.id = AllSrcMem.id`
		cov    = `Select Cov(SrcCPU1.value, SrcCPU2.value) From SrcCPU1[Range 1 sec], SrcCPU2[Range 1 sec]`
		avgAll = `Select Avg(t.v) From AllSrc[Range 1 sec]`
	)

	// Rome's local users dominate: single-site queries over local
	// sensors ("the 10 highest values of carbon monoxide concentration
	// measurements on highways...").
	for i := 0; i < 8; i++ {
		deploy(top5, []themis.NodeID{1})
	}
	// Paris: covariance analyses between sensor modalities ("the
	// covariance matrix between measurements of (temperature, airflow)
	// and (carbon dioxide, nitrogen)").
	for i := 0; i < 4; i++ {
		deploy(cov, []themis.NodeID{0})
	}
	// Federated queries for meteorological researchers: city-wide
	// averages pooling sensors of all three sites (fragment tree), and
	// two-site top-k chains.
	for i := 0; i < 5; i++ {
		deploy(avgAll, []themis.NodeID{0, 1, 2})
	}
	for i := 0; i < 5; i++ {
		two := themis.UniformPlacement(rng, 3, 2)
		deploy(top5, two)
	}
	return engine.Run()
}

func main() {
	for _, policy := range []themis.Policy{themis.RandomShedding, themis.BalanceSIC} {
		res := run(policy)
		fmt.Printf("=== %v shedding ===\n", policy)
		var lo, hi = 1.0, 0.0
		for _, q := range res.Queries {
			if q.MeanSIC < lo {
				lo = q.MeanSIC
			}
			if q.MeanSIC > hi {
				hi = q.MeanSIC
			}
		}
		fmt.Printf("queries: %d   mean SIC %.3f   Jain's index %.3f   worst/best query %.3f/%.3f\n",
			len(res.Queries), res.MeanSIC, res.Jain, lo, hi)
		for i, ns := range res.Nodes {
			fmt.Printf("  %-22s arrived %7d tuples, shed %7d (%.0f%%)\n",
				sites[i], ns.ArrivedTuples, ns.ShedTuples,
				100*float64(ns.ShedTuples)/float64(ns.ArrivedTuples))
		}
		fmt.Println()
	}
	fmt.Println("BALANCE-SIC equalises the per-query SIC values (Jain → 1) even though")
	fmt.Println("Rome is the bottleneck and every site sheds independently.")
}
