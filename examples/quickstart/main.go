// Quickstart: deploy three aggregate queries on one overloaded THEMIS
// node and watch BALANCE-SIC keep their processing quality equal.
//
// The node can process 2,000 tuples/sec but the three queries demand
// 3 × 400 = 1,200..4,800 tuples/sec at heterogeneous rates, so the tuple
// shedder is permanently active. Each query's result SIC value (§4 of the
// paper) reports the fraction of its source data that reached its result;
// Jain's index over those values is the fairness the system delivers.
package main

import (
	"fmt"

	themis "repro"
)

func main() {
	cfg := themis.Defaults()
	cfg.Duration = 60 * themis.Second
	cfg.Warmup = 15 * themis.Second

	// One site with a 2,000 tuples/sec processing node (the paper's
	// local test-bed shape, Table 2).
	engine, node := themis.LocalTestbed(cfg, 2000)

	// Three continuous queries, written in the paper's CQL-like syntax
	// (Table 1), at different source rates: under fair shedding the
	// heavier query loses proportionally more tuples so that all three
	// retain the same fraction of their information.
	queries := []struct {
		name string
		cql  string
		rate float64
	}{
		{"AVG @ 400 t/s", `Select Avg(t.v) From Src[Range 1 sec]`, 400},
		{"MAX @ 800 t/s", `Select Max(t.v) From Src[Range 1 sec]`, 800},
		{"COUNT @ 1600 t/s", `Select Count(t.v) From Src[Range 1 sec] Having t.v >= 50`, 1600},
	}
	for _, q := range queries {
		_, err := engine.Submit(themis.QuerySubmit{
			CQL: q.cql, Dataset: int(themis.Gaussian),
			Rate: q.rate, Placement: []themis.NodeID{node},
		})
		if err != nil {
			panic(err)
		}
	}

	res := engine.Run()

	fmt.Println("query            mean SIC   (1.0 = perfect processing)")
	for i, qr := range res.Queries {
		fmt.Printf("%-16s %.3f\n", queries[i].name, qr.MeanSIC)
	}
	fmt.Printf("\nmean SIC %.3f, Jain's fairness index %.3f\n", res.MeanSIC, res.Jain)
	fmt.Printf("shed %d of %d tuples; shedder ran %d times\n",
		res.Nodes[0].ShedTuples,
		res.Nodes[0].ArrivedTuples,
		res.Nodes[0].ShedInvocations)
}
