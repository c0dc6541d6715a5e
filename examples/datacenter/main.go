// Datacenter runs the paper's complex workload (Table 1): a set of
// queries monitoring the health of data-centre servers — cluster-wide
// average CPU usage (AVG-all), the top-5 nodes by available CPU with
// enough free memory (TOP-5), and CPU covariance between server pairs
// (COV) — deployed across a six-node THEMIS federation under permanent
// 3x overload.
//
// The example demonstrates the user-facing feedback channel: each query's
// result stream arrives through OnResult together with its SIC meta-data,
// so a dashboard can display every metric *and* how much of the source
// data it currently reflects ("constant feedback on the experienced
// processing quality", §1).
package main

import (
	"fmt"
	"math/rand"
	"sort"

	themis "repro"
)

func main() {
	cfg := themis.Defaults()
	cfg.Duration = 60 * themis.Second
	cfg.Warmup = 15 * themis.Second
	cfg.Seed = 42

	// Six racks' worth of processing capacity on a 5 ms LAN (the paper's
	// Emulab shape), deliberately undersized: the workload below demands
	// ~11,100 tuples/sec against 6 × 650 = 3,900 of capacity (~3x
	// overload).
	engine := themis.Emulab(cfg, 6, 650)

	rng := rand.New(rand.NewSource(1))
	type deployed struct {
		name string
		id   themis.QueryID
		last float64 // latest result value
		sic  float64 // latest result SIC over the STW
		n    int
	}
	var queries []*deployed

	// Each query reads its own data feed (its index in the workload), so
	// the six copies of a statement monitor six independent metric
	// streams rather than one.
	deploy := func(name, stmt string, frags int) {
		placement := themis.UniformPlacement(rng, 6, frags)
		id, err := engine.Submit(themis.QuerySubmit{
			CQL: stmt, Fragments: frags, Dataset: int(themis.PlanetLab),
			Rate: 25, Placement: placement, Feed: len(queries),
		})
		if err != nil {
			panic(err)
		}
		d := &deployed{name: name, id: id}
		queries = append(queries, d)
		engine.OnResult(id, func(now themis.Time, tuples []themis.Tuple) {
			for _, t := range tuples {
				d.last = t.V[0]
				d.sic += t.SIC
				d.n++
			}
		})
	}

	// The three queries in the paper's CQL-like syntax (Table 1), each
	// planned over as many fragments as it spans nodes.
	const (
		avgAll = `Select Avg(t.v) From AllSrc[Range 1 sec]`
		top5   = `Select Top5(AllSrcCPU.id) From AllSrcCPU[Range 1 sec], AllSrcMem[Range 1 sec] ` +
			`Where AllSrcMem.free >= 100,000 and AllSrcCPU.id = AllSrcMem.id`
		cov = `Select Cov(SrcCPU1.value, SrcCPU2.value) From SrcCPU1[Range 1 sec], SrcCPU2[Range 1 sec]`
	)
	for i := 0; i < 6; i++ {
		deploy(fmt.Sprintf("AVG-all #%d (cluster CPU)", i), avgAll, 3)
	}
	for i := 0; i < 6; i++ {
		deploy(fmt.Sprintf("TOP-5   #%d (best hosts)", i), top5, 2)
	}
	for i := 0; i < 6; i++ {
		deploy(fmt.Sprintf("COV     #%d (cpu pairs)", i), cov, 2)
	}

	res := engine.Run()

	byID := map[themis.QueryID]themis.QueryResult{}
	for _, qr := range res.Queries {
		byID[qr.ID] = qr
	}
	sort.Slice(queries, func(i, j int) bool { return queries[i].name < queries[j].name })
	fmt.Println("query                         last value    results   mean SIC")
	for _, d := range queries {
		fmt.Printf("%-28s %11.2f %10d      %.3f\n", d.name, d.last, d.n, byID[d.id].MeanSIC)
	}
	fmt.Printf("\nfederation: mean SIC %.3f, Jain's index %.3f across %d queries on 6 nodes\n",
		res.MeanSIC, res.Jain, len(res.Queries))
	fmt.Printf("coordinator traffic: %d update messages (%d bytes)\n",
		res.CoordinatorMessages, res.CoordinatorBytes)
}
