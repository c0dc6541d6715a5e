// Federation runs a real networked THEMIS deployment: three node servers
// speaking the TCP protocol on localhost, a controller deploying
// single-site and multi-site queries (the latter spanning nodes as
// fragment chains and trees), ten seconds of wall-clock stream
// processing under overload, and a fairness summary.
//
// Unlike the other examples, which drive the virtual-time simulator, this
// one exercises the same node runtime over actual sockets and timers —
// the shape a production deployment of cmd/themis-node would take, one
// process per autonomous site.
package main

import (
	"fmt"
	"time"

	"repro/internal/stream"
	"repro/internal/transport"
)

func main() {
	// Three autonomous sites on localhost; site capacities make every
	// site's local demand unserviceable.
	var servers []*transport.NodeServer
	var addrs []string
	for i := 0; i < 3; i++ {
		srv, err := transport.NewNodeServer(transport.NodeServerConfig{
			Name:           fmt.Sprintf("site-%d", i),
			Addr:           "127.0.0.1:0",
			CapacityPerSec: 2500,
			Policy:         "balance-sic",
			Seed:           int64(i + 1),
			Quiet:          true,
		})
		if err != nil {
			panic(err)
		}
		defer srv.Close()
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
		fmt.Printf("started %s on %s\n", srv.Name, srv.Addr())
	}

	ctrl, err := transport.NewController(transport.ControllerConfig{Seed: 9}, addrs)
	if err != nil {
		panic(err)
	}
	defer ctrl.CloseAll()

	// Local queries per site plus federated multi-fragment queries.
	// Demand: 3×AVG-all(1)×10src + 2×AVG-all(3)×30src + 2×COV(2)×4src
	// at 40 t/s ≈ 3,900 t/s/site-ish against 2,500 of capacity.
	// The Table 1 complex workload as CQL text: the statement travels to
	// every host, which re-plans it into the same fragment layout.
	const (
		avgAll = "Select Avg(t.v) From AllSrc[Range 1 sec]"
		cov    = "Select Cov(SrcCPU1.value, SrcCPU2.value) From SrcCPU1[Range 1 sec], SrcCPU2[Range 1 sec]"
		top5   = "Select Top5(AllSrcCPU.id) From AllSrcCPU[Range 1 sec], AllSrcMem[Range 1 sec] " +
			"Where AllSrcMem.free >= 100,000 and AllSrcCPU.id = AllSrcMem.id"
	)
	type q struct {
		workload  string
		cql       string
		placement []int // fragment i runs on site placement[i]
	}
	deployments := []q{
		{"AVG-all", avgAll, []int{0}},
		{"AVG-all", avgAll, []int{1}},
		{"AVG-all", avgAll, []int{2}},
		{"AVG-all", avgAll, []int{0, 1, 2}}, // tree across all sites
		{"AVG-all", avgAll, []int{2, 1, 0}},
		{"COV", cov, []int{0, 1}}, // chains across site pairs
		{"COV", cov, []int{1, 2}},
		{"TOP-5", top5, []int{2, 0}},
		{"TOP-5", top5, []int{0, 2}},
	}
	const planetLab = 4 // sources.PlanetLab
	var ids []stream.QueryID
	for _, d := range deployments {
		id, err := ctrl.Submit(d.cql, len(d.placement), planetLab, 40, 4, d.placement)
		if err != nil {
			panic(err)
		}
		ids = append(ids, id)
	}

	fmt.Println("processing for 10 s of wall-clock time ...")
	res, err := ctrl.Run(10*time.Second, 4*time.Second)
	if err != nil {
		panic(err)
	}

	fmt.Println("\nquery  workload  fragments  mean SIC")
	for i, d := range deployments {
		fmt.Printf("q%-5d %-9s %-10d %.3f\n", i, d.workload, len(d.placement), res.PerQuery[ids[i]])
	}
	fmt.Printf("\nfederation over TCP: mean SIC %.3f, Jain's index %.3f\n", res.MeanSIC, res.Jain)
	for _, ns := range res.Nodes {
		fmt.Printf("  %-8s arrived %7d, shed %7d tuples (%d shedder runs)\n",
			ns.Node, ns.ArrivedTuples, ns.ShedTuples, ns.ShedInvocations)
	}
}
