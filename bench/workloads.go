package main

import (
	"fmt"
	"time"

	"repro/internal/cql"
	"repro/internal/federation"
	"repro/internal/sources"
	"repro/internal/stream"
)

// querySpec is one CQL submission: the text and the arguments both
// Engine.SubmitCQL and Controller.Submit take. A nil Placement asks the
// runtime's own placer.
type querySpec struct {
	CQL       string
	Fragments int
	Dataset   sources.Dataset
	Rate      float64
	Placement []int
}

// workload is one named benchmark shape. The same struct configures the
// virtual-time engine and its networked twin, so a net workload and its
// engine replay cannot drift apart.
type workload struct {
	Name string
	Why  string
	// Net selects the runtime: false steps a federation.Engine in a closed
	// loop at GOMAXPROCS 1; true runs NodeServers and a Controller over
	// loopback TCP in an open loop at GOMAXPROCS = nproc.
	Net bool
	// Nodes host the initial queries; Spares join the membership empty.
	Nodes, Spares int
	Capacity      float64
	Interval      stream.Duration
	STW           stream.Duration
	BatchesPerSec float64
	Sharing       federation.Sharing
	Checkpoint    time.Duration
	// Warm is excluded from every statistic: virtual time on the engine,
	// wall clock on the network.
	Warm    time.Duration
	Queries []querySpec
	// Churn adds the open-loop submit/retract client and the mid-run kill.
	Churn bool
}

// warmSteps is the warm-up in engine steps.
func (w *workload) warmSteps() int { return int(w.Warm.Milliseconds() / int64(w.Interval)) }

// The Table 1 complex mix as CQL text: query i takes statement i mod 3
// with 1 + i mod 3 fragments.
var mixCQL = [3]string{
	"Select Avg(t.v) From AllSrc[Range 1 sec]",
	"Select Top5(AllSrcCPU.id) From AllSrcCPU[Range 1 sec], AllSrcMem[Range 1 sec] Where AllSrcCPU.id = AllSrcMem.id",
	"Select Cov(SrcCPU1.value, SrcCPU2.value) From SrcCPU1[Range 1 sec], SrcCPU2[Range 1 sec]",
}

// The 4,800 one-fragment monitors rotate through these shapes.
var monitorCQL = [4]string{
	"Select Avg(t.v) From Src [Range 2 sec Slide 500 ms]",
	"Select Count(t.v) From Src [Range 2 sec Slide 500 ms]",
	"Select Max(t.v) From Src [Range 1 sec]",
	"Select Avg(t.v) From Src [Rows 200]",
}

// Three-fragment siblings over every source; window is the bracket text.
func allSrcCQL(i int, window string) string {
	return fmt.Sprintf("Select %s(t.v) From AllSrc[%s]", [3]string{"Avg", "Max", "Count"}[i%3], window)
}

// mixQueries places n MIX queries round-robin: a cursor walks the nodes
// and each fragment takes the next one.
func mixQueries(n, nodes int, rate float64) []querySpec {
	qs := make([]querySpec, n)
	cursor := 0
	for i := range qs {
		k := 1 + i%3
		pl := make([]int, k)
		for f := range pl {
			pl[f] = cursor % nodes
			cursor++
		}
		qs[i] = querySpec{CQL: mixCQL[i%3], Fragments: k, Dataset: sources.PlanetLab, Rate: rate, Placement: pl}
	}
	return qs
}

// threeFragQueries places query i on nodes i, i+1, i+2 mod nodes.
func threeFragQueries(n, nodes int, window string, rate float64) []querySpec {
	qs := make([]querySpec, n)
	for i := range qs {
		qs[i] = querySpec{
			CQL: allSrcCQL(i, window), Fragments: 3, Dataset: sources.Uniform, Rate: rate,
			Placement: []int{i % nodes, (i + 1) % nodes, (i + 2) % nodes},
		}
	}
	return qs
}

func monitorQueries(n, nodes int, rate float64) []querySpec {
	qs := make([]querySpec, n)
	for i := range qs {
		qs[i] = querySpec{CQL: monitorCQL[i%4], Fragments: 1, Dataset: sources.Uniform, Rate: rate, Placement: []int{i % nodes}}
	}
	return qs
}

// Churn schedule of net_churn_8x96, as shares of the whole Run.
const (
	churnEvery   = 25 * time.Millisecond
	churnMaxLive = 40
	churnFrom    = 1.0 / 8
	churnTo      = 7.0 / 8
	churnKillAt  = 1.0 / 2
	churnKillIdx = 3
	churnRate    = 20.0
	churnWindow  = "Range 1 sec"
)

// workloads lists the six shapes in the order they are reported. Sizes
// are fixed; only the measured length comes from -seconds.
func workloads() []*workload {
	// mix24x48 is the paper's canonical shape at 8x the Table 2 rates, so
	// that its paced twin is measurable.
	mix24x48 := func(name, why string, capacity float64, net bool) *workload {
		return &workload{
			Name: name, Why: why, Net: net, Nodes: 24, Capacity: capacity,
			Interval: 250, STW: 10 * stream.Second, BatchesPerSec: 12,
			Warm: 10 * time.Second, Queries: mixQueries(48, 24, 1200),
		}
	}
	return []*workload{
		mix24x48("overload_24x48", "engine, 24 nodes x 48 MIX queries, sheds ~72%: sources, stream pool+windows and core shedding do the work; transport and cql do none", 16000, false),
		mix24x48("underload_24x48", "same shape at capacity 1e9, sheds 0: every tuple reaches operator/query/stream windows, so a shedding gain that taxes the keep-all path shows here", 1e9, false),
		{
			Name: "shared_4800", Why: "engine, SharingFull, 4,800 one-fragment monitors of 4 shapes: federation share index, node fan-out, coordinators and sic dominate; setup_s prices the cql plan cache and submit path",
			Nodes: 24, Capacity: 1e9, Interval: 250, STW: 10 * stream.Second, BatchesPerSec: 3,
			Sharing: federation.SharingFull, Warm: 5 * time.Second, Queries: monitorQueries(4800, 24, 100),
		},
		mix24x48("net_overload_24x48", "overload_24x48 over 24 loopback NodeServers and a Controller: the difference from its engine twin is the socket tax (transport, JSON control frames, controller apply, GC, timers)", 16000, true),
		{
			Name: "net_wide_8x480", Why: "net, 8 servers x 480 thin three-fragment queries (180 fragments/node): per-query overhead (report codec, SIC fan-out, send queues, flush) outweighs the node tick",
			Net: true, Nodes: 8, Capacity: 7500, Interval: 100, STW: 2 * stream.Second, BatchesPerSec: 5,
			Warm: 4 * time.Second, Queries: threeFragQueries(480, 8, "Range 1 sec Slide 100 ms", 5),
		},
		{
			Name: "net_churn_8x96", Why: "net, SharingFull + checkpoints, open-loop submit/retract every 25 ms and one server killed mid-run: control-plane writes beside data-plane reads, with recovery",
			Net: true, Nodes: 8, Spares: 1, Capacity: 4000, Interval: 100, STW: 2 * stream.Second, BatchesPerSec: 4,
			Sharing: federation.SharingFull, Checkpoint: 300 * time.Millisecond,
			Warm: 4 * time.Second, Queries: threeFragQueries(96, 8, churnWindow, churnRate), Churn: true,
		},
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// offeredPerSec is the source tuple rate the queries ask for: sum over
// queries of sources x rate. It is computed from the definition, never
// from program counters, so a change that drops tuples cannot inflate it.
func offeredPerSec(qs []querySpec) (float64, error) {
	cache := cql.NewPlanCache()
	total := 0.0
	for _, q := range qs {
		plan, _, err := cache.PlanDistributed(q.CQL, cql.DefaultCatalog(q.Dataset), q.Dataset.String(), q.Fragments)
		if err != nil {
			return 0, fmt.Errorf("plan %q: %w", q.CQL, err)
		}
		total += float64(plan.NumSources()) * q.Rate
	}
	return total, nil
}
