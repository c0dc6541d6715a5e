package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/control"
	"repro/internal/federation"
	"repro/internal/sources"
	"repro/internal/stream"
)

// Fairness experiments (§7.2-§7.4, Figures 8-14). All use the complex
// workload (Table 1) and report mean SIC and Jain's Fairness Index over
// the per-query time-averaged result SIC values.

// avgSourcesPerFragment is the mixed complex workload's mean fragment
// fan-in: AVG-all 10, TOP-5 20, COV 2.
const avgSourcesPerFragment = (10.0 + 20.0 + 2.0) / 3.0

// capacityFor sizes uniform node capacity (tuples/sec) so the aggregate
// demand of totalFrags fragments lands at roughly targetSIC when spread
// over nodes — the knob the paper turns by fixing hardware and growing
// the workload.
func capacityFor(totalFrags int, rate float64, nodes int, targetSIC float64) float64 {
	demandPerNode := float64(totalFrags) * avgSourcesPerFragment * rate / float64(nodes)
	c := targetSIC * demandPerNode
	if c < 100 {
		c = 100
	}
	return c
}

// FairnessRow is one x-axis point of a fairness figure.
type FairnessRow struct {
	Label   string
	MeanSIC float64
	Jain    float64
	StdSIC  float64
}

// FairnessResult is a rendered fairness figure.
type FairnessResult struct {
	Title   string
	XLabel  string
	Rows    []FairnessRow
	Columns []string // extra per-row annotations aligned with Rows
	Notes   string
}

// Render prints the figure's series.
func (r *FairnessResult) Render() string {
	header := []string{r.XLabel, "mean SIC", "Jain's index", "std"}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Label, f3(row.MeanSIC), f3(row.Jain), f3(row.StdSIC)})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Title)
	b.WriteString(table(header, rows))
	if r.Notes != "" {
		b.WriteString(r.Notes)
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig8 reproduces Figure 8 (single-node fairness): deploy an increasing
// number of single-fragment complex queries on one node under BALANCE-SIC
// and report mean SIC and Jain's index — Jain should stay near 1 while
// mean SIC decays with load.
func Fig8(scale Scale, seed int64) *FairnessResult {
	res := &FairnessResult{
		Title:  "Figure 8: single-node fairness (BALANCE-SIC)",
		XLabel: "queries",
	}
	counts := []int{30, 60, 90, 120, 150, 180, 210, 240, 270, 300, 330}
	base := scale.queries(30)
	capacity := capacityFor(base, scale.Rate, 1, 0.95)
	res.Rows = make([]FairnessRow, len(counts))
	forEach(len(counts), func(i int) {
		paperN := counts[i]
		n := scale.queries(paperN)
		cfg := scale.baseConfig(seed)
		e := federation.NewEngine(cfg)
		nd := e.AddNode(capacity)
		_, err := mixedDeployment(e, n, func(int) int { return 1 },
			func(int) []stream.NodeID { return []stream.NodeID{nd} }, sources.PlanetLab)
		if err != nil {
			panic(err)
		}
		r := e.Run()
		res.Rows[i] = FairnessRow{
			Label:   fmt.Sprint(paperN),
			MeanSIC: r.MeanSIC,
			Jain:    r.Jain,
			StdSIC:  r.StdSIC,
		}
	})
	return res
}

// Fig9 reproduces Figure 9 (shedding interval): 200 complex queries with
// 1-3 fragments on 6 nodes, sweeping the shedding interval 25..250 ms;
// fairness should hold regardless of the interval.
func Fig9(scale Scale, seed int64) *FairnessResult {
	res := &FairnessResult{
		Title:  "Figure 9: effect of the shedding interval (BALANCE-SIC)",
		XLabel: "interval (ms)",
	}
	const nodes = 6
	n := scale.queries(200)
	intervals := []int{25, 50, 100, 150, 200, 250}
	// Pre-draw the per-interval placement seeds so the parallel sweep
	// consumes the shared rng in the same order as the sequential loop.
	rng := rand.New(rand.NewSource(seed))
	placeSeeds := make([]int64, len(intervals))
	for i := range placeSeeds {
		placeSeeds[i] = rng.Int63()
	}
	res.Rows = make([]FairnessRow, len(intervals))
	forEach(len(intervals), func(i int) {
		ivalMs := intervals[i]
		cfg := scale.baseConfig(seed)
		cfg.Interval = stream.Duration(ivalMs) * stream.Millisecond
		e := federation.NewEngine(cfg)
		frags := func(i int) int { return 1 + i%3 }
		total := 0
		for i := 0; i < n; i++ {
			total += frags(i)
		}
		e.AddNodes(nodes, capacityFor(total, scale.Rate, nodes, 0.4))
		place := uniformPlacer(rand.New(rand.NewSource(placeSeeds[i])), nodes)
		if _, err := mixedDeployment(e, n, frags, place, sources.PlanetLab); err != nil {
			panic(err)
		}
		r := e.Run()
		res.Rows[i] = FairnessRow{
			Label:   fmt.Sprint(ivalMs),
			MeanSIC: r.MeanSIC,
			Jain:    r.Jain,
			StdSIC:  r.StdSIC,
		}
	})
	return res
}

// Fig10Row pairs the two policies for one fragment count.
type Fig10Row struct {
	Fragments string
	Balance   FairnessRow
	Random    FairnessRow
}

// Fig10Result reproduces Figure 10: BALANCE-SIC vs random shedding across
// 18 nodes for 2..6 fragments per query and the mixed case.
type Fig10Result struct {
	Rows []Fig10Row
}

// Fig10 runs the comparison. The paper holds total fragments constant at
// ~2,000 across configurations.
func Fig10(scale Scale, seed int64) *Fig10Result {
	const nodes = 18
	totalFrags := scale.queries(2000)
	res := &Fig10Result{}
	configs := []struct {
		label string
		frags func(i int) int
		per   float64 // mean fragments per query
	}{
		{"2", func(int) int { return 2 }, 2},
		{"3", func(int) int { return 3 }, 3},
		{"4", func(int) int { return 4 }, 4},
		{"5", func(int) int { return 5 }, 5},
		{"6", func(int) int { return 6 }, 6},
		{"mixed", func(i int) int { return 1 + i%6 }, 3.5},
	}
	res.Rows = make([]Fig10Row, len(configs))
	forEach(len(configs), func(ci int) {
		c := configs[ci]
		n := int(float64(totalFrags)/c.per + 0.5)
		runPolicy := func(pol federation.Policy) FairnessRow {
			cfg := scale.baseConfig(seed)
			cfg.Policy = pol
			e := federation.Emulab(cfg, nodes, capacityFor(totalFrags, scale.Rate, nodes, 0.35))
			place := uniformPlacer(rand.New(rand.NewSource(seed+17)), nodes)
			if _, err := mixedDeployment(e, n, c.frags, place, sources.PlanetLab); err != nil {
				panic(err)
			}
			r := e.Run()
			return FairnessRow{Label: c.label, MeanSIC: r.MeanSIC, Jain: r.Jain, StdSIC: r.StdSIC}
		}
		res.Rows[ci] = Fig10Row{
			Fragments: c.label,
			Balance:   runPolicy(federation.PolicyBalanceSIC),
			Random:    runPolicy(federation.PolicyRandom),
		}
	})
	return res
}

// Render prints the three panels of Figure 10.
func (r *Fig10Result) Render() string {
	header := []string{"fragments", "Jain B-SIC", "Jain random", "std B-SIC", "std random", "mean B-SIC", "mean random"}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Fragments,
			f3(row.Balance.Jain), f3(row.Random.Jain),
			f3(row.Balance.StdSIC), f3(row.Random.StdSIC),
			f3(row.Balance.MeanSIC), f3(row.Random.MeanSIC),
		})
	}
	var b strings.Builder
	b.WriteString("Figure 10: BALANCE-SIC vs random shedding, 18 nodes\n")
	b.WriteString(table(header, rows))
	if len(r.Rows) > 0 {
		last := r.Rows[len(r.Rows)-1]
		if last.Random.Jain > 0 {
			fmt.Fprintf(&b, "mixed-workload Jain improvement: %.0f%%\n",
				100*(last.Balance.Jain-last.Random.Jain)/last.Random.Jain)
		}
	}
	return b.String()
}

// Fig11 reproduces Figure 11 (multi-fragmentation): vary the ratio of
// three-fragment queries over single-fragment queries across 10 nodes
// with balanced load; fairness improves as more queries span nodes.
func Fig11(scale Scale, seed int64) *FairnessResult {
	res := &FairnessResult{
		Title:  "Figure 11: fairness vs ratio of 3-fragment queries (BALANCE-SIC)",
		XLabel: "ratio",
	}
	const nodes = 10
	totalFrags := scale.queries(2000)
	ratios := []float64{0.1, 0.2, 0.4, 0.6, 0.8, 1.0}
	res.Rows = make([]FairnessRow, len(ratios))
	forEach(len(ratios), func(ri int) {
		ratio := ratios[ri]
		// q queries, fraction ratio with 3 fragments: q(3r + (1-r)) = total.
		q := int(float64(totalFrags)/(3*ratio+(1-ratio)) + 0.5)
		threshold := int(float64(q)*ratio + 0.5)
		frags := func(i int) int {
			if i < threshold {
				return 3
			}
			return 1
		}
		cfg := scale.baseConfig(seed)
		e := federation.Emulab(cfg, nodes, capacityFor(totalFrags, scale.Rate, nodes, 0.35))
		next := 0
		place := func(k int) []stream.NodeID {
			return control.RoundRobinPlacement(&next, nodes, k)
		}
		if _, err := mixedDeployment(e, q, frags, place, sources.PlanetLab); err != nil {
			panic(err)
		}
		r := e.Run()
		res.Rows[ri] = FairnessRow{
			Label:   fmt.Sprintf("%.1f", ratio),
			MeanSIC: r.MeanSIC,
			Jain:    r.Jain,
			StdSIC:  r.StdSIC,
		}
	})
	return res
}

// Fig12 reproduces Figure 12 (node scalability): 500 queries with 1-6
// fragments placed by a Zipf distribution over 9, 12, 18 and 24 nodes;
// mean SIC grows with capacity while Jain's index stays near 1.
func Fig12(scale Scale, seed int64) *FairnessResult {
	res := &FairnessResult{
		Title:  "Figure 12: fairness for increasing number of nodes (BALANCE-SIC, Zipf placement)",
		XLabel: "nodes",
	}
	n := scale.queries(500)
	frags := func(i int) int { return 1 + i%6 }
	total := 0
	for i := 0; i < n; i++ {
		total += frags(i)
	}
	// Capacity is per node and fixed: more nodes = more total capacity,
	// which is exactly the effect the figure shows.
	perNode := capacityFor(total, scale.Rate, 18, 0.35)
	nodeCounts := []int{9, 12, 18, 24}
	res.Rows = make([]FairnessRow, len(nodeCounts))
	forEach(len(nodeCounts), func(i int) {
		nodes := nodeCounts[i]
		cfg := scale.baseConfig(seed)
		e := federation.Emulab(cfg, nodes, perNode)
		place := zipfPlacer(rand.New(rand.NewSource(seed+29)), nodes, 1.05)
		if _, err := mixedDeployment(e, n, frags, place, sources.PlanetLab); err != nil {
			panic(err)
		}
		r := e.Run()
		res.Rows[i] = FairnessRow{
			Label:   fmt.Sprint(nodes),
			MeanSIC: r.MeanSIC,
			Jain:    r.Jain,
			StdSIC:  r.StdSIC,
		}
	})
	return res
}

// Fig13 reproduces Figure 13 (query scalability): a fixed 18-node
// deployment with an increasing number of queries; tuples are discarded
// fairly even as mean SIC decays.
func Fig13(scale Scale, seed int64) *FairnessResult {
	res := &FairnessResult{
		Title:  "Figure 13: fairness for increasing number of queries (BALANCE-SIC, 18 nodes)",
		XLabel: "queries",
	}
	const nodes = 18
	frags := func(i int) int { return 1 + i%6 }
	// Capacity sized once, against the middle of the sweep.
	mid := scale.queries(540)
	midTotal := 0
	for i := 0; i < mid; i++ {
		midTotal += frags(i)
	}
	perNode := capacityFor(midTotal, scale.Rate, nodes, 0.35)
	counts := []int{180, 300, 420, 540, 660, 780, 900}
	res.Rows = make([]FairnessRow, len(counts))
	forEach(len(counts), func(i int) {
		paperN := counts[i]
		n := scale.queries(paperN)
		cfg := scale.baseConfig(seed)
		e := federation.Emulab(cfg, nodes, perNode)
		place := uniformPlacer(rand.New(rand.NewSource(seed+31)), nodes)
		if _, err := mixedDeployment(e, n, frags, place, sources.PlanetLab); err != nil {
			panic(err)
		}
		r := e.Run()
		res.Rows[i] = FairnessRow{
			Label:   fmt.Sprint(paperN),
			MeanSIC: r.MeanSIC,
			Jain:    r.Jain,
			StdSIC:  r.StdSIC,
		}
	})
	return res
}

// Fig14 reproduces Figure 14 (burstiness and wide-area networks): 4 nodes
// hosting two-fragment complex queries under four deployments — LAN
// (5 ms) and FSPS WAN (50 ms), each steady and bursty — for 20 and 40
// queries. Mean SIC should stay similar across deployments.
func Fig14(scale Scale, seed int64) *FairnessResult {
	res := &FairnessResult{
		Title:  "Figure 14: burstiness and wide-area latency (BALANCE-SIC, 4 nodes)",
		XLabel: "deployment",
	}
	const nodes = 4
	type deploy struct {
		name    string
		latency stream.Duration
		burst   *sources.BurstConfig
	}
	deployments := []deploy{
		{"LAN", 5 * stream.Millisecond, nil},
		{"FSPS", 50 * stream.Millisecond, nil},
		{"LAN bursty", 5 * stream.Millisecond, &sources.DefaultBurst},
		{"FSPS bursty", 50 * stream.Millisecond, &sources.DefaultBurst},
	}
	type job struct {
		d      deploy
		paperN int
	}
	var jobs []job
	for _, d := range deployments {
		for _, paperN := range []int{20, 40} {
			jobs = append(jobs, job{d, paperN})
		}
	}
	res.Rows = make([]FairnessRow, len(jobs))
	forEach(len(jobs), func(ji int) {
		d, paperN := jobs[ji].d, jobs[ji].paperN
		n := scale.queries(paperN)
		cfg := scale.baseConfig(seed)
		cfg.Latency = d.latency
		cfg.Burst = d.burst
		total := 2 * n
		// Bursty sources offer 0.9 + 0.1×10 = 1.9× the steady volume;
		// provision capacity against offered load so the four
		// deployments are compared at equal relative overload and the
		// figure isolates the effect of variance and latency, as the
		// paper's comparison does.
		rate := scale.Rate
		if d.burst != nil {
			rate *= (1 - d.burst.Prob) + d.burst.Prob*d.burst.Factor
		}
		e := federation.Emulab(cfg, nodes, capacityFor(total, rate, nodes, 0.4))
		place := uniformPlacer(rand.New(rand.NewSource(seed+37)), nodes)
		if _, err := mixedDeployment(e, n, func(int) int { return 2 }, place, sources.PlanetLab); err != nil {
			panic(err)
		}
		r := e.Run()
		res.Rows[ji] = FairnessRow{
			Label:   fmt.Sprintf("%s/%dq", d.name, paperN),
			MeanSIC: r.MeanSIC,
			Jain:    r.Jain,
			StdSIC:  r.StdSIC,
		}
	})
	return res
}
