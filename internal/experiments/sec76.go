package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/federation"
	"repro/internal/sources"
	"repro/internal/stream"
)

// Sec76 reproduces the §7.6 overhead measurements: the execution-time
// cost of the BALANCE-SIC shedder relative to the random shedder on the
// mixed workload of Fig. 10 (the paper measures 0.088 ms vs 0.079 ms per
// batch — an 11% overhead), plus the meta-data cost: 10 bytes of SIC
// header per batch and 30 bytes per coordinator update message.
type Sec76Result struct {
	FairNanosPerBatch   float64
	RandomNanosPerBatch float64
	OverheadPercent     float64
	HeaderBytesPerBatch int
	CoordinatorMsgBytes int
	CoordinatorMessages int64
	CoordinatorTraffic  int64
}

// Sec76 runs both shedders over the same mixed deployment and compares
// per-batch shedder execution time.
func Sec76(scale Scale, seed int64) *Sec76Result {
	const nodes = 6
	totalFrags := scale.queries(600)
	n := int(float64(totalFrags)/3.5 + 0.5)
	frags := func(i int) int { return 1 + i%6 }

	run := func(pol federation.Policy) (nsPerBatch float64, msgs, traffic int64) {
		cfg := scale.baseConfig(seed)
		// Deliberately one run at a time (no forEach):
		// SelectNanos is a wall-clock measurement and concurrent runs would
		// add scheduler noise to the §7.6 overhead comparison.
		cfg.Policy = pol
		e := federation.Emulab(cfg, nodes, capacityFor(totalFrags, scale.Rate, nodes, 0.35))
		place := uniformPlacer(rand.New(rand.NewSource(seed+43)), nodes)
		if _, err := mixedDeployment(e, n, frags, place, sources.PlanetLab); err != nil {
			panic(err)
		}
		r := e.Run()
		var batches, nanos int64
		for _, ns := range r.Nodes {
			// Batches examined per invocation: everything that arrived
			// while shedding was active.
			batches += ns.KeptBatches + ns.ShedBatches
			nanos += ns.SelectNanos
		}
		if batches > 0 {
			nsPerBatch = float64(nanos) / float64(batches)
		}
		return nsPerBatch, r.CoordinatorMessages, r.CoordinatorBytes
	}

	res := &Sec76Result{
		HeaderBytesPerBatch: stream.HeaderBytes,
		CoordinatorMsgBytes: stream.CoordinatorMsgBytes,
	}
	res.FairNanosPerBatch, res.CoordinatorMessages, res.CoordinatorTraffic = run(federation.PolicyBalanceSIC)
	res.RandomNanosPerBatch, _, _ = run(federation.PolicyRandom)
	if res.RandomNanosPerBatch > 0 {
		res.OverheadPercent = 100 * (res.FairNanosPerBatch - res.RandomNanosPerBatch) / res.RandomNanosPerBatch
	}
	return res
}

// Render prints the overhead summary.
func (r *Sec76Result) Render() string {
	var b strings.Builder
	b.WriteString("§7.6: shedder overhead (mixed workload)\n")
	b.WriteString(table(
		[]string{"quantity", "value"},
		[][]string{
			{"BALANCE-SIC shedder time/batch", fmt.Sprintf("%.3f µs", r.FairNanosPerBatch/1e3)},
			{"random shedder time/batch", fmt.Sprintf("%.3f µs", r.RandomNanosPerBatch/1e3)},
			{"overhead", fmt.Sprintf("%.0f%%", r.OverheadPercent)},
			{"SIC header per batch", fmt.Sprintf("%d bytes", r.HeaderBytesPerBatch)},
			{"coordinator update message", fmt.Sprintf("%d bytes", r.CoordinatorMsgBytes)},
			{"coordinator messages sent", fmt.Sprint(r.CoordinatorMessages)},
			{"coordinator traffic", fmt.Sprintf("%d bytes", r.CoordinatorTraffic)},
		},
	))
	return b.String()
}
