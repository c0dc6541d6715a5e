package experiments

import (
	"math/rand"
	"strings"

	"repro/internal/federation"
	"repro/internal/sources"
)

// Ablation quantifies the design choices DESIGN.md §6 calls out, on one
// fixed multi-node mixed deployment:
//
//   - full BALANCE-SIC (baseline configuration);
//   - without coordinator updates (Figure 4's top half: nodes balance
//     their local view only, multi-fragment queries diverge);
//   - without the §6 local-shedding projection;
//   - without the max(x_SIC) within-query selection rule;
//   - random shedding, for reference.
type AblationResult struct {
	Rows []FairnessRow
}

// Ablation runs all variants over an identical deployment and seed.
func Ablation(scale Scale, seed int64) *AblationResult {
	const nodes = 8
	totalFrags := scale.queries(800)
	n := int(float64(totalFrags)/2.5 + 0.5)
	frags := func(i int) int { return 1 + i%4 } // 1..4 fragments

	run := func(label string, mutate func(*federation.Config)) FairnessRow {
		cfg := scale.baseConfig(seed)
		mutate(&cfg)
		e := federation.Emulab(cfg, nodes, capacityFor(totalFrags, scale.Rate, nodes, 0.35))
		place := uniformPlacer(rand.New(rand.NewSource(seed+53)), nodes)
		if _, err := mixedDeployment(e, n, frags, place, sources.PlanetLab); err != nil {
			panic(err)
		}
		r := e.Run()
		return FairnessRow{Label: label, MeanSIC: r.MeanSIC, Jain: r.Jain, StdSIC: r.StdSIC}
	}

	variants := []struct {
		label  string
		mutate func(*federation.Config)
	}{
		{"full BALANCE-SIC", func(*federation.Config) {}},
		{"no updateSIC (Fig 4 top)", func(c *federation.Config) { c.DisableUpdates = true }},
		{"no local projection", func(c *federation.Config) { c.DisableProjection = true }},
		{"no max(x_SIC) rule", func(c *federation.Config) { c.DisableMaxSIC = true }},
		{"random shedding", func(c *federation.Config) { c.Policy = federation.PolicyRandom }},
	}
	res := &AblationResult{Rows: make([]FairnessRow, len(variants))}
	forEach(len(variants), func(i int) {
		res.Rows[i] = run(variants[i].label, variants[i].mutate)
	})
	return res
}

// Render prints the ablation table.
func (r *AblationResult) Render() string {
	header := []string{"variant", "mean SIC", "Jain's index", "std"}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Label, f3(row.MeanSIC), f3(row.Jain), f3(row.StdSIC)})
	}
	var b strings.Builder
	b.WriteString("Ablation: BALANCE-SIC design choices (8 nodes, mixed complex workload)\n")
	b.WriteString(table(header, rows))
	return b.String()
}
