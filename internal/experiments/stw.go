package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cql"
	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/sources"
	"repro/internal/stream"
)

// STWValidation reproduces the §7 set-up experiment: deploy 10 TOP-5
// queries with two fragments on an underloaded deployment and verify the
// measured SIC is ~1 for both STW durations (the paper reports
// 0.9700±0.0064 for 10 s and 1.0086±0.0034 for 100 s).
type STWValidation struct {
	Rows []STWRow
}

// STWRow is one STW setting's outcome.
type STWRow struct {
	STW     stream.Duration
	MeanSIC float64
	StdSIC  float64
}

// STW runs the validation. At quick scale the long STW is shortened so
// the run still covers several full windows.
func STW(scale Scale, seed int64) *STWValidation {
	stws := []stream.Duration{10 * stream.Second, 100 * stream.Second}
	durations := []stream.Duration{60 * stream.Second, 300 * stream.Second}
	if scale.LoadFactor < 0.5 {
		stws = []stream.Duration{5 * stream.Second, 10 * stream.Second}
		durations = []stream.Duration{30 * stream.Second, 45 * stream.Second}
	}
	res := &STWValidation{}
	res.Rows = make([]STWRow, len(stws))
	forEach(len(stws), func(i int) {
		stw := stws[i]
		cfg := scale.baseConfig(seed)
		cfg.STW = stw
		cfg.Duration = durations[i]
		cfg.Warmup = stream.Duration(float64(stw) * 1.2)
		cfg.Policy = federation.PolicyKeepAll
		e := federation.NewEngine(cfg)
		e.AddNodes(2, 1e12)
		for q := 0; q < 10; q++ {
			sub := federation.QuerySubmit{CQL: cql.Top5, Fragments: 2, Dataset: int(sources.PlanetLab), Rate: 20, Placement: []stream.NodeID{0, 1}, Feed: q}
			if _, err := e.Submit(sub); err != nil {
				panic(err)
			}
		}
		r := e.Run()
		per := make([]float64, len(r.Queries))
		for j, qr := range r.Queries {
			per[j] = qr.MeanSIC
		}
		res.Rows[i] = STWRow{STW: stw, MeanSIC: metrics.Mean(per), StdSIC: metrics.Std(per)}
	})
	return res
}

// Render prints the validation table.
func (r *STWValidation) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%g s", row.STW.Seconds()),
			fmt.Sprintf("%.4f ± %.4f", row.MeanSIC, row.StdSIC),
		})
	}
	var b strings.Builder
	b.WriteString("§7 set-up: STW validation (10 TOP-5 queries, 2 fragments, underloaded)\n")
	b.WriteString(table([]string{"STW", "mean SIC"}, rows))
	return b.String()
}
