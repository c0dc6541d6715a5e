package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/stream"
)

// Dynamic-workload experiment: the fairness claim under study is about
// federations whose query population changes while nodes shed — queries
// arrive and depart mid-run (§5: converged SIC values depend on
// "queries' arrivals and departures"). A single overloaded node serves
// a workload that doubles and then halves: two queries run from the
// start, two more are submitted live (overload doubles), then the two
// founders are retracted (capacity frees). After every transition the
// live queries' sliding SIC values must re-converge to their new fair
// share — equal SIC within each phase, phase levels tracking 1/load.

// DynamicPhase records one workload phase's steady-state observation.
type DynamicPhase struct {
	Name string `json:"name"`
	// EndTick is the engine tick at which the phase was sampled (its
	// last tick, after the STW refilled under the phase's load).
	EndTick int64 `json:"end_tick"`
	// Live lists the live queries' sliding SIC values, in query order.
	Live map[stream.QueryID]float64 `json:"live"`
	// MeanSIC and Jain summarise the live queries at phase end.
	MeanSIC float64 `json:"mean_sic"`
	Jain    float64 `json:"jain"`
}

// DynamicResult records the dynamic-workload experiment.
type DynamicResult struct {
	IntervalMs int64          `json:"interval_ms"`
	STWMs      int64          `json:"stw_ms"`
	Phases     []DynamicPhase `json:"phases"`
}

// DynamicWorkload runs the three-phase arrival/departure schedule on
// the virtual-time engine through its mid-run verbs: each phase's
// arrivals (Submit) and departures (RemoveQuery) are called before the
// phase's first Step, the founding queries' included.
func DynamicWorkload(s Scale, seed int64) (*DynamicResult, error) {
	const (
		interval = 100 * stream.Millisecond
		stw      = 2 * stream.Second
	)
	// One phase must outlast the STW by enough slack for the sliding
	// window to show the phase's steady state.
	phaseTicks := 4 * int64(stw) / int64(interval)
	if s.Name == Paper.Name {
		phaseTicks *= 2
	}
	// The single node's per-tick capacity must be well above one batch,
	// or batch-granular shedding starves whichever query loses the first
	// tie-break; 100 t/s in 10 batches/sec keeps ~10 batches per
	// shedding decision.
	rate := 5 * s.Rate
	if rate <= 0 {
		rate = 100
	}
	avg := "Select Avg(t.v) From Src[Range 1 sec]"
	cnt := "Select Count(t.v) From Src[Range 1 sec]"

	cfg := federation.Defaults()
	cfg.Interval = interval
	cfg.STW = stw
	cfg.SourceRate = rate
	cfg.BatchesPerSec = 10
	cfg.Seed = seed
	e := federation.NewEngine(cfg)
	// Capacity for one query's full rate: two live queries mean 2×
	// overload, four mean 4×.
	e.AddNode(rate)

	res := &DynamicResult{IntervalMs: int64(interval), STWMs: int64(stw)}
	// A phase opens with its departures, then its arrivals: one AVG and
	// one COUNT query each time.
	phases := []struct {
		name    string
		arrive  bool
		retract []stream.QueryID
		live    []stream.QueryID
	}{
		{"2 queries (2x overload)", true, nil, []stream.QueryID{0, 1}},
		{"4 queries (4x overload)", true, nil, []stream.QueryID{0, 1, 2, 3}},
		{"2 retracted (2x overload)", false, []stream.QueryID{0, 1}, []stream.QueryID{2, 3}},
	}
	tick := int64(0)
	for i, ph := range phases {
		for _, q := range ph.retract {
			if !e.RemoveQuery(q) {
				return nil, fmt.Errorf("experiments: query %d is not live", q)
			}
		}
		if ph.arrive {
			for _, text := range []string{avg, cnt} {
				if _, err := e.Submit(federation.QuerySubmit{CQL: text, Fragments: 1, Dataset: 1}); err != nil {
					return nil, err
				}
			}
		}
		end := int64(i+1) * phaseTicks
		// At batch granularity the instantaneous sliding SIC rotates
		// between queries at window scale; the fair-share signal — the
		// quantity the paper's figures plot — is the time average, taken
		// over the phase's second half (the first half re-converges after
		// the transition).
		half := end - phaseTicks/2
		acc := make(map[stream.QueryID]float64, len(ph.live))
		ticksIn := 0
		for ; tick < end; tick++ {
			e.Step()
			if tick >= half {
				for _, q := range ph.live {
					acc[q] += e.CurrentSIC(q)
				}
				ticksIn++
			}
		}
		row := DynamicPhase{Name: ph.name, EndTick: end, Live: make(map[stream.QueryID]float64, len(ph.live))}
		vals := make([]float64, 0, len(ph.live))
		for _, q := range ph.live {
			v := acc[q] / float64(ticksIn)
			row.Live[q] = v
			vals = append(vals, v)
		}
		row.MeanSIC = metrics.Mean(vals)
		row.Jain = metrics.Jain(vals)
		res.Phases = append(res.Phases, row)
	}
	return res, nil
}

// Render prints the phase table.
func (r *DynamicResult) Render() string {
	header := []string{"phase", "live SIC values", "mean", "Jain"}
	rows := make([][]string, 0, len(r.Phases))
	for _, ph := range r.Phases {
		ids := make([]stream.QueryID, 0, len(ph.Live))
		for q := range ph.Live {
			ids = append(ids, q)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		vals := make([]string, 0, len(ids))
		for _, q := range ids {
			vals = append(vals, fmt.Sprintf("q%d=%.3f", q, ph.Live[q]))
		}
		rows = append(rows, []string{ph.Name, strings.Join(vals, " "), f4(ph.MeanSIC), f4(ph.Jain)})
	}
	var b strings.Builder
	b.WriteString("dynamic workload: live submit/retract on one overloaded node ")
	fmt.Fprintf(&b, "(interval %d ms, STW %d ms)\n", r.IntervalMs, r.STWMs)
	b.WriteString(table(header, rows))
	return b.String()
}
