package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cql"
	"repro/internal/federation"
	"repro/internal/sources"
	"repro/internal/stream"
)

// Node-churn recovery experiment: a federation in steady state loses a
// fragment host; the engine re-places the displaced fragment on a spare
// (exactly as the TCP controller re-places it on a live deployment) and
// the experiment measures how long the affected query's SIC takes to
// climb back. Recovery time is dominated by the STW refill — the
// re-placed pipeline is correct immediately, but the sliding window
// that defines result SIC must fill with post-recovery mass — so the
// experiment sweeps the STW to expose that relationship.
//
// Measurement note: the sliding sum refills in quanta of one result
// emission (one per result slide), so the value observed at the 90%
// threshold crossing is quantised — for an STW of ten result slides the
// first crossing lands exactly on 0.90, which an earlier version of this
// experiment recorded as the "recovered" SIC, making a full recovery
// look like a permanent 10% loss. The experiment therefore tracks the
// settled post-recovery level: the first plateau the SIC holds for two
// result slides (SettledTicks, with the plateau value as RecoveredSIC),
// plus the crossing back to 99% of pre-kill (FullRecoveryTicks).

// ChurnRow is one STW configuration's recovery measurement.
type ChurnRow struct {
	STWMs int64
	// Checkpoint reports whether operator-state checkpointing was on for
	// this run: the engine snapshots every fragment's windows each tick
	// and restores the displaced fragment from the newest snapshot, so
	// recovery skips the STW refill entirely (PR 8).
	Checkpoint bool
	// KillTick is the engine tick at which the host died.
	KillTick int64
	// PreKillSIC is the query's sliding SIC just before the failure.
	PreKillSIC float64
	// DipSIC is the sliding SIC right after the recovery epoch reset.
	DipSIC float64
	// RecoveryTicks counts ticks from the kill until the sliding SIC
	// regained 90% of its pre-kill level (-1: never within the run).
	RecoveryTicks int64
	// FullRecoveryTicks counts ticks from the kill until the sliding SIC
	// settled back to 99% of its pre-kill level (-1: never within the
	// horizon).
	FullRecoveryTicks int64
	// SettledTicks counts ticks from the kill until the sliding SIC
	// reaches a plateau — stays within 0.5% absolute for the following
	// two result slides (-1: never within the horizon). This is the
	// checkpointing headline: a restored window settles within ~2 slides
	// regardless of the STW, while the legacy empty-window recovery keeps
	// climbing until the refill completes. The plateau with checkpointing
	// sits slightly below pre-kill until the batches that were in flight
	// to the dead host — lost in transit, unrecoverable by any snapshot —
	// retire from the sliding window one STW later, which is what
	// FullRecoveryTicks then measures.
	SettledTicks int64
	// RecoveredSIC is the settled sliding SIC after recovery: the value
	// at the 99% crossing, or at the measurement horizon if the query
	// never settled. Unlike the quantised threshold-crossing value, this
	// is the level the query actually recovers to.
	RecoveredSIC float64
}

// ChurnResult records the recovery-time experiment.
type ChurnResult struct {
	Nodes      int
	Fragments  int
	IntervalMs int64
	Rows       []ChurnRow
}

// ChurnRecovery kills the root fragment's host of a 3-fragment AVG-all
// query on a 4-node federation (one spare) at steady state, for each
// STW in stws, and measures the SIC dip and recovery time — once with
// the legacy empty-window recovery and once with checkpointing on, so
// the sweep exposes both regimes: refill time proportional to the STW
// without checkpoints, settled recovery within ~2 slides with them.
func ChurnRecovery(stws []stream.Duration, seed int64) (*ChurnResult, error) {
	const (
		nodes    = 4
		frags    = 3
		interval = 100 * stream.Millisecond
	)
	res := &ChurnResult{Nodes: nodes, Fragments: frags, IntervalMs: int64(interval)}
	for _, stw := range stws {
		for _, ckpt := range []bool{false, true} {
			row, err := churnRun(stw, interval, seed, nodes, frags, ckpt)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// churnRun measures one STW × checkpoint configuration.
func churnRun(stw, interval stream.Duration, seed int64, nodes, frags int, checkpoint bool) (ChurnRow, error) {
	cfg := federation.Defaults()
	cfg.STW = stw
	cfg.Interval = interval
	cfg.SourceRate = 50
	cfg.Seed = seed
	if checkpoint {
		// Checkpoint every tick: the restore is then at most one tick
		// stale.
		cfg.Checkpoint = interval
	}
	// Kill once the window has long filled: three STWs in.
	killTick := 3 * int64(stw) / int64(interval)
	e := federation.NewEngine(cfg)
	e.AddNodes(nodes, 50_000)
	q, err := e.Submit(federation.QuerySubmit{CQL: cql.AvgAll, Fragments: frags, Dataset: int(sources.Uniform), Placement: []stream.NodeID{0, 1, 2}})
	if err != nil {
		return ChurnRow{}, err
	}
	for i := int64(0); i < killTick; i++ {
		e.Step()
	}
	row := ChurnRow{STWMs: int64(stw), Checkpoint: checkpoint, KillTick: killTick,
		PreKillSIC: e.CurrentSIC(q), RecoveryTicks: -1, FullRecoveryTicks: -1, SettledTicks: -1}
	e.KillNode(0) // the kill + re-placement land at the start of the kill tick
	e.Step()
	row.DipSIC = e.CurrentSIC(q)
	// Record the full post-kill SIC series, then derive the metrics: the
	// plateau scan needs to look two slides ahead of each sample.
	maxTicks := killTick + 4*int64(stw)/int64(interval)
	series := make([]float64, 0, maxTicks-killTick)
	series = append(series, row.DipSIC)
	for tick := killTick + 2; tick <= maxTicks; tick++ {
		e.Step()
		series = append(series, e.CurrentSIC(q))
	}
	threshold := 0.9 * row.PreKillSIC
	full := 0.99 * row.PreKillSIC
	slideTicks := int(int64(stream.Second) / int64(interval))
	for i, s := range series {
		ticks := int64(i) + 1 // series[0] is one tick after the kill
		if row.RecoveryTicks < 0 && s >= threshold {
			row.RecoveryTicks = ticks
		}
		if row.FullRecoveryTicks < 0 && s >= full {
			row.FullRecoveryTicks = ticks
		}
		if row.SettledTicks < 0 && i+2*slideTicks < len(series) {
			flat := true
			for j := i; j <= i+2*slideTicks; j++ {
				if series[j] < s-0.005 || series[j] > s+0.005 {
					flat = false
					break
				}
			}
			if flat {
				row.SettledTicks = ticks
				row.RecoveredSIC = s
			}
		}
	}
	if row.SettledTicks < 0 {
		row.RecoveredSIC = series[len(series)-1]
	}
	return row, nil
}

// Render prints the recovery sweep as a text table.
func (r *ChurnResult) Render() string {
	header := []string{"stw", "ckpt", "pre-kill SIC", "dip SIC", "90% recovery", "settled", "full (99%)", "recovered SIC"}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		span := func(ticks int64) string {
			if ticks < 0 {
				return "never"
			}
			return fmt.Sprintf("%.1fs (%d ticks)", float64(ticks*r.IntervalMs)/1000, ticks)
		}
		ckpt := "off"
		if row.Checkpoint {
			ckpt = "on"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%.0fs", float64(row.STWMs)/1000), ckpt,
			f4(row.PreKillSIC), f4(row.DipSIC),
			span(row.RecoveryTicks), span(row.SettledTicks), span(row.FullRecoveryTicks),
			f4(row.RecoveredSIC),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "node-churn recovery: %d nodes, %d-fragment AVG-all, root host killed (interval %d ms)\n",
		r.Nodes, r.Fragments, r.IntervalMs)
	b.WriteString(table(header, rows))
	return b.String()
}
