// Package coordinator implements the logically-centralised per-query
// coordinator of §6: "The dissemination of query result SIC values to
// nodes that host query fragments (i.e. updateSIC() in Algorithm 1) is
// performed by a logically-centralised query coordinator component. It is
// instantiated when a new query is deployed, and it is responsible for
// the query management during its lifecycle."
//
// The coordinator maintains the query's result SIC estimate over the
// sliding STW and periodically pushes it to every node hosting one of the
// query's fragments. Updates travel over the (possibly wide-area) network,
// so subscribers receive them with delay — the federation engine models
// that delay explicitly.
package coordinator

import (
	"repro/internal/sic"
	"repro/internal/stream"
)

// UpdateMode selects how the coordinator estimates a query's result SIC.
type UpdateMode int

const (
	// Acceptance credits SIC at the moment a node keeps (accepts) a
	// batch, and debits it if a downstream node later sheds the derived
	// data. It is the literal reading of Assumption 3 (§5.2: "once a
	// tuple is accepted by a query, its contribution to the result SIC
	// value is assumed to be instantaneous"), kept as an ablation: it is
	// blind to SIC lost inside operators (a join whose window ended up
	// one-sided), so it over-credits join-heavy queries under heavy
	// shedding.
	Acceptance UpdateMode = iota
	// RootMeasured disseminates the SIC actually measured at the root
	// fragment's result stream (Eq. 4) — the quantity §6 names ("the
	// dissemination of query result SIC values"). It lags acceptance by
	// the pipeline depth, which the shedder's local projection absorbs,
	// and it closes the feedback loop over conversion losses. It is the
	// default.
	RootMeasured
)

// String names the mode.
func (m UpdateMode) String() string {
	if m == RootMeasured {
		return "root-measured"
	}
	return "acceptance"
}

// Coordinator tracks one query's result SIC estimate. Both runtimes build
// theirs through Ledger, always RootMeasured. The Acceptance mode, the
// accepted accumulator behind ReportAcceptedBatch, and Value's mode switch
// are kept only because bench/probes.go (coordinator.report_ns) compiles
// against them; it is their one remaining non-test caller.
type Coordinator struct {
	query    stream.QueryID
	mode     UpdateMode
	accepted *sic.Accumulator
	measured *sic.Accumulator
}

// New builds a coordinator for the query with the given STW and slide.
func New(q stream.QueryID, mode UpdateMode, stw, slide stream.Duration) *Coordinator {
	return &Coordinator{
		query:    q,
		mode:     mode,
		accepted: sic.NewAccumulator(stw, slide),
		measured: sic.NewAccumulator(stw, slide),
	}
}

// Query returns the coordinated query.
func (c *Coordinator) Query() stream.QueryID { return c.query }

// Mode returns the estimation mode.
func (c *Coordinator) Mode() UpdateMode { return c.mode }

// ReportAcceptedBatch records one exchange round's accepted-SIC deltas
// (gathered across nodes in a fixed order) with a single accumulator
// update, touching the sliding accumulator once per tick instead of once
// per node. When the batch is the target bucket's first contribution —
// true for the engine, which reports each tick's deltas in one call and
// slides one bucket per tick — the left-to-right sum is bit-identical to
// reporting each delta individually; if the bucket already holds mass,
// batching regroups the float additions and may differ in the last ULPs.
func (c *Coordinator) ReportAcceptedBatch(t stream.Time, deltas []float64) {
	var sum float64
	for _, d := range deltas {
		sum += d
	}
	c.accepted.Add(t, sum)
}

// ResetEpoch clears both SIC estimates, starting a fresh measurement
// epoch. Failure recovery uses it after a query's fragments are
// re-placed: SIC mass accepted or measured before the re-placement
// described a pipeline that no longer exists, so post-recovery values
// must not be diluted by pre-failure history.
func (c *Coordinator) ResetEpoch() {
	c.accepted.Reset()
	c.measured.Reset()
}

// ReportResult records SIC that reached the root fragment's result stream.
func (c *Coordinator) ReportResult(t stream.Time, delta float64) {
	c.measured.Add(t, delta)
}

// Value returns the current result SIC estimate under the configured mode.
func (c *Coordinator) Value(t stream.Time) float64 {
	switch c.mode {
	case RootMeasured:
		return c.measured.Sum(t)
	default:
		v := c.accepted.Sum(t)
		if v < 0 {
			return 0
		}
		return v
	}
}

// MeasuredSIC returns the root-measured result SIC over the STW ending at
// t — the quantity the evaluation plots, regardless of update mode.
func (c *Coordinator) MeasuredSIC(t stream.Time) float64 {
	return c.measured.Sum(t)
}
