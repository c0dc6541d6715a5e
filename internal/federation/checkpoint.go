package federation

import "repro/internal/stream"

// Virtual-time checkpoint schedule (PR 8). On the configured cadence the
// engine walks every live fragment at the end of a Step and banks its
// operator state (windows, capture stores, rate estimators) with the
// control plane. When KillNode re-places a displaced fragment, the plane
// hands back the blob that warms it — the fragment's own, or that of a
// query with the same shape and rate, which draws the same stream
// (control.Plane.Replace) — and it is restored into the fresh executor,
// so recovery resumes from a warm window instead of refilling it over a
// full STW. When every displaced fragment of a query restores, the
// recovery epoch reset is skipped: the query's surviving accumulator
// stays valid, and the SIC dip is only the mass lost since the last
// checkpoint plus in-transit drops — settled recovery within ~2 slides
// regardless of STW length (themis-bench -run churn).
//
// Checkpoint ticks stay inside the steady-state zero-allocation budget:
// the encoder buffer and the bank's per-fragment buffers are reused, so
// once capacities stabilise a warm checkpoint walk touches no allocator
// (TestCheckpointSteadyStateZeroAlloc).

// checkpointTick snapshots every live fragment's end-of-tick state into
// the plane's bank through one reused encoder.
func (e *Engine) checkpointTick() {
	for i := range e.queries {
		cq := e.queries[i].ctl
		if !e.ledger.Live(cq.ID) {
			continue
		}
		for fi, nd := range cq.Placement {
			e.ckptEnc.Reset()
			if e.nodes[nd].StateSnapshot(cq.ID, stream.FragID(fi), &e.ckptEnc) != nil {
				// Shared subscribers carry no private state: their primary's
				// record covers them.
				continue
			}
			e.plane.Checkpoint(cq.ID, fi, e.ckptEnc.Seal())
		}
	}
}
