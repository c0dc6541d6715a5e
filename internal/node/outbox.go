package node

import "repro/internal/stream"

// Outbox collects the externally-visible effects of a node's ticks. The
// node fills it during Tick/TickSpan instead of calling into its driver,
// and both drivers drain it right after each tick, on the goroutine that
// ticked: the federation engine holds a derived batch in its in-transit
// schedule until tick + delay, so no node sees it in the tick that
// produced it; a TCP host encodes it into a send queue, flushed at the
// end of the same step.
//
// The batches in an outbox are pooled: draining transfers their
// ownership to the driver, which must release each one after its last
// use, as it applies each effect.
type Outbox struct {
	// Downstream holds derived batches bound for the node hosting the
	// consuming fragment, in fragment emission order.
	Downstream []*stream.Batch
	// Results holds root-fragment result batches, each labelled with its
	// query and stamped with the end of the tick that emitted it.
	Results []*stream.Batch
}

// Reset truncates both queues, keeping their storage for reuse.
// Batches still referenced are NOT released — the driver drains (and
// releases) them before it resets the outbox.
func (o *Outbox) Reset() {
	clear(o.Downstream)
	o.Downstream = o.Downstream[:0]
	clear(o.Results)
	o.Results = o.Results[:0]
}
