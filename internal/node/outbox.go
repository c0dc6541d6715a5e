package node

import "repro/internal/stream"

// Outbox collects the externally-visible effects of one node tick. The
// node fills it during Tick/TickSpan instead of calling into its driver,
// and the driver drains it once the tick is over. The federation engine
// does so right after each node's tick: a derived batch is held here
// until it enters the in-transit schedule at tick + delay, so no node
// sees it in the tick that produced it. The TCP transport drains after
// dropping the node mutex (TakeOutbox's double buffer keeps the drained
// outbox valid meanwhile), so inbound handlers never wait behind an
// encode.
//
// The batches in an outbox are pooled: draining transfers their
// ownership to the driver, which must release each one after its last
// use — the federation engine does so as it applies each effect, and
// Replay does it after the router call returns.
type Outbox struct {
	// Downstream holds derived batches bound for the node hosting the
	// consuming fragment, in fragment emission order.
	Downstream []*stream.Batch
	// Results holds root-fragment result emissions.
	Results []ResultEmit
}

// ResultEmit is one root-fragment result emission. The batch carries the
// result tuples; whoever drains the outbox releases it after delivery.
type ResultEmit struct {
	Query stream.QueryID
	Now   stream.Time
	Batch *stream.Batch
}

// Empty reports whether the outbox holds no effects.
func (o *Outbox) Empty() bool {
	return len(o.Downstream) == 0 && len(o.Results) == 0
}

// Reset truncates both queues, keeping their storage for reuse.
// Batches still referenced are NOT released — callers drain (and
// release) before Reset runs via TakeOutbox.
func (o *Outbox) Reset() {
	for i := range o.Downstream {
		o.Downstream[i] = nil
	}
	o.Downstream = o.Downstream[:0]
	for i := range o.Results {
		o.Results[i].Batch = nil
	}
	o.Results = o.Results[:0]
}

// Replay feeds the outbox through a Router — result emissions first, then
// downstream ones — and resets it, releasing every batch
// after its router call returns. It is the drop-in bridge for drivers
// that consume effects one at a time, like the TCP transport; the
// federation engine drains outboxes directly so it can hand batches
// over without a copy. Routers that retain a
// batch or its tuples past the call must copy.
func (o *Outbox) Replay(from stream.NodeID, r Router) {
	for _, re := range o.Results {
		r.DeliverResult(re.Query, re.Now, re.Batch.Tuples, re.Batch.SIC)
		re.Batch.Release()
	}
	for _, b := range o.Downstream {
		r.RouteDownstream(from, b)
		b.Release()
	}
	o.Reset()
}
