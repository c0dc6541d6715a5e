package stream

import "sync/atomic"

// Batch is a group of tuples emitted atomically, preceded by a single
// header (§6: "A batch contains a sequence of tuples preceded by a single
// header with the following fields: (a) the SIC value; (b) a unique
// identifier of the query that these tuples belong to; and (c) a
// timestamp").
//
// Batches are the unit of transfer between sources, fragments and nodes,
// and the unit of shedding: the tuple shedder discards whole batches until
// the input buffer fits the node capacity (§6).
type Batch struct {
	// Query is the query the tuples belong to.
	Query QueryID
	// Frag is the destination fragment within the query.
	Frag FragID
	// Port is the input port of the destination fragment. Port 0 carries
	// local source data; higher ports carry partial results from upstream
	// fragments (chain and tree layouts, §7).
	Port int
	// Source is the origin source for source batches, or -1 for batches
	// of derived tuples.
	Source SourceID
	// TS is the creation timestamp of the batch.
	TS Time
	// SIC is the aggregate source information content of the batch: the
	// sum of the SIC values of its tuples. It is the header field the
	// BALANCE-SIC shedder reads without touching tuple payloads.
	SIC float64
	// Tuples holds the batch payload. Tuple V slices alias a single
	// backing array owned by the batch (see NewBatch); a pooled batch's
	// holder fills the payload through them and never re-points them.
	Tuples []Tuple

	// pool, slab, view and released implement the pooled batch lifecycle
	// (see Pool). They are zero for plainly-allocated batches, whose
	// Release is a no-op.
	pool     *Pool
	slab     []float64
	view     bool
	released bool
	// arity and wired cache the V wiring across recycles: the first wired
	// tuples of the full-capacity tuple slice already point at their
	// arity-wide rows of slab, so a re-draw at the same arity only zeroes.
	// Holders write through a pooled tuple's V, never re-point it.
	arity, wired int
	// parent and refs implement retained views (Pool.ViewRetained): a
	// batch's storage recycles only when its reference count — one for the
	// owner plus one per retained view — drops to zero, and a retained
	// view's release drops its parent's count. refs is atomic so that
	// Release keeps the pool's contract — callable from any goroutine,
	// under no lock: a networked host releases on its tick goroutine
	// (NodeServer.drainOutbox, after dropping the node mutex) and on its
	// connection readers. The single-threaded engine does not depend on it.
	parent *Batch
	refs   atomic.Int32
	// pending, pendEnd and pendSIC describe the tuples a header-only
	// batch (Pool.GetHeader) stands for; pending is zero for every batch
	// that has tuples.
	pending int
	pendEnd Time
	pendSIC float64
}

// Len reports the number of tuples in the batch — for a header-only
// batch, the number it stands for.
func (b *Batch) Len() int { return len(b.Tuples) + b.pending }

// Pending describes a header-only batch: it stands for n tuples that do
// not exist yet, spread evenly across [b.TS, end), each carrying tupleSIC.
// n is zero for a batch that has its tuples.
func (b *Batch) Pending() (n int, end Time, tupleSIC float64) {
	return b.pending, b.pendEnd, b.pendSIC
}

// RecomputeSIC recomputes the header SIC from the tuples. Operators call
// it after assigning per-tuple SIC values.
func (b *Batch) RecomputeSIC() {
	sum := 0.0
	for i := range b.Tuples {
		sum += b.Tuples[i].SIC
	}
	b.SIC = sum
}

// NewBatch allocates a batch of n tuples with arity payload fields each.
// All tuple V slices alias a single backing array, so building a batch
// performs exactly two allocations regardless of n. Tuples are zeroed;
// the caller fills timestamps, SIC values and payloads.
func NewBatch(query QueryID, frag FragID, src SourceID, ts Time, n, arity int) *Batch {
	b := &Batch{Query: query, Frag: frag, Source: src, TS: ts} //themis:coldalloc unpooled slow path: hot callers reach it only without a pool (Source.Emit) or for ragged arities (Node.emitFragment); steady-state batches come from Pool.Get.
	b.Tuples = make([]Tuple, n)
	if arity > 0 {
		backing := make([]float64, n*arity)
		for i := range b.Tuples {
			b.Tuples[i].V = backing[i*arity : (i+1)*arity : (i+1)*arity]
		}
	}
	return b
}

// DerivedBatch wraps an operator's output tuples into a batch addressed to
// the given query/fragment/port, recomputing the SIC header.
func DerivedBatch(query QueryID, frag FragID, port int, ts Time, tuples []Tuple) *Batch {
	b := &Batch{Query: query, Frag: frag, Port: port, Source: -1, TS: ts, Tuples: tuples}
	b.RecomputeSIC()
	return b
}

// HeaderBytes is the wire size of a batch SIC header in the prototype:
// 10 bytes store the SIC value and its scale per batch (§7.6). The
// constant is exported so the overhead experiment can report meta-data
// cost exactly as the paper does.
const HeaderBytes = 10

// CoordinatorMsgBytes is the wire size of one query-coordinator result-SIC
// update message (§7.6: "This creates a message of 30 bytes").
const CoordinatorMsgBytes = 30
