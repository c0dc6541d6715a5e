package stream

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool recycles batches and their backing storage so the steady-state
// data path never touches the allocator. THEMIS's shedding loop runs
// every 250 ms on every node over every hosted query (§6); without
// allocation discipline each tick churns fresh batches, tuple slices and
// payload arrays that immediately become garbage. The pool replaces that
// churn with size-classed free lists of whole batches: sources, operator
// emissions and the wire decoder draw batches from a pool, and whoever
// consumes a batch releases it back once nothing aliases its storage any
// more. A batch recycles as one unit — header, tuple slice and payload
// slab stay attached — so a draw is one pop and a release one push.
//
// Ownership rules (see DESIGN.md §9 for the full memory model):
//
//   - A pooled batch owns its Tuples slice and the payload slab its
//     tuples' V slices alias. Release returns the batch, storage
//     attached, to the pool.
//   - Exactly one owner releases a batch, after the last use. Aliasing a
//     batch's tuples or payloads is legal only until the owning driver
//     releases it (in practice: until the push that consumed it returns,
//     or until the end of the node tick when the operator it was pushed
//     to holds it); anything retained longer must be copied first.
//   - View batches (GetView) alias another batch's tuples; releasing a
//     view returns only the header. The viewed parent must be released
//     after all its views.
//   - Header-only batches (GetHeader) are views of nothing: they stand
//     for tuples nobody has generated yet and own no storage.
//   - Retained views (ViewRetained) relax that ordering: they hold a
//     reference on the parent, whose storage recycles only when the owner
//     AND every retained view have released. This is what lets one shared
//     fragment's output batch fan out to many subscribing queries whose
//     hosting fragments release independently, on different goroutines.
//
// A Pool is safe for concurrent use; batches themselves are not.
// Double releases panic unconditionally — recycling a batch twice would
// silently cross-wire two queries' payloads, which is strictly worse
// than crashing. Live() exposes the outstanding-batch count so tests can
// assert leak-freedom.
type Pool struct {
	mu sync.Mutex
	// free[c] holds recycled batches whose tuple slice has capacity
	// classSizes[c]; views holds recycled header-only batches.
	free  [numClasses][]*Batch
	views []*Batch
	live  atomic.Int64
}

// classSizes are the free-list capacity classes: a batch is filed by its
// tuple capacity, and its payload slab is sized to a class too. Requests
// are rounded up to the next class; oversize requests are served by plain
// allocation and dropped on release.
var classSizes = [...]int{16, 64, 256, 1024, 4096, 16384, 65536}

const numClasses = len(classSizes)

// classOf returns the class index serving a request of size n, or -1 when
// n exceeds the largest class.
func classOf(n int) int {
	for c, size := range classSizes {
		if n <= size {
			return c
		}
	}
	return -1
}

// NewPool builds an empty pool.
func NewPool() *Pool { return &Pool{} }

// Live reports the number of batches drawn from the pool and not yet
// released — the leak detector tests assert against.
func (p *Pool) Live() int64 { return p.live.Load() }

// pop takes the most recently recycled batch off a free list, or returns
// nil when the list is empty.
func (p *Pool) pop(list *[]*Batch) (b *Batch) {
	p.mu.Lock()
	if k := len(*list); k > 0 {
		b = (*list)[k-1]
		(*list)[k-1] = nil
		*list = (*list)[:k-1]
	}
	p.mu.Unlock()
	return b
}

// push files a recycled batch on a free list.
func (p *Pool) push(list *[]*Batch, b *Batch) {
	p.mu.Lock()
	*list = append(*list, b)
	p.mu.Unlock()
}

// Get returns a batch of n tuples with arity payload fields each, drawn
// from the free lists when possible. Tuples are zeroed and their V slices
// pointed into a zeroed payload slab, so a recycled batch can never leak
// another query's payload values. A recycled batch whose slab is too
// small for this arity grows it once and keeps the larger slab. The
// caller owns the batch and must Release it exactly once.
func (p *Pool) Get(query QueryID, frag FragID, src SourceID, ts Time, n, arity int) *Batch {
	var b *Batch
	if c := classOf(n); c >= 0 {
		b = p.pop(&p.free[c])
	}
	if b == nil {
		b = &Batch{Tuples: make([]Tuple, 0, classCap(n))}
	}
	if cap(b.slab) < n*arity {
		b.slab = make([]float64, 0, classCap(n*arity))
		b.wired = 0
	}
	slab := b.slab[:n*arity]
	clear(slab)
	tuples := b.Tuples[:n]
	if arity != b.arity {
		b.arity, b.wired = arity, 0
	}
	for i := range tuples[:min(n, b.wired)] {
		tuples[i].TS, tuples[i].SIC = 0, 0
	}
	for i := b.wired; i < n; i++ {
		tuples[i] = Tuple{V: slab[i*arity : (i+1)*arity : (i+1)*arity]}
	}
	b.wired = max(b.wired, n)
	b.Query, b.Frag, b.Port, b.Source, b.TS, b.SIC = query, frag, 0, src, ts, 0
	b.Tuples, b.slab = tuples, slab
	b.pool, b.view, b.released, b.parent = p, false, false, nil
	b.refs.Store(1)
	p.live.Add(1)
	return b
}

// GetView returns a header-only batch whose Tuples alias the given
// storage — the shape batch splitting needs (sub-batches share the parent
// payload). Releasing a view recycles only the header; the owner of the
// aliased storage must outlive every view.
func (p *Pool) GetView(query QueryID, frag FragID, src SourceID, ts Time, tuples []Tuple) *Batch {
	b := p.pop(&p.views)
	if b == nil {
		b = &Batch{}
	}
	b.Query, b.Frag, b.Port, b.Source, b.TS, b.SIC = query, frag, 0, src, ts, 0
	b.Tuples = tuples
	b.pool, b.view, b.released, b.parent = p, true, false, nil
	b.refs.Store(1)
	p.live.Add(1)
	return b
}

// GetHeader returns a header-only batch: no tuples, but a header that
// reads as if it held n tuples spread evenly across [ts, end), each
// carrying tupleSIC — Len is n and SIC is sic, which the caller vouches is
// the sum RecomputeSIC would produce over them (tupleSIC added n times,
// left to right; the node memoises it per source). It lets a shedder that
// decides from headers alone (§6) run before the tuples are generated:
// whoever keeps the batch draws a real one from Pending's description and
// releases the header; a shed header is released having cost no tuple
// storage at all.
func (p *Pool) GetHeader(query QueryID, frag FragID, src SourceID, ts, end Time, n int, tupleSIC, sic float64) *Batch {
	b := p.GetView(query, frag, src, ts, nil)
	b.pending, b.pendEnd, b.pendSIC = n, end, tupleSIC
	b.SIC = sic
	return b
}

// ViewRetained returns a view like GetView that additionally holds a
// reference on parent: parent's storage recycles only after the owner and
// every retained view have released, in any order, from any goroutine.
// This is the fan-out primitive for multi-query sharing — one shared
// fragment's output batch is viewed once per subscribing query, each view
// addressed to that subscriber's downstream fragment, and each consumer
// releases on its own schedule. A nil or unpooled parent degrades to a
// plain view (nothing to retain: unpooled storage is garbage-collected).
func (p *Pool) ViewRetained(parent *Batch, query QueryID, frag FragID, src SourceID, ts Time, tuples []Tuple) *Batch {
	b := p.GetView(query, frag, src, ts, tuples)
	if parent != nil && parent.pool != nil {
		parent.refs.Add(1)
		b.parent = parent
	}
	return b
}

// classCap rounds a capacity request up to its class size, so released
// batches always land back in a class list.
func classCap(n int) int {
	if c := classOf(n); c >= 0 {
		return classSizes[c]
	}
	return n
}

// Release drops the owner's reference on a pooled batch. It is a no-op
// for plainly-allocated batches (NewBatch/DerivedBatch), so callers
// release uniformly without caring where a batch came from. Storage
// returns to the pool when the last reference — owner or retained view —
// drops; a batch with no retained views recycles immediately, exactly as
// before views existed. Releasing the same handle twice panics: the
// second release would hand storage that is already aliased by a new
// owner to yet another one.
func (b *Batch) Release() {
	if b.pool == nil {
		return
	}
	if b.released {
		panic(fmt.Sprintf("stream: double release of batch (query %d frag %d ts %d)", b.Query, b.Frag, b.TS))
	}
	b.released = true
	b.decref()
}

// decref drops one reference and recycles at zero. The atomic decrement
// orders the releasing goroutine's prior writes before the recycling
// goroutine's reads, so whichever goroutine drops the count to zero owns
// the batch exclusively.
func (b *Batch) decref() {
	if b.refs.Add(-1) > 0 {
		return
	}
	b.recycle()
}

// recycle files the batch, storage attached, on its pool's free list and
// drops the reference it held on its parent, if any. The handle's Tuples
// are truncated (nil for a view), so a use after release fails loudly.
// Called exactly once per pool draw, by the goroutine whose release
// dropped the count to zero.
func (b *Batch) recycle() {
	p := b.pool
	parent := b.parent
	b.parent = nil
	if b.view {
		b.Tuples, b.pending = nil, 0
		p.push(&p.views, b)
	} else {
		b.Tuples, b.slab = b.Tuples[:0], b.slab[:0]
		// An oversize batch has no class: the garbage collector takes it.
		if c := classOf(cap(b.Tuples)); c >= 0 && cap(b.Tuples) == classSizes[c] {
			p.push(&p.free[c], b)
		}
	}
	p.live.Add(-1)
	if parent != nil {
		parent.decref()
	}
}

// Pooled reports whether the batch came from a pool — test helper for
// ownership assertions.
func (b *Batch) Pooled() bool { return b.pool != nil }
