// Package operator implements THEMIS's operator library and the SIC
// propagation rule of Eq. (3).
//
// Operators are black boxes to the shedding machinery (§4: "We consider
// queries as black-boxes"): the system never inspects operator semantics,
// only the SIC meta-data flowing through them. Every operator processes
// input atomically — either per pushed batch (stateless operators such as
// filters and unions) or per window (aggregates, joins) — and distributes
// the total SIC of the atomically-processed input across its output
// tuples (Eq. 3).
//
// A consequence of atomic processing worth making explicit: a filter that
// *examines* a window of tuples and emits only the passing subset assigns
// the full input SIC to that subset. The rejected tuples were used towards
// the result (the result correctly reflects their exclusion), so their
// information is not lost. SIC is only lost when an operator emits nothing
// for a window (e.g. a join that matches no pairs), which is exactly the
// "derived tuples are lost" case discussed in §4.
package operator

import (
	"repro/internal/sic"
	"repro/internal/stream"
)

// Operator is a stateful stream operator. Push delivers input tuples to a
// port; Tick advances logical time and emits derived tuples through emit.
// Implementations are not safe for concurrent use — each fragment executor
// owns its operators and drives them from a single goroutine.
//
// Ownership contract (DESIGN.md §9): a pushed slice, and the V payloads
// its tuples alias, stay valid until the receiving operator's next Tick
// returns — pushes borrow pooled batch storage, or an upstream operator's
// emission. An operator may hold the slice until then without copying
// (the pass-through operators do) but must copy anything it retains
// beyond its Tick. An operator that implements Consumer promises more: it
// is done with the slice when Push returns, so the node recycles a batch
// pushed to it right after the push instead of when the tick ends.
// Symmetrically an emission must stay valid, unmodified, until the
// fragment tick ends: it aliases an operator-owned arena that is
// overwritten on the operator's next Tick, or forwards a borrowed push. A
// consumer outside the fragment (the sink) must copy what it keeps before
// the emit call returns.
type Operator interface {
	// Name identifies the operator kind for diagnostics and plans.
	Name() string
	// InPorts reports how many input ports the operator has.
	InPorts() int
	// Push delivers input tuples on the given port. The slice is borrowed
	// until the operator's next Tick returns.
	Push(port int, in []stream.Tuple)
	// Tick advances to logical time now, emitting zero or more derived
	// batches. Emitted slices stay valid until the fragment tick ends.
	Tick(now stream.Time, emit func(out []stream.Tuple))
}

// Consumer is implemented by the operators that consume on push: they
// fold a pushed slice into running state or copy what they keep of it (a
// stream.WindowBuffer copies every tuple and payload), so nothing of it is
// read after Push returns. These are the folding aggregates, the
// WindowBuffer-based operators, the two-input paired operators and
// PartialCov. A pass-through, which holds its input until its Tick, is
// not one.
type Consumer interface {
	ConsumesOnPush()
}

// TimeAdvancer is implemented by windowed operators that can skip their
// (empty) window history when instantiated mid-run: a fragment executor
// deployed at recovery or live-submit time fast-forwards its windows to
// the deployment instant instead of replaying every empty edge since
// time zero. See stream.WindowBuffer.FastForward.
type TimeAdvancer interface {
	AdvanceTo(now stream.Time)
}

// arena is the reusable emission buffer embedded by emitting operators:
// tuples and payload rows are appended per tick and the whole arena is
// reset at the operator's next Tick, after every consumer has drained.
// Growing appends may relocate the backing arrays; previously returned
// slices keep the old arrays alive, so emissions handed out earlier in
// the same tick stay valid. In steady state the arena caps stabilise and
// emissions stop allocating entirely.
type arena struct {
	tuples []stream.Tuple
	vals   []float64
}

// reset truncates the arena for a new tick, keeping capacity.
func (a *arena) reset() {
	a.tuples = a.tuples[:0]
	a.vals = a.vals[:0]
}

// row appends a payload row to the arena and returns it.
func (a *arena) row(vals ...float64) []float64 {
	off := len(a.vals)
	a.vals = append(a.vals, vals...)
	return a.vals[off:len(a.vals):len(a.vals)]
}

// mark records the current emission start.
func (a *arena) mark() int { return len(a.tuples) }

// add appends one tuple to the current emission.
func (a *arena) add(t stream.Tuple) { a.tuples = append(a.tuples, t) }

// since returns the emission started at mark m.
func (a *arena) since(m int) []stream.Tuple {
	return a.tuples[m:len(a.tuples):len(a.tuples)]
}

// one builds a single-tuple emission with the given SIC mass (Eq. 3 with
// |T_out| = 1) and payload values.
func (a *arena) one(ts stream.Time, sicVal float64, values ...float64) []stream.Tuple {
	m := a.mark()
	a.add(stream.Tuple{TS: ts, SIC: sic.PropagateSIC(sicVal, 1), V: a.row(values...)})
	return a.since(m)
}

// passThrough is the base for stateless operators that process what was
// pushed since their last tick. Pushes are held, not copied: a pushed
// slice is borrowed until the operator's Tick returns (see Operator), and
// every pass-through forwards or consumes its input within that Tick.
type passThrough struct {
	// held are the slices pushed since the last Tick, in push order.
	held [][]stream.Tuple
	// joined is take's concatenation buffer, reused across ticks.
	joined []stream.Tuple
}

func (p *passThrough) InPorts() int { return 1 }

func (p *passThrough) Push(port int, in []stream.Tuple) {
	if len(in) > 0 {
		p.held = append(p.held, in)
	}
}

// drop forgets the held slices, keeping the list's storage.
func (p *passThrough) drop() {
	clear(p.held)
	p.held = p.held[:0]
}

// gather returns the held input as one slice without draining it: a
// single push is returned as it came, several are concatenated into
// joined. The result is valid until the next gather.
func (p *passThrough) gather() []stream.Tuple {
	if len(p.held) == 1 {
		return p.held[0]
	}
	p.joined = p.joined[:0]
	for _, in := range p.held {
		p.joined = append(p.joined, in...)
	}
	return p.joined
}

// take drains the held input as one slice, for operators that process a
// tick's input atomically.
func (p *passThrough) take() []stream.Tuple {
	out := p.gather()
	p.drop()
	return out
}

// forward emits every held slice as it came, in push order. Splitting a
// tick's input over several emissions is invisible to operators, which
// all treat consecutive pushes as one input; Output, the pass-through
// that faces the fragment sink, emits once per tick through take.
func (p *passThrough) forward(emit func([]stream.Tuple)) {
	for _, in := range p.held {
		emit(in)
	}
	p.drop()
}

// Receive models a source data receiver (the "Src" / "AllSrcCPU" receivers
// of Table 1). It forwards tuples unchanged; it exists as a distinct
// operator so fragment operator counts and per-operator accounting match
// the paper's query descriptions.
type Receive struct{ passThrough }

// NewReceive builds a receiver.
func NewReceive() *Receive { return &Receive{} }

// Name implements Operator.
func (r *Receive) Name() string { return "receive" }

// Tick implements Operator.
func (r *Receive) Tick(now stream.Time, emit func([]stream.Tuple)) { r.forward(emit) }

// Union merges n input streams into one, preserving tuples and SIC. It
// implements the AllSrc union of Table 1.
type Union struct {
	passThrough
	ports int
}

// NewUnion builds a union of the given number of input ports.
func NewUnion(ports int) *Union {
	if ports < 1 {
		ports = 1
	}
	return &Union{ports: ports}
}

// Name implements Operator.
func (u *Union) Name() string { return "union" }

// InPorts implements Operator.
func (u *Union) InPorts() int { return u.ports }

// Tick implements Operator.
func (u *Union) Tick(now stream.Time, emit func([]stream.Tuple)) { u.forward(emit) }

// Output marks the root operator that emits the query result stream to
// the user (§3: "There exists one root operator in the query graph to
// emit the query result stream"). It forwards tuples unchanged, as one
// emission per tick.
type Output struct{ passThrough }

// NewOutput builds an output operator.
func NewOutput() *Output { return &Output{} }

// Name implements Operator.
func (o *Output) Name() string { return "output" }

// Tick implements Operator.
func (o *Output) Tick(now stream.Time, emit func([]stream.Tuple)) {
	if out := o.take(); len(out) > 0 {
		emit(out)
	}
}

// Predicate tests one tuple.
type Predicate func(t *stream.Tuple) bool

// FieldAtLeast returns a predicate testing V[field] >= threshold, the
// shape of Table 1's HAVING and WHERE clauses.
func FieldAtLeast(field int, threshold float64) Predicate {
	return func(t *stream.Tuple) bool { return t.V[field] >= threshold }
}

// Filter atomically processes each pushed batch and emits the tuples
// matching the predicate. Per Eq. (3) the total SIC of the examined batch
// is redistributed over the emitted subset; if nothing passes, the batch's
// SIC is lost for this query's result. Output tuples share their V
// payloads with the input — legal because emissions are consumed within
// the tick (retainers copy).
type Filter struct {
	passThrough
	out  arena
	pred Predicate
}

// NewFilter builds a filter with the given predicate.
func NewFilter(pred Predicate) *Filter { return &Filter{pred: pred} }

// Name implements Operator.
func (f *Filter) Name() string { return "filter" }

// Tick implements Operator.
func (f *Filter) Tick(now stream.Time, emit func([]stream.Tuple)) {
	f.out.reset()
	in := f.take()
	if len(in) == 0 {
		return
	}
	var totalSIC float64
	m := f.out.mark()
	for i := range in {
		totalSIC += in[i].SIC
		if f.pred(&in[i]) {
			f.out.add(in[i])
		}
	}
	out := f.out.since(m)
	if len(out) == 0 {
		return
	}
	per := sic.PropagateSIC(totalSIC, len(out))
	for i := range out {
		out[i].SIC = per
	}
	emit(out)
}
