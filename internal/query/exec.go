package query

import (
	"fmt"

	"repro/internal/operator"
	"repro/internal/stream"
)

// FragmentExec is a running instance of a fragment plan: freshly
// instantiated stateful operators plus the routing fabric between them.
// It is single-goroutine; the owning node drives it.
//
// Routing closures are built once per executor, not per tick: emit
// callbacks cross the operator interface boundary, where escape analysis
// must assume they leak, so a per-tick closure would heap-allocate on
// every operator of every fragment of every tick.
type FragmentExec struct {
	plan *FragmentPlan
	ops  []operator.Operator
	// emits[i] routes operator i's emissions: intermediate edges push to
	// downstream operators (which borrow the slice until their own Tick,
	// later in this fragment tick), the output operator's emissions go to
	// the current Tick sink.
	emits []func([]stream.Tuple)
	// sink receives the fragment's output emissions during Tick. Emitted
	// slices alias operator scratch or borrowed input and are valid only
	// during the call.
	sink func([]stream.Tuple)
	// entries[port] is where Push delivers a port's input, resolved once
	// through the forwarders in front of it (resolveEntry).
	entries []entry
}

// entry is one entry port, resolved: the operator and operator port a
// push lands on, and whether that operator consumes on push.
type entry struct {
	op       operator.Operator
	port     int
	consumes bool
}

// NewFragmentExec instantiates the plan's operators.
func NewFragmentExec(p *FragmentPlan) *FragmentExec {
	e := &FragmentExec{plan: p, ops: make([]operator.Operator, len(p.Ops))}
	for i, spec := range p.Ops {
		e.ops[i] = spec.New()
	}
	e.emits = make([]func([]stream.Tuple), len(e.ops))
	for i := range e.ops {
		outs := p.Ops[i].Outs
		isOut := i == p.OutOp
		e.emits[i] = func(batch []stream.Tuple) {
			if len(batch) == 0 {
				return
			}
			if isOut {
				if e.sink != nil {
					e.sink(batch)
				}
				return
			}
			// Operators never modify pushed input and copy what they
			// retain past their Tick (the Push contract), so fan-out
			// hands every consumer the same slice.
			for _, edge := range outs {
				e.ops[edge.To].Push(edge.Port, batch)
			}
		}
	}
	size := 0
	for port := range p.Entries {
		size = max(size, port+1)
	}
	e.entries = make([]entry, size)
	fwd, fedByOther := forwarders(p, e.ops)
	for port, ent := range p.Entries {
		if port >= 0 { // no batch is addressed to a negative port
			e.entries[port] = e.resolveEntry(ent, fwd, fedByOther)
		}
	}
	return e
}

// forwarders marks the operators a push may skip: a Receive or a Union
// with one out-edge, to a later operator, which is not the output
// operator and is fed only by other such forwarders. What such a chain
// delivers to the operator behind it at Tick is what the entries pushed
// into it, grouped by the chain's first forwarder in operator order, so
// pushing straight to that operator changes nothing it sees when the
// pushes come in that order (DESIGN.md §9) — provided everything that
// operator hears comes through such chains, which fedByOther[i] denies
// (op i has an in-edge from an operator that is not a forwarder).
func forwarders(p *FragmentPlan, ops []operator.Operator) (fwd, fedByOther []bool) {
	fwd, fedByOther = make([]bool, len(ops)), make([]bool, len(ops))
	for i, op := range ops {
		switch op.(type) {
		case *operator.Receive, *operator.Union:
			outs := p.Ops[i].Outs
			fwd[i] = !fedByOther[i] && i != p.OutOp && len(outs) == 1 && outs[0].To > i
		}
		if !fwd[i] {
			for _, edge := range p.Ops[i].Outs {
				fedByOther[edge.To] = true
			}
		}
	}
	return fwd, fedByOther
}

// resolveEntry follows an entry through forwarders to the operator that
// consumes its pushes. An entry whose chain ends anywhere else — at a
// pass-through, which holds its input until Tick, or at an operator also
// fed by others — stays where the plan put it.
func (e *FragmentExec) resolveEntry(ent Entry, fwd, fedByOther []bool) entry {
	op, port := ent.Op, ent.Port
	for fwd[op] {
		edge := e.plan.Ops[op].Outs[0]
		op, port = edge.To, edge.Port
	}
	if _, ok := e.ops[op].(operator.Consumer); ok && (op == ent.Op || !fedByOther[op]) {
		return entry{op: e.ops[op], port: port, consumes: true}
	}
	_, consumes := e.ops[ent.Op].(operator.Consumer)
	return entry{op: e.ops[ent.Op], port: ent.Port, consumes: consumes}
}

// Plan returns the template this executor runs.
func (e *FragmentExec) Plan() *FragmentPlan { return e.plan }

// Push delivers input tuples to a fragment entry port and reports
// whether the caller may recycle them now. Unknown ports are dropped — a
// shed upstream fragment may leave stale routes — and report true. A port
// whose input reaches, straight or through forwarders, an operator that
// consumes on push (operator.Consumer) reports true too: that operator is
// done with the slice. Any other port reports false, and the slice is
// borrowed until the next Tick returns: the caller must leave it alone
// until then, and operators copy what they retain past the tick.
func (e *FragmentExec) Push(port int, in []stream.Tuple) bool {
	if port < 0 || port >= len(e.entries) || e.entries[port].op == nil {
		return true
	}
	ent := &e.entries[port]
	ent.op.Push(ent.port, in)
	return ent.consumes
}

// AdvanceTo fast-forwards every windowed operator to now, so an executor
// instantiated mid-run (failure recovery, live submit) starts at its
// deployment instant instead of replaying every empty window edge since
// time zero.
func (e *FragmentExec) AdvanceTo(now stream.Time) {
	for _, op := range e.ops {
		if adv, ok := op.(operator.TimeAdvancer); ok {
			adv.AdvanceTo(now)
		}
	}
}

// Snapshot writes the executor's full operator state (PR 8): an operator
// count, then per operator its Name tag and a length-prefixed state blob.
// Operators without cross-tick state encode an empty blob, so the layout
// is positionally self-describing and Restore can verify both identity
// (the tag) and exact consumption (the length) per operator.
func (e *FragmentExec) Snapshot(enc *stream.SnapEncoder) {
	enc.U32(uint32(len(e.ops)))
	for _, op := range e.ops {
		enc.Str(op.Name())
		mark := enc.BeginBlob()
		if s, ok := op.(operator.Stateful); ok {
			s.SnapshotState(enc)
		}
		enc.EndBlob(mark)
	}
}

// Restore replaces the executor's operator state with a snapshot taken
// from an executor of the same plan. Any mismatch — operator count, name
// tag, a blob an operator does not consume exactly — is an error; the
// caller then falls back to the legacy empty-window recovery.
func (e *FragmentExec) Restore(dec *stream.SnapDecoder) error {
	n := int(dec.U32())
	if err := dec.Err(); err != nil {
		return err
	}
	if n != len(e.ops) {
		return fmt.Errorf("query: snapshot has %d operators, executor has %d", n, len(e.ops))
	}
	for i, op := range e.ops {
		name := dec.Str()
		blobLen := int(dec.U32())
		if err := dec.Err(); err != nil {
			return err
		}
		if name != op.Name() {
			return fmt.Errorf("query: snapshot operator %d is %q, executor has %q", i, name, op.Name())
		}
		if blobLen > dec.Remaining() {
			return stream.ErrSnapCorrupt
		}
		start := dec.Offset()
		if s, ok := op.(operator.Stateful); ok {
			if err := s.RestoreState(dec); err != nil {
				return err
			}
		}
		if dec.Offset()-start != blobLen {
			return fmt.Errorf("query: operator %q consumed %d of its %d snapshot bytes", name, dec.Offset()-start, blobLen)
		}
	}
	return dec.Err()
}

// Reopen advances every windowed operator's emission cursor past now
// after a restore, so edges between the checkpoint and the restore are
// skipped instead of re-emitted (their SIC already reached the surviving
// engine-side accumulators). See operator.Reopener.
func (e *FragmentExec) Reopen(now stream.Time) {
	for _, op := range e.ops {
		if r, ok := op.(operator.Reopener); ok {
			r.Reopen(now)
		}
	}
}

// Tick advances every operator one step in topological order, routing
// intermediate emissions, and passes each batch emitted by the fragment's
// output operator to sink. Emitted slices alias operator-owned scratch
// or input borrowed by Push: they are valid only during the sink call and
// must be copied by anyone retaining them.
func (e *FragmentExec) Tick(now stream.Time, sink func(out []stream.Tuple)) {
	e.sink = sink
	for i, op := range e.ops {
		op.Tick(now, e.emits[i])
	}
	e.sink = nil
}
