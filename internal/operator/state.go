package operator

import (
	"repro/internal/stream"
)

// Operator state contract (PR 8). Every operator that carries state across
// ticks implements Stateful; the fragment executor walks its operators and
// serializes each one's state through the stream snapshot codec, so a
// re-placed fragment resumes from warm windows instead of refilling them
// over a full STW (DESIGN.md §12).
//
// What counts as state: window buffers (tuples waiting for future edges),
// the accumulators and columns of operators that fold on push (fold.go),
// captured-window stores pairing two-input operators' closed windows, and
// pass-through held input. What does not: per-tick and per-window
// scratch — emission arenas, group-by maps, join hash indexes, top-k
// rankings — is rebuilt from the window contents on the next tick and is
// deliberately excluded, which keeps snapshots small and the codec free of
// map-order nondeterminism.

// Stateful is the uniform snapshot/restore contract. SnapshotState writes
// the operator's cross-tick state; RestoreState replaces it from a
// decoder positioned at the matching blob. Restore errors leave the
// operator in an unspecified but safe state — callers fall back to the
// legacy empty-window recovery path.
type Stateful interface {
	SnapshotState(enc *stream.SnapEncoder)
	RestoreState(dec *stream.SnapDecoder) error
}

// Reopener is implemented by windowed operators whose emission cursor must
// be advanced after a restore: the snapshot's next window edge lies at or
// before the restore instant, and replaying the intervening edges would
// re-emit windows whose SIC the surviving engine-side accumulators already
// counted. Unlike TimeAdvancer.AdvanceTo (which requires a never-used
// buffer), Reopen is legal on restored, non-empty windows.
type Reopener interface {
	Reopen(now stream.Time)
}

// --- pass-through base (Receive, Union, Output, Filter, AvgFinalize, CovFinalize) ---

// SnapshotState implements Stateful. Held input is drained within every
// tick, so between ticks — when checkpoints run — it is empty and this
// encodes as a zero count; it is snapshot anyway so the contract does not
// depend on that scheduling detail.
func (p *passThrough) SnapshotState(enc *stream.SnapEncoder) {
	enc.TupleSlice(p.gather())
}

// RestoreState implements Stateful. Restored tuples own their payload
// storage; they are held like one push.
func (p *passThrough) RestoreState(dec *stream.SnapDecoder) error {
	p.drop()
	p.joined, _ = dec.TupleSlice(p.joined[:0], nil)
	if len(p.joined) > 0 {
		p.held = append(p.held, p.joined)
	}
	return dec.Err()
}

// --- windowed base (Agg, GroupAgg, PartialAvg, AvgMerge, CovMerge, TopK) ---

// SnapshotState implements Stateful: the window buffer is the entire
// cross-tick state; sicShare is derived from the static window spec.
func (w *windowed) SnapshotState(enc *stream.SnapEncoder) {
	w.win.Snapshot(enc)
}

// RestoreState implements Stateful.
func (w *windowed) RestoreState(dec *stream.SnapDecoder) error {
	return w.win.Restore(dec)
}

// Reopen implements Reopener.
func (w *windowed) Reopen(now stream.Time) { w.win.Reopen(now) }

// --- winStore (captured closed windows of two-input operators) ---

// snapshot writes the unconsumed captured windows, oldest first, with
// per-window close time and SIC mass. Consumed entries below head are
// dead storage and are not encoded; restore rebases head to zero.
func (ws *winStore) snapshot(enc *stream.SnapEncoder) {
	live := ws.wins[ws.head:]
	enc.U32(uint32(len(live)))
	for i := range live {
		w := &live[i]
		enc.I64(int64(w.at))
		enc.F64(w.sic)
		enc.TupleSlice(ws.tuples[w.start:w.end])
	}
}

// restore replaces the store contents with a snapshot.
func (ws *winStore) restore(dec *stream.SnapDecoder) error {
	// Each captured window costs at least at + sic + tuple-slice header.
	n := dec.Count(24)
	if err := dec.Err(); err != nil {
		return err
	}
	ws.tuples, ws.vals, ws.wins, ws.head = ws.tuples[:0], ws.vals[:0], ws.wins[:0], 0
	for i := 0; i < n; i++ {
		at := stream.Time(dec.I64())
		sicMass := dec.F64()
		start := len(ws.tuples)
		ws.tuples, ws.vals = dec.TupleSlice(ws.tuples, ws.vals)
		if err := dec.Err(); err != nil {
			return err
		}
		ws.wins = append(ws.wins, winRec{start: start, end: len(ws.tuples), at: at, sic: sicMass})
	}
	return nil
}

// --- paired base (Join; PartialCov over a window it cannot fold) ---

// SnapshotState implements Stateful: two windows, then two capture
// stores. Join's index/chain are per-pair scratch and excluded (see the
// package note above).
func (p *paired) SnapshotState(enc *stream.SnapEncoder) {
	p.left.Snapshot(enc)
	p.right.Snapshot(enc)
	p.pendLeft.snapshot(enc)
	p.pendRight.snapshot(enc)
}

// RestoreState implements Stateful. Time windows that disagree on their
// next edge are refused: pairs match by queue position, so such a blob
// would join window e with window e' for good. A refused blob may have
// been applied in part, so it leaves both sides empty, on the edge they
// shared before it.
func (p *paired) RestoreState(dec *stream.SnapDecoder) error {
	spec, edge := p.left.Spec(), p.left.NextEdge()
	err := p.restore(dec)
	if err != nil {
		*p = newPaired(spec)
		p.AdvanceTo(stream.Time(edge - 1))
	}
	return err
}

func (p *paired) restore(dec *stream.SnapDecoder) error {
	if err := p.left.Restore(dec); err != nil {
		return err
	}
	if err := p.right.Restore(dec); err != nil {
		return err
	}
	if p.left.Spec().Kind == stream.TimeWindow && p.left.NextEdge() != p.right.NextEdge() {
		return stream.ErrSnapCorrupt
	}
	if err := p.pendLeft.restore(dec); err != nil {
		return err
	}
	return p.pendRight.restore(dec)
}

// Reopen implements Reopener for both input windows.
func (p *paired) Reopen(now stream.Time) {
	p.left.Reopen(now)
	p.right.Reopen(now)
}

// --- PartialCov ---

// SnapshotState implements Stateful. Folded, the state is per open window
// the two SIC sums and the two columns.
func (p *PartialCov) SnapshotState(enc *stream.SnapEncoder) {
	if p.buf != nil {
		p.buf.SnapshotState(enc)
		return
	}
	p.snapshot(enc, encodeCov)
}

func encodeCov(enc *stream.SnapEncoder, w *openWin) {
	enc.F64(w.sic)
	enc.F64(w.sicY)
	for _, col := range [2][]float64{w.x, w.y} {
		enc.U32(uint32(len(col)))
		for _, v := range col {
			enc.F64(v)
		}
	}
}

// RestoreState implements Stateful.
func (p *PartialCov) RestoreState(dec *stream.SnapDecoder) error {
	if p.buf != nil {
		return p.buf.RestoreState(dec)
	}
	// After its edge an open window costs at least two SIC sums and two
	// column lengths.
	return p.restore(dec, 24, decodeCov)
}

func decodeCov(dec *stream.SnapDecoder, w *openWin) error {
	w.sic, w.sicY = dec.F64(), dec.F64()
	for _, col := range [2]*[]float64{&w.x, &w.y} {
		for n := dec.Count(8); n > 0; n-- {
			*col = append(*col, dec.F64())
		}
	}
	return dec.Err()
}

// Reopen implements Reopener.
func (p *PartialCov) Reopen(now stream.Time) {
	if p.buf != nil {
		p.buf.Reopen(now)
		return
	}
	p.skipTo(now)
}
