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

// --- windowed base (Agg, GroupAgg, PartialAvg, AvgMerge, CovMerge, TopK, UDF) ---

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

// --- PartialCov (two windows + two capture stores) ---

// SnapshotState implements Stateful.
func (p *PartialCov) SnapshotState(enc *stream.SnapEncoder) {
	p.x.Snapshot(enc)
	p.y.Snapshot(enc)
	p.pendX.snapshot(enc)
	p.pendY.snapshot(enc)
}

// RestoreState implements Stateful.
func (p *PartialCov) RestoreState(dec *stream.SnapDecoder) error {
	if err := p.x.Restore(dec); err != nil {
		return err
	}
	if err := p.y.Restore(dec); err != nil {
		return err
	}
	if err := p.pendX.restore(dec); err != nil {
		return err
	}
	return p.pendY.restore(dec)
}

// Reopen implements Reopener for both input windows.
func (p *PartialCov) Reopen(now stream.Time) {
	p.x.Reopen(now)
	p.y.Reopen(now)
}

// --- Join (two windows + two capture stores) ---

// SnapshotState implements Stateful. index/chain are per-pair scratch and
// excluded (see the package note above).
func (j *Join) SnapshotState(enc *stream.SnapEncoder) {
	j.left.Snapshot(enc)
	j.right.Snapshot(enc)
	j.pendingLeft.snapshot(enc)
	j.pendingRight.snapshot(enc)
}

// RestoreState implements Stateful.
func (j *Join) RestoreState(dec *stream.SnapDecoder) error {
	if err := j.left.Restore(dec); err != nil {
		return err
	}
	if err := j.right.Restore(dec); err != nil {
		return err
	}
	if err := j.pendingLeft.restore(dec); err != nil {
		return err
	}
	return j.pendingRight.restore(dec)
}

// Reopen implements Reopener for both input windows.
func (j *Join) Reopen(now stream.Time) {
	j.left.Reopen(now)
	j.right.Reopen(now)
}
