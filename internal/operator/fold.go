package operator

import (
	"fmt"
	"math"

	"repro/internal/stream"
)

// Fold on push. An aggregate over a tumbling time window needs none of
// the window's tuples at the edge: Eq. (3) asks for the sum of the input
// SIC and the number of outputs, and the aggregate itself is a handful of
// running values. Agg, GroupAgg and PartialAvg therefore keep, per open
// window, an accumulator instead of a second of tuples: Push folds each
// tuple into the window its timestamp falls in, Tick emits from the
// accumulator at each closed edge. Every sum is accumulated in push
// order — the order the buffered scan visits a window in — so results are
// bit-identical to scanning a stream.WindowBuffer.
//
// Sliding and count windows still buffer: a tuple of a sliding window
// belongs to Range/Slide windows, and combining panes would reorder the
// float sums. Which path an operator takes is decided once, by the window
// spec its plan carries.

// folder is what an operator built on folding supplies.
type folder interface {
	// accumulate folds a run of one window's tuples, in push order, into
	// the window's aggregate state. The window's SIC sum and tuple count
	// are the base's business.
	accumulate(w *openWin, in []stream.Tuple)
	// finish emits the result of a closed window through emit, out of the
	// base's arena. w.n == 0 means no tuple fell in the window.
	finish(w *openWin, edge stream.Time, emit func([]stream.Tuple))
	// encode and decode move the aggregate state of one open window
	// through the snapshot codec.
	encode(enc *stream.SnapEncoder, w *openWin)
	decode(dec *stream.SnapDecoder, w *openWin) error
}

// openWin is the folded state of one window [edge-Range, edge).
type openWin struct {
	edge int64
	sic  float64 // sum of the folded tuples' SIC, in push order
	n    int     // tuples folded
	// acc is the scalar aggregate state (Agg, PartialAvg); groups the
	// per-key state (GroupAgg). An operator uses one of them.
	acc    acc
	groups groupTable
}

func (w *openWin) reset() {
	w.edge, w.sic, w.n, w.acc = 0, 0, 0, acc{}
	w.groups.reset()
}

// acc accumulates one aggregate's running values.
type acc struct {
	sum, max, min float64
	n             int
}

func (a *acc) add(v float64) {
	a.sum += v
	if a.n == 0 || v > a.max {
		a.max = v
	}
	if a.n == 0 || v < a.min {
		a.min = v
	}
	a.n++
}

// value reads the aggregate of the given kind; AVG, MAX and MIN are
// undefined while n == 0.
func (a *acc) value(kind AggKind) float64 {
	switch kind {
	case AggAvg:
		return a.sum / float64(a.n)
	case AggMax:
		return a.max
	case AggMin:
		return a.min
	case AggSum:
		return a.sum
	default:
		return float64(a.n)
	}
}

func (a *acc) encode(enc *stream.SnapEncoder) {
	enc.F64(a.sum)
	enc.F64(a.max)
	enc.F64(a.min)
	enc.I64(int64(a.n))
}

func (a *acc) decode(dec *stream.SnapDecoder) {
	a.sum, a.max, a.min, a.n = dec.F64(), dec.F64(), dec.F64(), int(dec.I64())
}

// folding is the base of the single-input windowed aggregates. Over a
// tumbling time window it keeps the short list of open windows and
// everything about them that is the same for every aggregate — which
// window a timestamp falls in, the late-tuple rule, the emission cursor,
// AdvanceTo and Reopen, record recycling, snapshot framing; over any
// other window it buffers through windowed and folds each closed window
// on the spot, so an operator's accumulate and finish serve both.
type folding struct {
	windowed            // the buffered path; win is nil while folds
	op       folder     // the operator built on this base
	out      arena      // emission arena, reset every Tick
	folds    bool       // tumbling time window: fold on push
	width    int64      // Range == Slide
	nextEdge int64      // next emission boundary, a multiple of width
	seen     bool       // a tuple was ever pushed
	open     []*openWin // ascending edge, every edge >= nextEdge
	free     []*openWin
	scratch  openWin // a buffered window's fold, and the empty window
}

// init selects the path from the window spec. It panics on an invalid
// spec like NewWindowBuffer: specs are validated when plans are built.
func (f *folding) init(spec stream.WindowSpec, op folder) {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	f.op = op
	if spec.Kind == stream.TimeWindow && spec.Slide == spec.Range {
		f.folds, f.width, f.nextEdge = true, spec.Range, spec.Range
	} else {
		f.windowed = newWindowed(spec)
	}
}

// Push implements Operator.
func (f *folding) Push(port int, in []stream.Tuple) {
	if !f.folds {
		f.win.Push(in)
		return
	}
	for len(in) > 0 {
		f.seen = true
		w, n := f.run(in)
		if w != nil {
			f.op.accumulate(w, in[:n])
		}
		in = in[n:]
	}
}

// run finds the open window the first tuple of in falls in and the
// number of leading tuples that share it, and folds their SIC and count
// into the window. A tuple whose window has already closed is late: no
// future window covers it, so the run of late tuples is returned with a
// nil window and dropped.
func (f *folding) run(in []stream.Tuple) (*openWin, int) {
	ts := int64(in[0].TS)
	// nextEdge >= width, so a tuple that is not late has ts >= 0.
	if oldest := f.nextEdge - f.width; ts < oldest || ts > math.MaxInt64-f.width {
		n := 1
		for n < len(in) && int64(in[n].TS) < oldest {
			n++
		}
		return nil, n
	}
	w := f.window(ts - ts%f.width + f.width)
	start, sicSum, n := w.edge-f.width, w.sic, 0
	for n < len(in) {
		t := &in[n]
		if ts := int64(t.TS); ts < start || ts >= w.edge {
			break
		}
		sicSum += t.SIC
		n++
	}
	w.sic = sicSum
	w.n += n
	return w, n
}

// window returns the open window closing at edge, opening it if needed.
// The list is short — the window being filled, and beside it the next one
// when a tick runs past an edge — and searched newest first.
func (f *folding) window(edge int64) *openWin {
	i := len(f.open)
	for i > 0 && f.open[i-1].edge >= edge {
		if i--; f.open[i].edge == edge {
			return f.open[i]
		}
	}
	var w *openWin
	if n := len(f.free); n > 0 {
		w, f.free = f.free[n-1], f.free[:n-1]
	} else {
		w = new(openWin)
	}
	w.edge = edge
	f.open = append(f.open, nil)
	copy(f.open[i+1:], f.open[i:])
	f.open[i] = w
	return w
}

// recycle returns the first k open windows to the free list.
func (f *folding) recycle(k int) {
	for _, w := range f.open[:k] {
		w.reset()
		f.free = append(f.free, w)
	}
	f.open = f.open[:copy(f.open, f.open[k:])]
}

// Tick implements Operator: one finish per window edge at or before now,
// oldest first. An edge no tuple fell before still finishes, on an empty
// window, because COUNT answers it.
func (f *folding) Tick(now stream.Time, emit func([]stream.Tuple)) {
	f.out.reset()
	if !f.folds {
		f.win.Tick(now, func(win []stream.Tuple, closeAt stream.Time) {
			w := &f.scratch
			w.reset()
			w.sic, w.n = f.consumedSIC(win), len(win)
			f.op.accumulate(w, win)
			f.op.finish(w, closeAt, emit)
		})
		return
	}
	for f.nextEdge <= int64(now) {
		if len(f.open) > 0 && f.open[0].edge == f.nextEdge {
			f.op.finish(f.open[0], stream.Time(f.nextEdge), emit)
			f.recycle(1)
		} else {
			f.op.finish(&f.scratch, stream.Time(f.nextEdge), emit)
		}
		f.nextEdge += f.width
	}
}

// skipTo moves the emission cursor past now, keeping edge alignment, and
// discards the open windows it passes: they will never be emitted.
func (f *folding) skipTo(now stream.Time) {
	if f.nextEdge <= int64(now) {
		f.nextEdge += ((int64(now)-f.nextEdge)/f.width + 1) * f.width
	}
	k := 0
	for k < len(f.open) && f.open[k].edge < f.nextEdge {
		k++
	}
	f.recycle(k)
}

// AdvanceTo implements TimeAdvancer. Like WindowBuffer.FastForward it is
// legal only before the first tuple.
func (f *folding) AdvanceTo(now stream.Time) {
	switch {
	case !f.folds:
		f.windowed.AdvanceTo(now)
	case !f.seen:
		f.skipTo(now)
	}
}

// Reopen implements Reopener.
func (f *folding) Reopen(now stream.Time) {
	if !f.folds {
		f.windowed.Reopen(now)
		return
	}
	f.skipTo(now)
}

// SnapshotState implements Stateful. The folded state is the operator's
// whole cross-tick state: the window spec and cursor as WindowBuffer
// frames them, then the open windows oldest first.
func (f *folding) SnapshotState(enc *stream.SnapEncoder) {
	if !f.folds {
		f.windowed.SnapshotState(enc)
		return
	}
	enc.U8(uint8(stream.TimeWindow))
	enc.I64(f.width)
	enc.I64(f.width)
	enc.I64(f.nextEdge)
	enc.Bool(f.seen)
	enc.U32(uint32(len(f.open)))
	for _, w := range f.open {
		enc.I64(w.edge)
		enc.F64(w.sic)
		enc.I64(int64(w.n))
		f.op.encode(enc, w)
	}
}

// RestoreState implements Stateful. A snapshot of another window spec is
// rejected, as is one whose cursor or windows break the invariants Tick
// relies on. A snapshot refused by its header leaves the operator as it
// was; a failure past the header leaves no open window.
func (f *folding) RestoreState(dec *stream.SnapDecoder) error {
	if !f.folds {
		return f.windowed.RestoreState(dec)
	}
	kind, rng, slide := stream.WindowKind(dec.U8()), dec.I64(), dec.I64()
	nextEdge, seen := dec.I64(), dec.Bool()
	// An open window costs at least edge + SIC + count.
	n := dec.Count(24)
	if err := dec.Err(); err != nil {
		return err
	}
	if kind != stream.TimeWindow || rng != f.width || slide != f.width {
		return fmt.Errorf("operator: snapshot window %v/%d/%d incompatible with tumbling %d", kind, rng, slide, f.width)
	}
	if nextEdge < f.width || nextEdge%f.width != 0 {
		return stream.ErrSnapCorrupt
	}
	f.recycle(len(f.open))
	f.nextEdge, f.seen = nextEdge, seen
	err := f.restoreWindows(dec, n)
	if err != nil {
		f.recycle(len(f.open))
	}
	return err
}

// restoreWindows reads n open windows, oldest first.
func (f *folding) restoreWindows(dec *stream.SnapDecoder, n int) error {
	for last := f.nextEdge - f.width; n > 0; n-- {
		edge, sicSum, count := dec.I64(), dec.F64(), dec.I64()
		if err := dec.Err(); err != nil {
			return err
		}
		if edge <= last || edge%f.width != 0 || count < 0 {
			return stream.ErrSnapCorrupt
		}
		w := f.window(edge)
		w.sic, w.n = sicSum, int(count)
		if err := f.op.decode(dec, w); err != nil {
			return err
		}
		last = edge
	}
	return nil
}
