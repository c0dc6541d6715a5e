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
// bit-identical to scanning a stream.WindowBuffer. PartialCov needs the
// mean of a window before its comoment, so what it keeps per tuple is the
// one field it reads, not the tuple.
//
// Sliding and count windows still buffer: a tuple of a sliding window
// belongs to Range/Slide windows, and combining panes would reorder the
// float sums. Which path an operator takes is decided once, by the window
// spec its plan carries.

// tumbling reports whether operators over spec fold on push.
func tumbling(spec stream.WindowSpec) bool {
	return spec.Kind == stream.TimeWindow && spec.Slide == spec.Range
}

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
	sic  float64 // sum of the SIC of the tuples folded on port 0, in push order
	n    int     // tuples folded on port 0
	// acc is the scalar aggregate state (Agg, PartialAvg); groups the
	// per-key state (GroupAgg); sicY, x and y are PartialCov's: port 1's
	// SIC sum and, per port, the field its tuples are read for, in push
	// order. An operator uses one of the three.
	acc    acc
	groups groupTable
	sicY   float64
	x, y   []float64
}

func (w *openWin) reset() {
	w.edge, w.sic, w.n, w.acc = 0, 0, 0, acc{}
	w.groups.reset()
	w.sicY, w.x, w.y = 0, w.x[:0], w.y[:0]
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

// grid is the edge grid of a tumbling time window and the windows open on
// it: which window a timestamp falls in, the late-tuple rule, the emission
// cursor, AdvanceTo and Reopen, record recycling and snapshot framing —
// everything that is the same whatever a window folds. folding and
// PartialCov are built on it.
type grid struct {
	width    int64      // Range == Slide
	nextEdge int64      // next emission boundary, a multiple of width
	seen     bool       // a tuple was ever pushed
	open     []*openWin // ascending edge, every edge >= nextEdge
	free     []*openWin
}

func newGrid(width int64) grid { return grid{width: width, nextEdge: width} }

// run finds the open window the first tuple of in falls in and the
// number of leading tuples that share it, and folds their SIC and count
// into the window's sums for the port they arrived on. A tuple whose
// window has already closed is late: no future window covers it, so the
// run of late tuples is returned with a nil window and dropped.
func (g *grid) run(in []stream.Tuple, port int) (*openWin, int) {
	g.seen = true
	ts := int64(in[0].TS)
	// nextEdge >= width, so a tuple that is not late has ts >= 0.
	if oldest := g.nextEdge - g.width; ts < oldest || ts > math.MaxInt64-g.width {
		n := 1
		for n < len(in) && int64(in[n].TS) < oldest {
			n++
		}
		return nil, n
	}
	w := g.window(ts - ts%g.width + g.width)
	start, sicSum, n := w.edge-g.width, w.sic, 0
	if port != 0 {
		sicSum = w.sicY
	}
	for n < len(in) {
		t := &in[n]
		if ts := int64(t.TS); ts < start || ts >= w.edge {
			break
		}
		sicSum += t.SIC
		n++
	}
	if port != 0 {
		w.sicY = sicSum
	} else {
		w.sic, w.n = sicSum, w.n+n
	}
	return w, n
}

// window returns the open window closing at edge, opening it if needed.
// The list is short — the window being filled, and beside it the next one
// when a tick runs past an edge — and searched newest first.
func (g *grid) window(edge int64) *openWin {
	i := len(g.open)
	for i > 0 && g.open[i-1].edge >= edge {
		if i--; g.open[i].edge == edge {
			return g.open[i]
		}
	}
	var w *openWin
	if n := len(g.free); n > 0 {
		w, g.free = g.free[n-1], g.free[:n-1]
	} else {
		w = new(openWin)
	}
	w.edge = edge
	g.open = append(g.open, nil)
	copy(g.open[i+1:], g.open[i:])
	g.open[i] = w
	return w
}

// recycle returns the first k open windows to the free list.
func (g *grid) recycle(k int) {
	for _, w := range g.open[:k] {
		w.reset()
		g.free = append(g.free, w)
	}
	g.open = g.open[:copy(g.open, g.open[k:])]
}

// closing returns the window that closes at the cursor, nil when no tuple
// fell in it. Tick reads it, then moves on with advance, once per edge at
// or before now.
func (g *grid) closing() *openWin {
	if len(g.open) > 0 && g.open[0].edge == g.nextEdge {
		return g.open[0]
	}
	return nil
}

// advance moves the cursor one edge on and recycles the window that
// closed there.
func (g *grid) advance() {
	if g.closing() != nil {
		g.recycle(1)
	}
	g.nextEdge += g.width
}

// skipTo moves the emission cursor past now, keeping edge alignment, and
// discards the open windows it passes: they will never be emitted.
func (g *grid) skipTo(now stream.Time) {
	if g.nextEdge <= int64(now) {
		g.nextEdge += ((int64(now)-g.nextEdge)/g.width + 1) * g.width
	}
	k := 0
	for k < len(g.open) && g.open[k].edge < g.nextEdge {
		k++
	}
	g.recycle(k)
}

// advanceTo is skipTo for TimeAdvancer: like WindowBuffer.FastForward it
// is legal only before the first tuple, on whichever port.
func (g *grid) advanceTo(now stream.Time) {
	if !g.seen {
		g.skipTo(now)
	}
}

// snapshot writes the window spec and cursor as WindowBuffer frames them,
// then the open windows oldest first: the edge, and what win writes.
func (g *grid) snapshot(enc *stream.SnapEncoder, win func(*stream.SnapEncoder, *openWin)) {
	enc.U8(uint8(stream.TimeWindow))
	enc.I64(g.width)
	enc.I64(g.width)
	enc.I64(g.nextEdge)
	enc.Bool(g.seen)
	enc.U32(uint32(len(g.open)))
	for _, w := range g.open {
		enc.I64(w.edge)
		win(enc, w)
	}
}

// restore replaces the grid with a snapshot whose windows win reads,
// winBytes being the least one occupies after its edge. A snapshot of
// another window spec is rejected, as is one whose cursor or windows
// break the invariants Tick relies on. A snapshot refused by its header
// leaves the grid as it was; a failure past the header leaves no open
// window.
func (g *grid) restore(dec *stream.SnapDecoder, winBytes int, win func(*stream.SnapDecoder, *openWin) error) error {
	kind, rng, slide := stream.WindowKind(dec.U8()), dec.I64(), dec.I64()
	nextEdge, seen := dec.I64(), dec.Bool()
	n := dec.Count(8 + winBytes)
	if err := dec.Err(); err != nil {
		return err
	}
	if kind != stream.TimeWindow || rng != g.width || slide != g.width {
		return fmt.Errorf("operator: snapshot window %v/%d/%d incompatible with tumbling %d", kind, rng, slide, g.width)
	}
	if nextEdge < g.width || nextEdge%g.width != 0 {
		return stream.ErrSnapCorrupt
	}
	g.recycle(len(g.open))
	g.nextEdge, g.seen = nextEdge, seen
	for last := nextEdge - g.width; n > 0; n-- {
		edge := dec.I64()
		err := dec.Err()
		if err == nil && (edge <= last || edge%g.width != 0) {
			err = stream.ErrSnapCorrupt
		}
		if err == nil {
			err = win(dec, g.window(edge))
		}
		if err != nil {
			g.recycle(len(g.open))
			return err
		}
		last = edge
	}
	return nil
}

// folding is the base of the single-input windowed aggregates. Over a
// tumbling time window it folds on push, into the windows of a grid; over
// any other window it buffers through windowed and folds each closed
// window on the spot, so an operator's accumulate and finish serve both.
type folding struct {
	windowed         // the buffered path; win is nil while folds
	grid             // the folded path
	op       folder  // the operator built on this base
	out      arena   // emission arena, reset every Tick
	folds    bool    // tumbling time window: fold on push
	scratch  openWin // a buffered window's fold, and the empty window
}

// init selects the path from the window spec. It panics on an invalid
// spec like NewWindowBuffer: specs are validated when plans are built.
func (f *folding) init(spec stream.WindowSpec, op folder) {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	f.op = op
	if f.folds = tumbling(spec); f.folds {
		f.grid = newGrid(spec.Range)
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
		w, n := f.run(in, 0)
		if w != nil {
			f.op.accumulate(w, in[:n])
		}
		in = in[n:]
	}
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
		w := f.closing()
		if w == nil {
			w = &f.scratch
		}
		f.op.finish(w, stream.Time(f.nextEdge), emit)
		f.advance()
	}
}

// AdvanceTo implements TimeAdvancer.
func (f *folding) AdvanceTo(now stream.Time) {
	if !f.folds {
		f.windowed.AdvanceTo(now)
		return
	}
	f.advanceTo(now)
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
// whole cross-tick state: per open window its SIC sum, its tuple count
// and the operator's aggregate.
func (f *folding) SnapshotState(enc *stream.SnapEncoder) {
	if !f.folds {
		f.windowed.SnapshotState(enc)
		return
	}
	f.snapshot(enc, f.encodeWin)
}

func (f *folding) encodeWin(enc *stream.SnapEncoder, w *openWin) {
	enc.F64(w.sic)
	enc.I64(int64(w.n))
	f.op.encode(enc, w)
}

// RestoreState implements Stateful.
func (f *folding) RestoreState(dec *stream.SnapDecoder) error {
	if !f.folds {
		return f.windowed.RestoreState(dec)
	}
	// After its edge an open window costs at least SIC + count.
	return f.restore(dec, 16, f.decodeWin)
}

func (f *folding) decodeWin(dec *stream.SnapDecoder, w *openWin) error {
	sicSum, count := dec.F64(), dec.I64()
	if err := dec.Err(); err != nil {
		return err
	}
	if count < 0 {
		return stream.ErrSnapCorrupt
	}
	w.sic, w.n = sicSum, int(count)
	return f.op.decode(dec, w)
}
