package stream

import (
	"fmt"
	"math"
)

// WindowKind selects between time-based and count-based windows.
type WindowKind int

const (
	// TimeWindow groups tuples by logical timestamp ranges.
	TimeWindow WindowKind = iota
	// CountWindow groups tuples by arrival count.
	CountWindow
)

// WindowSpec describes the window that atomically emits tuples for an
// operator to process (§3: "for each operator o ∈ O, there exists a time
// or count window that atomically emits tuples for processing by o").
//
// For time windows Range and Slide are Durations in milliseconds; for
// count windows they are tuple counts. Slide == Range yields a tumbling
// window; Slide < Range a sliding window.
type WindowSpec struct {
	Kind  WindowKind
	Range int64
	Slide int64
}

// TumblingTime returns a tumbling time window of the given range.
func TumblingTime(r Duration) WindowSpec {
	return WindowSpec{Kind: TimeWindow, Range: int64(r), Slide: int64(r)}
}

// SlidingTime returns a sliding time window.
func SlidingTime(r, s Duration) WindowSpec {
	return WindowSpec{Kind: TimeWindow, Range: int64(r), Slide: int64(s)}
}

// TumblingCount returns a tumbling count window of n tuples.
func TumblingCount(n int) WindowSpec {
	return WindowSpec{Kind: CountWindow, Range: int64(n), Slide: int64(n)}
}

// Validate reports whether the spec is well formed.
func (w WindowSpec) Validate() error {
	if w.Range <= 0 {
		return fmt.Errorf("stream: window range must be positive, got %d", w.Range)
	}
	if w.Slide <= 0 || w.Slide > w.Range {
		return fmt.Errorf("stream: window slide must be in (0, range], got slide=%d range=%d", w.Slide, w.Range)
	}
	return nil
}

// String renders the spec in CQL-like syntax.
func (w WindowSpec) String() string {
	switch w.Kind {
	case TimeWindow:
		if w.Slide == w.Range {
			return fmt.Sprintf("[Range %g sec]", Duration(w.Range).Seconds())
		}
		return fmt.Sprintf("[Range %g sec Slide %g sec]", Duration(w.Range).Seconds(), Duration(w.Slide).Seconds())
	default:
		if w.Slide == w.Range {
			return fmt.Sprintf("[Rows %d]", w.Range)
		}
		return fmt.Sprintf("[Rows %d Slide %d]", w.Range, w.Slide)
	}
}

// WindowBuffer accumulates input tuples and emits window contents
// atomically. Operators own one buffer per input port; calling Tick
// advances logical time and returns the closed windows, oldest first.
//
// Time windows align to slide boundaries: the window covering
// [e-Range, e) closes at every e that is a multiple of Slide. Count
// windows close every Slide tuples and cover the last Range tuples.
//
// Time windows do not assume global timestamp order: batches from
// different sources interleave within a tick, so the buffer is only
// approximately sorted. The engine guarantees that all tuples with
// TS < e are pushed before Tick(e) is called. The buffer tracks the
// bounds of its timestamps, so the common case — the closing window
// covers everything buffered, as every in-order tumbling window does — is
// emitted in place and retired by truncation; only a window that covers
// part of the buffer (sliding, out-of-order or late tuples) is collected
// by a scan and retired by compaction.
//
// The buffer owns its tuples' payloads: Push copies every V into a
// window-owned arena. Input tuples may therefore alias pooled batch
// storage that is recycled as soon as Push returns — window contents
// survive the batch that delivered them (DESIGN.md §9). Partial retires
// compact surviving payloads into the spare arena and swap, so
// steady-state windows never allocate.
type WindowBuffer struct {
	spec WindowSpec
	buf  []Tuple
	// vals is the payload arena every buffered tuple's V aliases; spare
	// is the compaction target swapped in when part of the buffer retires.
	vals  []float64
	spare []float64
	// nextEdge is the next emission boundary: a timestamp for time
	// windows, a cumulative tuple count for count windows.
	nextEdge int64
	seen     int64 // total tuples pushed (count windows)
	// minTS and maxTS are the least and greatest buffered timestamp,
	// meaningful while buf is non-empty and read by time windows only.
	// They are derived from buf: Push and retireBelow maintain them and
	// Restore rebuilds them.
	minTS, maxTS int64
	scratch      []Tuple // emission buffer of the scan path
}

// NewWindowBuffer builds a buffer for the given spec. It panics on an
// invalid spec: specs are validated when plans are built.
func NewWindowBuffer(spec WindowSpec) *WindowBuffer {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	return &WindowBuffer{spec: spec, nextEdge: spec.Slide}
}

// Spec returns the window specification.
func (wb *WindowBuffer) Spec() WindowSpec { return wb.spec }

// Len reports the number of buffered tuples.
func (wb *WindowBuffer) Len() int { return len(wb.buf) }

// Push appends input tuples to the buffer, copying their payloads into
// the window-owned arena: one bulk copy of the tuples, then one pass that
// re-points each V at its copy. Tuples must arrive in timestamp order for
// time windows. The input tuples (and whatever their V slices alias) may
// be recycled freely once Push returns.
func (wb *WindowBuffer) Push(in []Tuple) {
	if len(in) == 0 {
		return
	}
	if len(wb.buf) == 0 {
		wb.minTS, wb.maxTS = math.MaxInt64, math.MinInt64
	}
	base := len(wb.buf)
	wb.buf = append(wb.buf, in...)
	added := wb.buf[base:]
	vals, lo, hi := wb.vals, wb.minTS, wb.maxTS
	for i := range added {
		t := &added[i]
		if n := len(t.V); n > 0 {
			off := len(vals)
			if off+n > cap(vals) {
				// Make room for the rest of the batch at this width, at
				// least doubling. Rows handed out before the move keep the
				// old array alive until their tuples retire.
				grown := make([]float64, off, max(off+(len(added)-i)*n, 2*cap(vals)))
				copy(grown, vals)
				vals = grown
			}
			row := vals[off : off+n : off+n]
			for j, v := range t.V {
				row[j] = v
			}
			vals, t.V = vals[:off+n], row
		}
		lo, hi = min(lo, int64(t.TS)), max(hi, int64(t.TS))
	}
	wb.vals, wb.minTS, wb.maxTS = vals, lo, hi
	wb.seen += int64(len(in))
}

// compact copies the surviving tuples' payloads into the spare arena and
// swaps arenas, releasing the retired tuples' storage for reuse.
func (wb *WindowBuffer) compact(kept []Tuple) {
	wb.spare = wb.spare[:0]
	for i := range kept {
		if len(kept[i].V) > 0 {
			off := len(wb.spare)
			wb.spare = append(wb.spare, kept[i].V...)
			kept[i].V = wb.spare[off:len(wb.spare):len(wb.spare)]
		}
	}
	wb.buf = kept
	wb.vals, wb.spare = wb.spare, wb.vals
}

// truncate retires everything buffered at once: no survivor to compact.
func (wb *WindowBuffer) truncate() {
	wb.buf, wb.vals = wb.buf[:0], wb.vals[:0]
}

// retireBelow drops the tuples with TS < ts, which no future window can
// cover. The bounds decide the two cheap cases — nothing retires, or the
// whole buffer does — and only a partial retire scans and compacts.
func (wb *WindowBuffer) retireBelow(ts int64) {
	switch {
	case len(wb.buf) == 0 || wb.minTS >= ts:
		return
	case wb.maxTS < ts:
		wb.truncate()
		return
	}
	kept := wb.buf[:0]
	lo := int64(math.MaxInt64)
	for i := range wb.buf {
		if t := int64(wb.buf[i].TS); t >= ts {
			kept = append(kept, wb.buf[i])
			lo = min(lo, t)
		}
	}
	wb.minTS = lo
	wb.compact(kept)
}

// FastForward advances the next emission boundary past now without
// closing the intervening (necessarily empty) windows. It is only legal
// on a buffer that has never seen a tuple: a fragment executor deployed
// mid-run — failure recovery, a live query submit — would otherwise
// replay every empty window edge since time zero on its first tick.
// Slide alignment is preserved, so the first real window closes at the
// same absolute edge it would have closed at anyway.
func (wb *WindowBuffer) FastForward(now Time) {
	if wb.spec.Kind != TimeWindow || !wb.Untouched() {
		return
	}
	if wb.nextEdge <= int64(now) {
		steps := (int64(now)-wb.nextEdge)/wb.spec.Slide + 1
		wb.nextEdge += steps * wb.spec.Slide
	}
}

// Untouched reports whether the buffer has never seen a tuple — the
// condition FastForward needs. An operator with one buffer per port asks
// it of every port first, so its cursors move together or not at all.
func (wb *WindowBuffer) Untouched() bool { return wb.seen == 0 && len(wb.buf) == 0 }

// NextEdge reports the next emission boundary: a timestamp for a time
// window, a cumulative tuple count for a count window.
func (wb *WindowBuffer) NextEdge() int64 { return wb.nextEdge }

// Snapshot writes the buffer's full state — spec, emission cursor and
// buffered tuples with deep payload copies — so a re-placed fragment can
// resume from a warm window (PR 8). The arena-backed layout makes this a
// contiguous copy: no per-tuple pointers are chased.
func (wb *WindowBuffer) Snapshot(enc *SnapEncoder) {
	enc.U8(uint8(wb.spec.Kind))
	enc.I64(wb.spec.Range)
	enc.I64(wb.spec.Slide)
	enc.I64(wb.nextEdge)
	enc.I64(wb.seen)
	enc.TupleSlice(wb.buf)
}

// Restore replaces the buffer's state with a snapshot. The snapshot's
// window spec must match the buffer's: a mismatch means the snapshot
// belongs to a differently-planned fragment and restoring it would emit
// at wrong edges, so Restore rejects it.
func (wb *WindowBuffer) Restore(dec *SnapDecoder) error {
	kind := WindowKind(dec.U8())
	rng := dec.I64()
	slide := dec.I64()
	nextEdge := dec.I64()
	seen := dec.I64()
	if err := dec.Err(); err != nil {
		return err
	}
	if kind != wb.spec.Kind || rng != wb.spec.Range || slide != wb.spec.Slide {
		return fmt.Errorf("stream: snapshot window %v/%d/%d incompatible with buffer %v/%d/%d",
			kind, rng, slide, wb.spec.Kind, wb.spec.Range, wb.spec.Slide)
	}
	buf, vals := dec.TupleSlice(wb.buf[:0], wb.vals[:0])
	if err := dec.Err(); err != nil {
		return err
	}
	wb.buf, wb.vals = buf, vals
	wb.nextEdge, wb.seen = nextEdge, seen
	wb.minTS, wb.maxTS = math.MaxInt64, math.MinInt64
	for i := range buf {
		ts := int64(buf[i].TS)
		wb.minTS, wb.maxTS = min(wb.minTS, ts), max(wb.maxTS, ts)
	}
	return nil
}

// Reopen advances the next emission boundary past now without closing the
// intervening windows, preserving slide alignment. It is the restore-time
// counterpart of FastForward, legal on a non-empty buffer: a restored
// window must not replay edges between the checkpoint and the restore,
// because the engine-side result accumulator survived the failure and
// would double-count their SIC. Tuples below the reopened window range
// simply stop being collected and retire after the first emission.
func (wb *WindowBuffer) Reopen(now Time) {
	if wb.spec.Kind != TimeWindow {
		return
	}
	if wb.nextEdge <= int64(now) {
		steps := (int64(now)-wb.nextEdge)/wb.spec.Slide + 1
		wb.nextEdge += steps * wb.spec.Slide
	}
}

// Tick advances the buffer to logical time now and invokes emit once per
// closed window with that window's contents. The emitted slice may be the
// live buffer itself: it is valid only during the call, and emit must not
// modify it or push into the buffer.
//
// For tumbling windows each tuple appears in exactly one emission; for
// sliding windows a tuple appears in every window that covers it, and the
// per-window SIC division of Eq. (3) is handled by the operator (§6:
// "divide the SIC value of an input tuple across all its derived tuples
// per slide").
func (wb *WindowBuffer) Tick(now Time, emit func(win []Tuple, closeAt Time)) {
	switch wb.spec.Kind {
	case TimeWindow:
		for wb.nextEdge <= int64(now) {
			edge := wb.nextEdge
			start := edge - wb.spec.Range
			// The window holds the tuples with start <= TS < edge.
			switch {
			case len(wb.buf) == 0 || wb.maxTS < start || wb.minTS >= edge:
				emit(nil, Time(edge))
			case wb.minTS >= start && wb.maxTS < edge:
				emit(wb.buf, Time(edge))
			default:
				wb.scratch = wb.scratch[:0]
				for i := range wb.buf {
					if ts := int64(wb.buf[i].TS); ts >= start && ts < edge {
						wb.scratch = append(wb.scratch, wb.buf[i])
					}
				}
				emit(wb.scratch, Time(edge))
			}
			// Tuples below the next window's start can no longer appear
			// in any window.
			wb.retireBelow(start + wb.spec.Slide)
			wb.nextEdge += wb.spec.Slide
		}
	case CountWindow:
		for wb.seen >= wb.nextEdge {
			n := len(wb.buf)
			// Window covers the Range most recent tuples at this edge.
			consumed := wb.nextEdge - (wb.seen - int64(n))
			hi := int(consumed)
			lo := hi - int(wb.spec.Range)
			if lo < 0 {
				lo = 0
			}
			emit(wb.buf[lo:hi], wb.buf[hi-1].TS)
			retire := hi - int(wb.spec.Range) + int(wb.spec.Slide)
			if retire >= n {
				wb.truncate()
			} else if retire > 0 {
				wb.compact(append(wb.buf[:0], wb.buf[retire:]...))
			}
			wb.nextEdge += wb.spec.Slide
		}
	}
}
