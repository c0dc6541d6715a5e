package operator

import (
	"repro/internal/sic"
	"repro/internal/stream"
)

// Join is a windowed equi-join over two input streams, as used by the
// TOP-5 query (Table 1: "Where ... AllSrcCPU.id = AllSrcMem.id"). Both
// inputs are buffered in time-aligned windows; when a window pair closes,
// matching tuples are joined and emitted atomically. The output schema is
// the left tuple's fields followed by the right tuple's fields.
//
// SIC: the consumed SIC of both windows is redistributed over the joined
// outputs (Eq. 3). A window pair that produces no matches loses its SIC —
// the join discarded all derived information for that window.
type Join struct {
	paired
	out      arena
	leftKey  int
	rightKey int

	// index/chain are the per-pair hash index scratch: index maps a key to
	// the first right-tuple index of its bucket, chain links the rest.
	index map[int64]int32
	chain []int32
}

// paired is the base of the two-input operators that need both windows'
// tuples at the edge: Join, and PartialCov over a window it cannot fold.
// Each port buffers in its own WindowBuffer over the same spec; closed
// windows wait in a capture store until the other side has closed the
// same edge, and are then handed over pairwise, oldest first.
type paired struct {
	left, right *stream.WindowBuffer
	// pendLeft/Right own deep copies of the captured tuples (window
	// emissions alias buffer memory that is compacted away), recycling
	// their storage once both queues drain.
	pendLeft, pendRight winStore
	sicShare            float64
}

func newPaired(spec stream.WindowSpec) paired {
	return paired{
		left:     stream.NewWindowBuffer(spec),
		right:    stream.NewWindowBuffer(spec),
		sicShare: float64(spec.Slide) / float64(spec.Range),
	}
}

// InPorts implements Operator.
func (p *paired) InPorts() int { return 2 }

// Push implements Operator.
func (p *paired) Push(port int, in []stream.Tuple) {
	if port == 0 {
		p.left.Push(in)
	} else {
		p.right.Push(in)
	}
}

// ConsumesOnPush implements Consumer: both window buffers copy.
func (p *paired) ConsumesOnPush() {}

// AdvanceTo implements TimeAdvancer for both input windows, or neither:
// FastForward is a no-op on a side that has seen a tuple, and cursors
// that part ways would pair window e with window e' from then on.
func (p *paired) AdvanceTo(now stream.Time) {
	if p.left.Untouched() && p.right.Untouched() {
		p.left.FastForward(now)
		p.right.FastForward(now)
	}
}

// pairs closes both sides' windows up to now and calls fn per pair of
// windows that closed at the same edge, with the SIC mass the pair
// consumes. Edges advance identically on both sides (same spec, cursors
// moved together), so pairs align one-to-one.
func (p *paired) pairs(now stream.Time, fn func(left, right []stream.Tuple, at stream.Time, sicMass float64)) {
	p.left.Tick(now, func(win []stream.Tuple, at stream.Time) {
		p.pendLeft.capture(win, at, p.sicShare)
	})
	p.right.Tick(now, func(win []stream.Tuple, at stream.Time) {
		p.pendRight.capture(win, at, p.sicShare)
	})
	for p.pendLeft.len() > 0 && p.pendRight.len() > 0 {
		lt, at, lsic := p.pendLeft.pop()
		rt, _, rsic := p.pendRight.pop()
		fn(lt, rt, at, lsic+rsic)
	}
}

// winStore owns captured closed windows awaiting pairing: tuples and
// payloads are deep-copied into store arenas, and the storage is reused
// once every captured window has been consumed (the steady-state case —
// both sides close the same edges every tick).
type winStore struct {
	tuples []stream.Tuple
	vals   []float64
	wins   []winRec
	head   int
}

type winRec struct {
	start, end int
	at         stream.Time
	sic        float64
}

// capture deep-copies a closed window into the store with its consumed
// SIC mass.
func (ws *winStore) capture(win []stream.Tuple, at stream.Time, share float64) {
	start := len(ws.tuples)
	var total float64
	for i := range win {
		t := win[i]
		total += t.SIC
		if len(t.V) > 0 {
			off := len(ws.vals)
			ws.vals = append(ws.vals, t.V...)
			t.V = ws.vals[off:len(ws.vals):len(ws.vals)]
		}
		ws.tuples = append(ws.tuples, t)
	}
	ws.wins = append(ws.wins, winRec{start: start, end: len(ws.tuples), at: at, sic: total * share})
}

// len reports the number of unconsumed captured windows.
func (ws *winStore) len() int { return len(ws.wins) - ws.head }

// pop consumes the oldest captured window. The returned view stays valid
// until the next capture (the store only truncates, never overwrites,
// until new windows arrive).
func (ws *winStore) pop() (tuples []stream.Tuple, at stream.Time, sicMass float64) {
	rec := ws.wins[ws.head]
	ws.head++
	if ws.head == len(ws.wins) {
		ws.wins = ws.wins[:0]
		ws.tuples = ws.tuples[:0]
		ws.vals = ws.vals[:0]
		ws.head = 0
	}
	return ws.tuples[rec.start:rec.end:rec.end], rec.at, rec.sic
}

// NewJoin builds an equi-join; both inputs use the same window spec, and
// keys name the join fields on each side.
func NewJoin(spec stream.WindowSpec, leftKey, rightKey int) *Join {
	return &Join{
		paired:   newPaired(spec),
		leftKey:  leftKey,
		rightKey: rightKey,
		index:    make(map[int64]int32),
	}
}

// Name implements Operator.
func (j *Join) Name() string { return "join" }

// Tick implements Operator.
func (j *Join) Tick(now stream.Time, emit func([]stream.Tuple)) {
	j.out.reset()
	j.pairs(now, func(lts, rts []stream.Tuple, _ stream.Time, sicMass float64) {
		j.joinPair(lts, rts, sicMass, emit)
	})
}

func (j *Join) joinPair(lts, rts []stream.Tuple, sicMass float64, emit func([]stream.Tuple)) {
	if len(lts) == 0 && len(rts) == 0 {
		return
	}
	// Hash the right side by key. Building the chains in reverse keeps
	// bucket traversal in right-tuple order, matching the append-based
	// index this replaces.
	clear(j.index)
	j.chain = j.chain[:0]
	for range rts {
		j.chain = append(j.chain, -1)
	}
	for i := len(rts) - 1; i >= 0; i-- {
		k := int64(rts[i].V[j.rightKey])
		j.chain[i] = lookupOr(j.index, k, -1)
		j.index[k] = int32(i)
	}
	m := j.out.mark()
	for i := range lts {
		lt := &lts[i]
		k := int64(lt.V[j.leftKey])
		for ri := lookupOr(j.index, k, -1); ri >= 0; ri = j.chain[ri] {
			rt := &rts[ri]
			off := len(j.out.vals)
			j.out.vals = append(j.out.vals, lt.V...)
			j.out.vals = append(j.out.vals, rt.V...)
			v := j.out.vals[off:len(j.out.vals):len(j.out.vals)]
			ts := lt.TS
			if rt.TS > ts {
				ts = rt.TS
			}
			j.out.add(stream.Tuple{TS: ts, V: v})
		}
	}
	out := j.out.since(m)
	if len(out) == 0 {
		return
	}
	per := sic.PropagateSIC(sicMass, len(out))
	for i := range out {
		out[i].SIC = per
	}
	emit(out)
}

// lookupOr reads a map entry with a default, without a two-value comma-ok
// temporary at every call site.
func lookupOr(m map[int64]int32, k int64, def int32) int32 {
	if v, ok := m[k]; ok {
		return v
	}
	return def
}
