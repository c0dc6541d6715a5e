package operator

import (
	"math"

	"repro/internal/sic"
	"repro/internal/stream"
)

// windowed is the base for single-input windowed operators that need
// their window's tuples at the edge (the aggregates that do not are built
// on folding, which falls back to this base). It owns a
// WindowBuffer and tracks the SIC share each emission consumes: for
// tumbling windows every buffered tuple belongs to exactly one window;
// for sliding windows a tuple appears in range/slide windows, so each
// emission consumes slide/range of its SIC (§6: "we also provide a
// practical way to divide the SIC value of an input tuple across all its
// derived tuples per slide").
type windowed struct {
	win      *stream.WindowBuffer
	sicShare float64
}

func newWindowed(spec stream.WindowSpec) windowed {
	return windowed{
		win:      stream.NewWindowBuffer(spec),
		sicShare: float64(spec.Slide) / float64(spec.Range),
	}
}

func (w *windowed) InPorts() int { return 1 }

func (w *windowed) Push(port int, in []stream.Tuple) { w.win.Push(in) }

// ConsumesOnPush implements Consumer: the buffer copies what it keeps. It
// serves folding too, whose folded path keeps only running values.
func (w *windowed) ConsumesOnPush() {}

// AdvanceTo implements TimeAdvancer: a freshly instantiated windowed
// operator skips straight to the deployment instant instead of replaying
// empty window edges since time zero.
func (w *windowed) AdvanceTo(now stream.Time) { w.win.FastForward(now) }

// consumedSIC sums the SIC mass one emission of the given window contents
// consumes.
func (w *windowed) consumedSIC(win []stream.Tuple) float64 {
	var total float64
	for i := range win {
		total += win[i].SIC
	}
	return total * w.sicShare
}

// AggKind selects the aggregate function of an Agg operator.
type AggKind int

// Aggregate kinds of the Table 1 workloads.
const (
	AggAvg AggKind = iota
	AggMax
	AggMin
	AggSum
	AggCount
)

// String names the kind.
func (k AggKind) String() string {
	switch k {
	case AggAvg:
		return "avg"
	case AggMax:
		return "max"
	case AggMin:
		return "min"
	case AggSum:
		return "sum"
	default:
		return "count"
	}
}

// Agg is a windowed scalar aggregate over one payload field: AVG, MAX and
// COUNT of Table 1's aggregate workload (plus MIN/SUM for completeness).
// Each closed window emits exactly one tuple [value] carrying the window's
// consumed SIC (Eq. 3 with |T_out| = 1). Empty windows emit a zero-count
// tuple for COUNT (count of an empty set is 0) and nothing for the other
// aggregates (their value is undefined on an empty window).
type Agg struct {
	folding
	kind  AggKind
	field int
	pred  Predicate // optional HAVING-style per-tuple predicate; may be nil
}

// NewAgg builds a windowed aggregate over the given field.
func NewAgg(kind AggKind, spec stream.WindowSpec, field int, pred Predicate) *Agg {
	a := &Agg{kind: kind, field: field, pred: pred}
	a.init(spec, a)
	return a
}

// Name implements Operator.
func (a *Agg) Name() string { return a.kind.String() }

func (a *Agg) accumulate(w *openWin, in []stream.Tuple) {
	st := w.acc
	for i := range in {
		if a.pred != nil && !a.pred(&in[i]) {
			continue
		}
		st.add(in[i].V[a.field])
	}
	w.acc = st
}

func (a *Agg) finish(w *openWin, edge stream.Time, emit func([]stream.Tuple)) {
	// COUNT answers even a window no tuple fell in; AVG, MAX and MIN are
	// undefined when nothing passed the predicate (the SIC of an empty
	// window is 0 anyway).
	switch a.kind {
	case AggCount:
	case AggSum:
		if w.n == 0 {
			return
		}
	default:
		if w.acc.n == 0 {
			return
		}
	}
	emit(a.out.one(edge, w.sic, w.acc.value(a.kind)))
}

func (a *Agg) encode(enc *stream.SnapEncoder, w *openWin) { w.acc.encode(enc) }

func (a *Agg) decode(dec *stream.SnapDecoder, w *openWin) error {
	w.acc.decode(dec)
	return dec.Err()
}

// GroupAgg is a windowed per-key aggregate: it groups window tuples by an
// integer-valued key field and emits one (key, value) tuple per group, in
// first-seen key order. The TOP-5 query uses two of these ("2 averages",
// Table 1) to average CPU and free memory per node id before the join.
// Output tuples share the window's consumed SIC per Eq. (3).
type GroupAgg struct {
	folding
	kind     AggKind
	keyField int
	valField int
}

// NewGroupAgg builds a windowed group-by aggregate.
func NewGroupAgg(kind AggKind, spec stream.WindowSpec, keyField, valField int) *GroupAgg {
	g := &GroupAgg{kind: kind, keyField: keyField, valField: valField}
	g.init(spec, g)
	return g
}

// Name implements Operator.
func (g *GroupAgg) Name() string { return "group-" + g.kind.String() }

func (g *GroupAgg) accumulate(w *openWin, in []stream.Tuple) {
	// Neighbours mostly share a key — a source's batch carries one node
	// id — so the group is looked up once per run of equal keys and
	// accumulated in registers. NaN equals nothing and is looked up anew.
	var (
		a    *acc
		st   acc
		last float64
	)
	for i := range in {
		v := in[i].V
		if k := v[g.keyField]; a == nil || k != last {
			if a != nil {
				*a = st
			}
			a, last = w.groups.at(groupKey(k)), k
			st = *a
		}
		st.add(v[g.valField])
	}
	if a != nil {
		*a = st
	}
}

func (g *GroupAgg) finish(w *openWin, edge stream.Time, emit func([]stream.Tuple)) {
	if w.n == 0 {
		return
	}
	per := sic.PropagateSIC(w.sic, len(w.groups.keys))
	m := g.out.mark()
	for i, k := range w.groups.keys {
		g.out.add(stream.Tuple{TS: edge, SIC: per, V: g.out.row(float64(k), w.groups.accs[i].value(g.kind))})
	}
	emit(g.out.since(m))
}

func (g *GroupAgg) encode(enc *stream.SnapEncoder, w *openWin) {
	enc.U32(uint32(len(w.groups.keys)))
	for i, k := range w.groups.keys {
		enc.I64(k)
		w.groups.accs[i].encode(enc)
	}
}

func (g *GroupAgg) decode(dec *stream.SnapDecoder, w *openWin) error {
	// A group costs its key and the four accumulator fields.
	for n := dec.Count(40); n > 0 && dec.Err() == nil; n-- {
		k := dec.I64()
		if _, dup := w.groups.find(k); dup {
			return stream.ErrSnapCorrupt
		}
		w.groups.at(k).decode(dec)
	}
	return dec.Err()
}

// groupKey converts a payload value to a group key. Go leaves int64(v)
// implementation-defined for NaN, ±Inf and values beyond ±2^63; those all
// land in one defined group, math.MinInt64, so a corrupt payload can
// neither split a group by platform nor address the dense index.
func groupKey(v float64) int64 {
	if v >= -(1<<63) && v < 1<<63 {
		return int64(v)
	}
	return math.MinInt64
}

// denseKeys bounds the keys indexed by slice: node ids and the like. A
// window's index grows to the largest such key it sees (32 KiB at most)
// and is kept across recycling.
const denseKeys = 1 << 13

// groupTable holds one window's groups in first-seen order. Small
// non-negative keys are found through a dense slice, every other key
// through the map.
type groupTable struct {
	keys   []int64
	accs   []acc           // parallel to keys
	dense  []int32         // key -> index into accs + 1; 0: absent
	sparse map[int64]int32 // keys outside [0, denseKeys), same encoding
}

// at returns key k's accumulator, adding the group on first sight.
func (t *groupTable) at(k int64) *acc {
	if ai, ok := t.find(k); ok {
		return &t.accs[ai]
	}
	t.keys = append(t.keys, k)
	t.accs = append(t.accs, acc{})
	ai := int32(len(t.accs))
	if uint64(k) >= denseKeys {
		if t.sparse == nil {
			t.sparse = make(map[int64]int32)
		}
		t.sparse[k] = ai
	} else {
		if int(k) >= len(t.dense) {
			t.dense = append(t.dense, make([]int32, int(k)+1-len(t.dense))...)
		}
		t.dense[k] = ai
	}
	return &t.accs[ai-1]
}

// find reports the index of key k's accumulator.
func (t *groupTable) find(k int64) (int32, bool) {
	var ai int32
	if uint64(k) < denseKeys {
		if int(k) < len(t.dense) {
			ai = t.dense[k]
		}
	} else {
		ai = t.sparse[k]
	}
	return ai - 1, ai != 0
}

// reset forgets the groups in O(groups), keeping all storage.
func (t *groupTable) reset() {
	for _, k := range t.keys {
		if uint64(k) < denseKeys {
			t.dense[k] = 0
		}
	}
	clear(t.sparse)
	t.keys, t.accs = t.keys[:0], t.accs[:0]
}
