package operator

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sic"
	"repro/internal/stream"
)

// refWindowed is the buffered reference the folding operators are held
// to: a stream.WindowBuffer scanned at every edge by the closure bodies
// Agg, GroupAgg and PartialAvg had before they folded on push. It keeps
// every tuple and derives nothing, so the maintained answer is compared
// with the answer recomputed from scratch, bit for bit.
type refWindowed struct {
	win  *stream.WindowBuffer
	body func(win []stream.Tuple, closeAt stream.Time, total float64) []stream.Tuple
}

func newRef(spec stream.WindowSpec, body func([]stream.Tuple, stream.Time, float64) []stream.Tuple) *refWindowed {
	return &refWindowed{win: stream.NewWindowBuffer(spec), body: body}
}

func (r *refWindowed) tick(now stream.Time) (out [][]stream.Tuple) {
	spec := r.win.Spec()
	share := float64(spec.Slide) / float64(spec.Range)
	r.win.Tick(now, func(win []stream.Tuple, closeAt stream.Time) {
		var total float64
		for i := range win {
			total += win[i].SIC
		}
		if em := r.body(win, closeAt, total*share); len(em) > 0 {
			out = append(out, em)
		}
	})
	return out
}

func refOne(ts stream.Time, sicVal float64, vals ...float64) []stream.Tuple {
	return []stream.Tuple{{TS: ts, SIC: sic.PropagateSIC(sicVal, 1), V: vals}}
}

func refAgg(kind AggKind, field int, pred Predicate) func([]stream.Tuple, stream.Time, float64) []stream.Tuple {
	return func(win []stream.Tuple, closeAt stream.Time, total float64) []stream.Tuple {
		var sum, max, min float64
		var n int
		first := true
		for i := range win {
			if pred != nil && !pred(&win[i]) {
				continue
			}
			v := win[i].V[field]
			sum += v
			if first || v > max {
				max = v
			}
			if first || v < min {
				min = v
			}
			first = false
			n++
		}
		var value float64
		switch kind {
		case AggAvg:
			if n == 0 {
				return nil
			}
			value = sum / float64(n)
		case AggMax:
			if n == 0 {
				return nil
			}
			value = max
		case AggMin:
			if n == 0 {
				return nil
			}
			value = min
		case AggSum:
			value = sum
		case AggCount:
			value = float64(n)
		}
		if len(win) == 0 && kind != AggCount {
			return nil
		}
		return refOne(closeAt, total, value)
	}
}

func refGroupAgg(kind AggKind, keyField, valField int) func([]stream.Tuple, stream.Time, float64) []stream.Tuple {
	type groupAcc struct {
		sum, max, min float64
		n             int
	}
	return func(win []stream.Tuple, closeAt stream.Time, total float64) []stream.Tuple {
		if len(win) == 0 {
			return nil
		}
		groups := map[int64]*groupAcc{}
		var order []int64
		for i := range win {
			k := groupKey(win[i].V[keyField])
			a, ok := groups[k]
			if !ok {
				a = &groupAcc{}
				groups[k] = a
				order = append(order, k)
			}
			v := win[i].V[valField]
			a.sum += v
			if a.n == 0 || v > a.max {
				a.max = v
			}
			if a.n == 0 || v < a.min {
				a.min = v
			}
			a.n++
		}
		per := sic.PropagateSIC(total, len(order))
		var out []stream.Tuple
		for _, k := range order {
			a := groups[k]
			var v float64
			switch kind {
			case AggAvg:
				v = a.sum / float64(a.n)
			case AggMax:
				v = a.max
			case AggMin:
				v = a.min
			case AggSum:
				v = a.sum
			case AggCount:
				v = float64(a.n)
			}
			out = append(out, stream.Tuple{TS: closeAt, SIC: per, V: []float64{float64(k), v}})
		}
		return out
	}
}

func refPartialAvg(field int) func([]stream.Tuple, stream.Time, float64) []stream.Tuple {
	return func(win []stream.Tuple, closeAt stream.Time, total float64) []stream.Tuple {
		if len(win) == 0 {
			return nil
		}
		var sum float64
		for i := range win {
			sum += win[i].V[field]
		}
		return refOne(closeAt, total, sum, float64(len(win)))
	}
}

// foldedOp is what the schedule drives on the operator side.
type foldedOp interface {
	Operator
	Stateful
	TimeAdvancer
	Reopener
}

// modelCase builds one operator under test and its reference.
type modelCase struct {
	name string
	op   func(stream.WindowSpec) foldedOp
	ref  func(stream.WindowSpec) *refWindowed
}

func modelCases() []modelCase {
	var cases []modelCase
	for kind := AggAvg; kind <= AggCount; kind++ {
		kind := kind
		for _, pred := range []Predicate{nil, FieldAtLeast(1, 0)} {
			pred := pred
			cases = append(cases, modelCase{
				name: fmt.Sprintf("agg-%v/pred=%t", kind, pred != nil),
				op:   func(s stream.WindowSpec) foldedOp { return NewAgg(kind, s, 1, pred) },
				ref:  func(s stream.WindowSpec) *refWindowed { return newRef(s, refAgg(kind, 1, pred)) },
			})
		}
		cases = append(cases, modelCase{
			name: fmt.Sprintf("group-%v", kind),
			op:   func(s stream.WindowSpec) foldedOp { return NewGroupAgg(kind, s, 0, 1) },
			ref:  func(s stream.WindowSpec) *refWindowed { return newRef(s, refGroupAgg(kind, 0, 1)) },
		})
	}
	return append(cases, modelCase{
		name: "partial-avg",
		op:   func(s stream.WindowSpec) foldedOp { return NewPartialAvg(s, 1) },
		ref:  func(s stream.WindowSpec) *refWindowed { return newRef(s, refPartialAvg(1)) },
	})
}

// sameBits compares two emission lists bit for bit (NaN included).
func sameBits(got, want [][]stream.Tuple) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d emissions, reference %d", len(got), len(want))
	}
	for e := range got {
		if len(got[e]) != len(want[e]) {
			return fmt.Errorf("emission %d: %d tuples, reference %d", e, len(got[e]), len(want[e]))
		}
		for i := range got[e] {
			g, w := got[e][i], want[e][i]
			same := g.TS == w.TS && math.Float64bits(g.SIC) == math.Float64bits(w.SIC) && len(g.V) == len(w.V)
			for j := 0; same && j < len(g.V); j++ {
				same = math.Float64bits(g.V[j]) == math.Float64bits(w.V[j])
			}
			if !same {
				return fmt.Errorf("emission %d tuple %d: got %+v, reference %+v", e, i, g, w)
			}
		}
	}
	return nil
}

// foldPaths counts what the schedules exercised.
type foldPaths struct {
	folded, buffered                       int // runs by path
	late, early, twoOpen, multiEdge, empty int
	advancedFresh, advancedUsed, reopened  int
	restoredMidWindow, sparseKey, oddKey   int
	emissions                              int
}

// TestFoldingMatchesBufferedReference drives every folding operator and
// its buffered reference with the same randomised pushes — in order,
// interleaved sources, out of order, late, early for the next window,
// empty edges, ticks spanning several edges, AdvanceTo before and after
// the first tuple, Reopen, snapshot→restore into an operator holding
// unrelated state — and requires bit-equal emissions at every tick.
func TestFoldingMatchesBufferedReference(t *testing.T) {
	var paths foldPaths
	for _, mc := range modelCases() {
		for seed := int64(0); seed < 60; seed++ {
			runFoldModel(t, mc, seed, &paths)
		}
	}
	p := paths
	if p.folded == 0 || p.buffered == 0 || p.late == 0 || p.early == 0 || p.twoOpen == 0 ||
		p.multiEdge == 0 || p.empty == 0 || p.advancedFresh == 0 || p.advancedUsed == 0 ||
		p.reopened == 0 || p.restoredMidWindow == 0 || p.sparseKey == 0 || p.oddKey == 0 || p.emissions == 0 {
		t.Fatalf("schedules missed a path: %+v", p)
	}
	t.Logf("paths covered: %+v", p)
}

func foldModelSpec(rng *rand.Rand) stream.WindowSpec {
	switch rng.Intn(6) {
	case 0:
		r := 100 + rng.Intn(400)
		return stream.SlidingTime(stream.Duration(r), stream.Duration(1+rng.Intn(r)))
	case 1:
		return stream.TumblingCount(1 + rng.Intn(40))
	default:
		return stream.TumblingTime(stream.Duration(50 + rng.Intn(400)))
	}
}

func runFoldModel(t *testing.T, mc modelCase, seed int64, paths *foldPaths) {
	rng := rand.New(rand.NewSource(seed))
	spec := foldModelSpec(rng)
	op, ref := mc.op(spec), mc.ref(spec)
	folds := spec.Kind == stream.TimeWindow && spec.Slide == spec.Range
	if folds {
		paths.folded++
	} else {
		paths.buffered++
	}
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("%s seed %d spec %+v step %d: %s", mc.name, seed, spec, step, fmt.Sprintf(format, args...))
	}
	disorder := rng.Intn(2) == 0
	now := stream.Time(0)
	if rng.Intn(3) == 0 {
		now = stream.Time(rng.Intn(3000))
		op.AdvanceTo(now)
		ref.win.FastForward(now)
		paths.advancedFresh++
	}
	pushed := false
	for step := 0; step < 50; step++ {
		next := now + stream.Time(1+rng.Intn(300))
		if rng.Intn(6) == 0 {
			next = now + stream.Time(rng.Intn(4*int(spec.Range))+1) // several edges at once
		}
		// Each push is one source's batch: its own key, timestamps
		// spread over the tick like every other source's, so pushes
		// interleave in time.
		for b := rng.Intn(4); b > 0; b-- {
			in := make([]stream.Tuple, rng.Intn(30))
			key := float64(rng.Intn(12))
			switch rng.Intn(12) {
			case 0:
				key = float64(denseKeys + rng.Intn(3))
				paths.sparseKey++
			case 1:
				key = -float64(1 + rng.Intn(3))
				paths.sparseKey++
			case 2:
				key = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e19, -1e19, 0.5}[rng.Intn(6)]
				paths.oddKey++
			}
			for i := range in {
				ts := now + (next-now)*stream.Time(i)/stream.Time(len(in))
				if disorder {
					switch rng.Intn(10) {
					case 0:
						ts = now - stream.Time(rng.Intn(2*int(spec.Range)+1))
						paths.late++
					case 1:
						ts = next + stream.Time(rng.Intn(2*int(spec.Range)+1))
						paths.early++
					case 2:
						ts = now + stream.Time(rng.Int63n(int64(next-now)))
					}
					if rng.Intn(6) == 0 {
						key = float64(rng.Intn(12)) // a batch of mixed keys
					}
				}
				in[i] = stream.Tuple{TS: ts, SIC: rng.Float64(), V: []float64{key, rng.NormFloat64() * 1e3}}
			}
			op.Push(0, in)
			ref.win.Push(in)
			pushed = pushed || len(in) > 0
			// The operator must own what it keeps: scribble on the input.
			for i := range in {
				in[i].TS, in[i].SIC, in[i].V[0], in[i].V[1] = -1, -1, -1, -1
			}
		}
		if f, ok := foldingOf(op); ok && len(f.open) > 1 {
			paths.twoOpen++
		}
		switch rng.Intn(10) {
		case 0:
			// Checkpoint, then resume in a fresh operator whose own state —
			// cursor, open windows — is unrelated.
			var enc stream.SnapEncoder
			enc.Reset()
			op.SnapshotState(&enc)
			ref.win.Snapshot(&enc)
			sealed := append([]byte(nil), enc.Seal()...)
			var dec stream.SnapDecoder
			if err := dec.Init(sealed); err != nil {
				fail(step, "snapshot: %v", err)
			}
			if f, ok := foldingOf(op); ok && len(f.open) > 0 {
				paths.restoredMidWindow++
			}
			op, ref = mc.op(spec), mc.ref(spec)
			if rng.Intn(2) == 0 {
				junk := []stream.Tuple{{TS: next + 5, SIC: 1, V: []float64{3, 3}}}
				op.Push(0, junk)
				ref.win.Push(junk)
			}
			if err := op.RestoreState(&dec); err != nil {
				fail(step, "restore: %v", err)
			}
			if err := ref.win.Restore(&dec); err != nil {
				fail(step, "reference restore: %v", err)
			}
			if dec.Remaining() != 0 {
				fail(step, "restore left %d bytes", dec.Remaining())
			}
			// Snapshot→restore→snapshot is a byte-exact fixed point.
			enc.Reset()
			op.SnapshotState(&enc)
			ref.win.Snapshot(&enc)
			if again := enc.Seal(); string(again) != string(sealed) {
				fail(step, "snapshot changed across restore (%d vs %d bytes)", len(again), len(sealed))
			}
		case 1:
			skip := next + stream.Time(rng.Intn(2*int(spec.Range)))
			op.Reopen(skip)
			ref.win.Reopen(skip)
			paths.reopened++
		case 2:
			op.AdvanceTo(next + stream.Time(spec.Range)) // a no-op once a tuple was pushed
			ref.win.FastForward(next + stream.Time(spec.Range))
			if pushed {
				paths.advancedUsed++
			}
		}
		var got [][]stream.Tuple
		op.Tick(next, func(out []stream.Tuple) {
			cp := make([]stream.Tuple, len(out))
			for i, tu := range out {
				cp[i] = stream.Tuple{TS: tu.TS, SIC: tu.SIC, V: append([]float64(nil), tu.V...)}
			}
			got = append(got, cp)
		})
		want := ref.tick(next)
		if err := sameBits(got, want); err != nil {
			fail(step, "%v", err)
		}
		paths.emissions += len(got)
		if len(got) > 1 {
			paths.multiEdge++
		}
		if folds && len(got) == 0 && int64(next)/spec.Range > int64(now)/spec.Range {
			paths.empty++
		}
		now = next
	}
}

// foldingOf reaches the folding base of an operator that is folding.
func foldingOf(op foldedOp) (*folding, bool) {
	var f *folding
	switch o := op.(type) {
	case *Agg:
		f = &o.folding
	case *GroupAgg:
		f = &o.folding
	case *PartialAvg:
		f = &o.folding
	}
	return f, f != nil && f.folds
}

// TestGroupKeyIsDefinedForEveryFloat: the key conversion never leaves
// the outcome to the platform, and no key can index the dense table out
// of range.
func TestGroupKeyIsDefinedForEveryFloat(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want int64
	}{
		{0, 0}, {7.9, 7}, {-7.9, -7}, {math.Copysign(0, -1), 0},
		{-(1 << 63), math.MinInt64}, {math.Nextafter(1<<63, 0), 1<<63 - 1024},
		{1 << 63, math.MinInt64}, {1e300, math.MinInt64}, {-1e300, math.MinInt64},
		{math.Inf(1), math.MinInt64}, {math.Inf(-1), math.MinInt64}, {math.NaN(), math.MinInt64},
	} {
		if got := groupKey(tc.v); got != tc.want {
			t.Errorf("groupKey(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
	g := NewGroupAgg(AggCount, stream.TumblingTime(stream.Second), 0, 1)
	var in []stream.Tuple
	for i, k := range []float64{math.NaN(), 3, math.Inf(1), -1e19, denseKeys - 1, denseKeys, math.Inf(-1), 3, 1e19} {
		in = append(in, stream.Tuple{TS: stream.Time(i), SIC: 1, V: []float64{k, 1}})
	}
	g.Push(0, in)
	out := tick(g, 1000)
	if len(out) != 1 || len(out[0]) != 4 {
		t.Fatalf("emissions %v, want one of 4 groups", out)
	}
	wantKeys := []float64{math.MinInt64, 3, denseKeys - 1, denseKeys}
	wantN := []float64{5, 2, 1, 1}
	for i, tu := range out[0] {
		if tu.V[0] != wantKeys[i] || tu.V[1] != wantN[i] {
			t.Errorf("group %d = %v, want key %v count %v", i, tu.V, wantKeys[i], wantN[i])
		}
	}
	if f := &g.folding; len(f.free) != 1 || len(f.free[0].groups.dense) != denseKeys {
		t.Errorf("dense index holds %d slots, want exactly denseKeys", len(f.free[0].groups.dense))
	}
}

// TestFoldedRestoreRejectsCorruptState: a validly sealed blob whose
// cursor or windows break what Tick relies on — an unaligned or
// non-positive cursor, windows out of order, behind the cursor or off the
// edge grid, a negative count, a key twice, another window spec — is
// refused. A blob refused by its header leaves the operator as it was; one
// refused later leaves it with no open window. Either way it still runs.
func TestFoldedRestoreRejectsCorruptState(t *testing.T) {
	const span = 1000
	type win struct {
		edge, n int64
		keys    []int64
	}
	blob := func(rng, slide, nextEdge int64, wins ...win) []byte {
		var enc stream.SnapEncoder
		enc.Reset()
		enc.U8(uint8(stream.TimeWindow))
		enc.I64(rng)
		enc.I64(slide)
		enc.I64(nextEdge)
		enc.Bool(true)
		enc.U32(uint32(len(wins)))
		for _, w := range wins {
			enc.I64(w.edge)
			enc.F64(0.5)
			enc.I64(w.n)
			enc.U32(uint32(len(w.keys)))
			for _, k := range w.keys {
				enc.I64(k)
				(&acc{sum: 1, max: 1, min: 1, n: 1}).encode(&enc)
			}
		}
		return append([]byte(nil), enc.Seal()...)
	}
	restore := func(g *GroupAgg, data []byte) error {
		var dec stream.SnapDecoder
		if err := dec.Init(data); err != nil {
			t.Fatalf("Init: %v", err)
		}
		return g.RestoreState(&dec)
	}
	good := blob(span, span, 3000, win{3000, 2, []int64{4, -9}}, win{5000, 1, []int64{4}})
	g := NewGroupAgg(AggSum, stream.TumblingTime(span), 0, 1)
	if err := restore(g, good); err != nil {
		t.Fatalf("restore of a well-formed blob: %v", err)
	}
	if out := tick(g, 3000); len(out) != 1 || len(out[0]) != 2 || out[0][0].SIC != 0.25 {
		t.Fatalf("restored window emitted %v", out)
	}
	for name, data := range map[string][]byte{
		"foreign range":     blob(500, 500, 3000),
		"sliding spec":      blob(span, 500, 3000),
		"unaligned cursor":  blob(span, span, 3001),
		"cursor at zero":    blob(span, span, 0),
		"window behind":     blob(span, span, 3000, win{2000, 1, []int64{1}}),
		"windows unordered": blob(span, span, 3000, win{4000, 1, []int64{1}}, win{3000, 1, []int64{1}}),
		"window twice":      blob(span, span, 3000, win{3000, 1, []int64{1}}, win{3000, 1, []int64{1}}),
		"window off grid":   blob(span, span, 3000, win{3500, 1, []int64{1}}),
		"negative count":    blob(span, span, 3000, win{3000, -1, []int64{1}}),
		"key twice":         blob(span, span, 3000, win{3000, 2, []int64{7, 7}}),
		"truncated":         good[:len(good)-30],
	} {
		g := NewGroupAgg(AggSum, stream.TumblingTime(span), 0, 1)
		g.Push(0, []stream.Tuple{{TS: 10, SIC: 1, V: []float64{1, 1}}})
		if name == "truncated" {
			// Cut inside the last window and re-seal, so the checksum holds.
			var enc stream.SnapEncoder
			enc.Reset()
			for _, b := range data[1:] {
				enc.U8(b)
			}
			data = enc.Seal()
		}
		if err := restore(g, data); err == nil {
			t.Errorf("%s: restore accepted the blob", name)
			continue
		}
		header := name == "foreign range" || name == "sliding spec" || name == "unaligned cursor" || name == "cursor at zero"
		if want := map[bool]int{true: 1, false: 0}[header]; len(g.open) != want {
			t.Errorf("%s: %d open windows after the failed restore, want %d", name, len(g.open), want)
		}
		g.Push(0, []stream.Tuple{{TS: stream.Time(g.nextEdge), SIC: 1, V: []float64{1, 1}}})
		tick(g, stream.Time(g.nextEdge+span))
	}
}

// refCov is PartialCov as it was before it folded on push, kept as the
// reference: a stream.WindowBuffer per port, each closed window copied
// out with its consumed SIC, the copies paired by queue position and the
// statistic computed from the paired tuples. Like the operator it moves
// both cursors on AdvanceTo or neither.
type refCov struct {
	x, y         *stream.WindowBuffer
	share        float64
	pendX, pendY []refCovWin
	fx, fy       int
	seen         bool
}

type refCovWin struct {
	tuples []stream.Tuple
	at     stream.Time
	sic    float64
}

func newRefCov(spec stream.WindowSpec, fx, fy int) *refCov {
	return &refCov{
		x: stream.NewWindowBuffer(spec), y: stream.NewWindowBuffer(spec),
		share: float64(spec.Slide) / float64(spec.Range), fx: fx, fy: fy,
	}
}

func (r *refCov) push(port int, in []stream.Tuple) {
	r.seen = r.seen || len(in) > 0
	if port == 0 {
		r.x.Push(in)
	} else {
		r.y.Push(in)
	}
}

func (r *refCov) advanceTo(now stream.Time) {
	if !r.seen {
		r.x.FastForward(now)
		r.y.FastForward(now)
	}
}

func (r *refCov) reopen(now stream.Time) {
	r.x.Reopen(now)
	r.y.Reopen(now)
}

func (r *refCov) tick(now stream.Time, paths *covPaths) (out [][]stream.Tuple) {
	capture := func(q *[]refCovWin) func([]stream.Tuple, stream.Time) {
		return func(win []stream.Tuple, at stream.Time) {
			var total float64
			cp := make([]stream.Tuple, len(win))
			for i, tu := range win {
				total += tu.SIC
				cp[i] = stream.Tuple{TS: tu.TS, SIC: tu.SIC, V: append([]float64(nil), tu.V...)}
			}
			*q = append(*q, refCovWin{tuples: cp, at: at, sic: total * r.share})
		}
	}
	r.x.Tick(now, capture(&r.pendX))
	r.y.Tick(now, capture(&r.pendY))
	for len(r.pendX) > 0 && len(r.pendY) > 0 {
		xw, yw := r.pendX[0], r.pendY[0]
		r.pendX, r.pendY = r.pendX[1:], r.pendY[1:]
		xs, ys := xw.tuples, yw.tuples
		n := min(len(xs), len(ys))
		if len(xs) != len(ys) {
			if n == 0 {
				paths.oneSideEmpty++
			} else {
				paths.uneven++
			}
		}
		if n == 0 {
			continue
		}
		var sx, sy float64
		for i := 0; i < n; i++ {
			sx += xs[i].V[r.fx]
			sy += ys[i].V[r.fy]
		}
		mx, my := sx/float64(n), sy/float64(n)
		var cm float64
		for i := 0; i < n; i++ {
			cm += (xs[i].V[r.fx] - mx) * (ys[i].V[r.fy] - my)
		}
		out = append(out, refOne(xw.at, xw.sic+yw.sic, float64(n), mx, my, cm))
	}
	return out
}

// covPaths counts what the covariance schedules exercised.
type covPaths struct {
	folded, sliding, count                 int // runs by window kind
	late, early, twoOpen, multiEdge, empty int
	uneven, oneSideEmpty                   int
	advancedFresh, advancedUsed, reopened  int
	restoredMidWindow, emissions           int
}

// TestPartialCovFoldMatchesBufferedReference drives PartialCov and the
// buffered reference with the same randomised pushes on both ports — in
// order, interleaved, out of order, late, early for the next window,
// sides of unequal length, a side left empty, empty edges, ticks spanning
// several edges, AdvanceTo before and after the first tuple, Reopen,
// snapshot→restore into an operator holding unrelated state while the
// reference runs on undisturbed — over tumbling windows (the fold) and
// sliding and count windows (the buffered path), and requires bit-equal
// emissions at every tick.
func TestPartialCovFoldMatchesBufferedReference(t *testing.T) {
	var paths covPaths
	for seed := int64(0); seed < 400; seed++ {
		runCovModel(t, seed, &paths)
	}
	p := paths
	if p.folded == 0 || p.sliding == 0 || p.count == 0 || p.late == 0 || p.early == 0 || p.twoOpen == 0 ||
		p.multiEdge == 0 || p.empty == 0 || p.uneven == 0 || p.oneSideEmpty == 0 || p.advancedFresh == 0 ||
		p.advancedUsed == 0 || p.reopened == 0 || p.restoredMidWindow == 0 || p.emissions == 0 {
		t.Fatalf("schedules missed a path: %+v", p)
	}
	t.Logf("paths covered: %+v", p)
}

func runCovModel(t *testing.T, seed int64, paths *covPaths) {
	rng := rand.New(rand.NewSource(seed))
	spec := foldModelSpec(rng)
	const fx, fy = 1, 0
	op, ref := NewPartialCov(spec, fx, fy), newRefCov(spec, fx, fy)
	folds := tumbling(spec)
	if folds != (op.buf == nil) {
		t.Fatalf("spec %+v: folds=%v but buffered path %v", spec, folds, op.buf != nil)
	}
	switch {
	case folds:
		paths.folded++
	case spec.Kind == stream.TimeWindow:
		paths.sliding++
	default:
		paths.count++
	}
	fail := func(step int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d spec %+v step %d: %s", seed, spec, step, fmt.Sprintf(format, args...))
	}
	disorder := rng.Intn(2) == 0
	now := stream.Time(0)
	if rng.Intn(3) == 0 {
		now = stream.Time(rng.Intn(3000))
		op.AdvanceTo(now)
		ref.advanceTo(now)
		paths.advancedFresh++
	}
	for step := 0; step < 50; step++ {
		next := now + stream.Time(1+rng.Intn(300))
		if rng.Intn(6) == 0 {
			next = now + stream.Time(rng.Intn(4*int(spec.Range))+1) // several edges at once
		}
		// Each push is one source's batch on one port, its timestamps
		// spread over the tick; now and then a port sits a step out.
		quiet := -1
		if rng.Intn(5) == 0 {
			quiet = rng.Intn(2)
		}
		for b := rng.Intn(6); b > 0; b-- {
			port := rng.Intn(2)
			if port == quiet {
				continue
			}
			in := make([]stream.Tuple, rng.Intn(30))
			for i := range in {
				ts := now + (next-now)*stream.Time(i)/stream.Time(len(in))
				if disorder {
					switch rng.Intn(10) {
					case 0:
						ts = now - stream.Time(rng.Intn(2*int(spec.Range)+1))
						paths.late++
					case 1:
						ts = next + stream.Time(rng.Intn(2*int(spec.Range)+1))
						paths.early++
					case 2:
						ts = now + stream.Time(rng.Int63n(int64(next-now)))
					}
				}
				in[i] = stream.Tuple{TS: ts, SIC: rng.Float64(), V: []float64{rng.NormFloat64() * 1e3, rng.ExpFloat64()}}
			}
			op.Push(port, in)
			ref.push(port, in)
			// The operator must own what it keeps: scribble on the input.
			for i := range in {
				in[i].TS, in[i].SIC, in[i].V[0], in[i].V[1] = -1, -1, -1, -1
			}
		}
		if len(op.open) > 1 {
			paths.twoOpen++
		}
		switch rng.Intn(10) {
		case 0:
			// Checkpoint, then resume in a fresh operator whose own state —
			// cursor, open windows — is unrelated. The reference runs on.
			var enc stream.SnapEncoder
			enc.Reset()
			op.SnapshotState(&enc)
			sealed := append([]byte(nil), enc.Seal()...)
			var dec stream.SnapDecoder
			if err := dec.Init(sealed); err != nil {
				fail(step, "snapshot: %v", err)
			}
			if len(op.open) > 0 {
				paths.restoredMidWindow++
			}
			op = NewPartialCov(spec, fx, fy)
			if rng.Intn(2) == 0 {
				op.Push(rng.Intn(2), []stream.Tuple{{TS: next + 5, SIC: 1, V: []float64{3, 3}}})
			}
			if err := op.RestoreState(&dec); err != nil {
				fail(step, "restore: %v", err)
			}
			if dec.Remaining() != 0 {
				fail(step, "restore left %d bytes", dec.Remaining())
			}
			// Snapshot→restore→snapshot is a byte-exact fixed point.
			enc.Reset()
			op.SnapshotState(&enc)
			if again := enc.Seal(); string(again) != string(sealed) {
				fail(step, "snapshot changed across restore (%d vs %d bytes)", len(again), len(sealed))
			}
		case 1:
			skip := next + stream.Time(rng.Intn(2*int(spec.Range)))
			op.Reopen(skip)
			ref.reopen(skip)
			paths.reopened++
		case 2:
			op.AdvanceTo(next + stream.Time(spec.Range)) // a no-op once a tuple was pushed
			ref.advanceTo(next + stream.Time(spec.Range))
			if ref.seen {
				paths.advancedUsed++
			}
		}
		var got [][]stream.Tuple
		op.Tick(next, func(out []stream.Tuple) {
			cp := make([]stream.Tuple, len(out))
			for i, tu := range out {
				cp[i] = stream.Tuple{TS: tu.TS, SIC: tu.SIC, V: append([]float64(nil), tu.V...)}
			}
			got = append(got, cp)
		})
		want := ref.tick(next, paths)
		if err := sameBits(got, want); err != nil {
			fail(step, "%v", err)
		}
		paths.emissions += len(got)
		if len(got) > 1 {
			paths.multiEdge++
		}
		if folds && len(got) == 0 && int64(next)/spec.Range > int64(now)/spec.Range {
			paths.empty++
		}
		now = next
	}
}

// TestFoldedCovRestoreRejectsCorruptState: PartialCov's folded state goes
// through the same grid checks as every folding operator's — cursor,
// window order, edge alignment — and its columns are sized from counts
// that are first held against the bytes present. A blob refused by its
// header leaves the operator as it was, one refused later with no open
// window; either way it still runs.
func TestFoldedCovRestoreRejectsCorruptState(t *testing.T) {
	const span = 1000
	type win struct {
		edge   int64
		nx, ny uint32 // column lengths as written
		x, y   []float64
	}
	full := func(edge int64, x, y []float64) win {
		return win{edge, uint32(len(x)), uint32(len(y)), x, y}
	}
	blob := func(rng, slide, nextEdge int64, wins ...win) []byte {
		var enc stream.SnapEncoder
		enc.Reset()
		enc.U8(uint8(stream.TimeWindow))
		enc.I64(rng)
		enc.I64(slide)
		enc.I64(nextEdge)
		enc.Bool(true)
		enc.U32(uint32(len(wins)))
		for _, w := range wins {
			enc.I64(w.edge)
			enc.F64(0.25)
			enc.F64(0.5)
			enc.U32(w.nx)
			for _, v := range w.x {
				enc.F64(v)
			}
			enc.U32(w.ny)
			for _, v := range w.y {
				enc.F64(v)
			}
		}
		return append([]byte(nil), enc.Seal()...)
	}
	restore := func(p *PartialCov, data []byte) error {
		var dec stream.SnapDecoder
		if err := dec.Init(data); err != nil {
			t.Fatalf("Init: %v", err)
		}
		err := p.RestoreState(&dec)
		if err == nil && dec.Remaining() != 0 {
			t.Fatalf("restore left %d bytes", dec.Remaining())
		}
		return err
	}
	xs, ys := []float64{1, 2, 3}, []float64{2, 4}
	good := blob(span, span, 3000, full(3000, xs, ys), full(5000, nil, ys))
	p := NewPartialCov(stream.TumblingTime(span), 0, 0)
	if err := restore(p, good); err != nil {
		t.Fatalf("restore of a well-formed blob: %v", err)
	}
	if out := tick(p, 3000); len(out) != 1 || out[0][0].SIC != 0.75 || out[0][0].V[0] != 2 || out[0][0].V[1] != 1.5 || out[0][0].V[2] != 3 {
		t.Fatalf("restored window emitted %v", out)
	}
	for name, data := range map[string][]byte{
		"foreign range":     blob(500, 500, 3000),
		"sliding spec":      blob(span, 500, 3000),
		"unaligned cursor":  blob(span, span, 3001),
		"cursor at zero":    blob(span, span, 0),
		"window behind":     blob(span, span, 3000, full(2000, xs, ys)),
		"windows unordered": blob(span, span, 3000, full(4000, xs, ys), full(3000, xs, ys)),
		"window twice":      blob(span, span, 3000, full(3000, xs, ys), full(3000, xs, ys)),
		"window off grid":   blob(span, span, 3000, full(3500, xs, ys)),
		"x column overruns": blob(span, span, 3000, win{3000, 1 << 30, 2, xs, ys}),
		"y column overruns": blob(span, span, 3000, full(3000, xs, ys), win{4000, 3, 3, xs, ys}),
		"truncated":         good[:len(good)-30],
	} {
		p := NewPartialCov(stream.TumblingTime(span), 0, 0)
		p.Push(0, []stream.Tuple{{TS: 10, SIC: 1, V: []float64{1}}})
		if name == "truncated" {
			// Cut inside the last window and re-seal, so the checksum holds.
			var enc stream.SnapEncoder
			enc.Reset()
			for _, b := range data[1:] {
				enc.U8(b)
			}
			data = enc.Seal()
		}
		if err := restore(p, data); err == nil {
			t.Errorf("%s: restore accepted the blob", name)
			continue
		}
		header := name == "foreign range" || name == "sliding spec" || name == "unaligned cursor" || name == "cursor at zero"
		if want := map[bool]int{true: 1, false: 0}[header]; len(p.open) != want {
			t.Errorf("%s: %d open windows after the failed restore, want %d", name, len(p.open), want)
		}
		at := stream.Time(p.nextEdge)
		p.Push(0, []stream.Tuple{{TS: at, SIC: 1, V: []float64{1}}})
		p.Push(1, []stream.Tuple{{TS: at, SIC: 1, V: []float64{1}}})
		if out := tick(p, at+span); len(out) != 1 || out[0][0].V[0] != 1 {
			t.Errorf("%s: after the failed restore the operator emitted %v", name, out)
		}
	}
}

// twoInputOp is what the two-input tests drive.
type twoInputOp interface {
	Operator
	Stateful
	TimeAdvancer
}

type twoInputCase struct {
	name string
	spec stream.WindowSpec
	op   func(stream.WindowSpec) twoInputOp
}

func twoInputCases() []twoInputCase {
	return []twoInputCase{
		{"join", stream.TumblingTime(1000), func(s stream.WindowSpec) twoInputOp { return NewJoin(s, 0, 0) }},
		{"sliding-cov", stream.SlidingTime(1000, 500), func(s stream.WindowSpec) twoInputOp { return NewPartialCov(s, 0, 0) }},
		{"folded-cov", stream.TumblingTime(1000), func(s stream.WindowSpec) twoInputOp { return NewPartialCov(s, 0, 0) }},
	}
}

// TestTwoInputAdvanceToIsAllOrNothing: AdvanceTo is legal only before the
// first tuple, and a two-input operator has seen its first tuple as soon
// as either port has. Advancing only the untouched side would leave the
// two cursors apart for good, every later pair joining window e with
// window e'.
func TestTwoInputAdvanceToIsAllOrNothing(t *testing.T) {
	at := func(ts stream.Time) []stream.Tuple { return []stream.Tuple{{TS: ts, SIC: 0.5, V: []float64{7}}} }
	for _, tc := range twoInputCases() {
		// One tuple of SIC 0.5 per side: a pair carries this much.
		pairSIC := float64(tc.spec.Slide) / float64(tc.spec.Range)
		for _, first := range []int{-1, 0, 1} {
			t.Run(fmt.Sprintf("%s/pushed-first=%d", tc.name, first), func(t *testing.T) {
				op := tc.op(tc.spec)
				if first >= 0 {
					op.Push(first, at(100))
				}
				op.AdvanceTo(5250)
				if first >= 0 {
					// A used operator stays where it was: the window the
					// first tuple fell in pairs with the other side's.
					op.Push(1-first, at(150))
					out := tick(op, 1000)
					if len(out) == 0 || out[len(out)-1][0].TS > 1000 || out[len(out)-1][0].SIC != pairSIC {
						t.Fatalf("window [0,1000) after a refused AdvanceTo emitted %v, want both sides' SIC", out)
					}
				} else if out := tick(op, 5000); len(out) != 0 {
					t.Fatalf("a fresh operator advanced to 5250 emitted %v by 5000", out)
				}
				// Either way both sides now close the same edges.
				op.Push(0, at(5300))
				op.Push(1, at(5400))
				var last []stream.Tuple
				for _, em := range tick(op, 6000) {
					last = em
				}
				if len(last) != 1 || last[0].TS < 5400 || last[0].TS > 6000 || last[0].SIC != pairSIC {
					t.Fatalf("window closing at 6000 emitted %v, want one tuple pairing both sides", last)
				}
			})
		}
	}
}

// TestTwoInputRestoreRejectsDisagreeingSides: the two buffers of a
// buffered two-input operator pair their windows by queue position, so a
// blob whose sides carry different next edges is corrupt, however valid
// each side is on its own. The refusal leaves the sides together.
func TestTwoInputRestoreRejectsDisagreeingSides(t *testing.T) {
	for _, tc := range twoInputCases()[:2] {
		t.Run(tc.name, func(t *testing.T) {
			side := func(advance stream.Time) *stream.WindowBuffer {
				wb := stream.NewWindowBuffer(tc.spec)
				wb.FastForward(advance)
				wb.Push([]stream.Tuple{{TS: advance + 10, SIC: 0.5, V: []float64{7}}})
				return wb
			}
			blob := func(left, right *stream.WindowBuffer) *stream.SnapDecoder {
				var enc stream.SnapEncoder
				enc.Reset()
				left.Snapshot(&enc)
				right.Snapshot(&enc)
				enc.U32(0) // no captured window on either side
				enc.U32(0)
				var dec stream.SnapDecoder
				if err := dec.Init(append([]byte(nil), enc.Seal()...)); err != nil {
					t.Fatal(err)
				}
				return &dec
			}
			op := tc.op(tc.spec)
			if err := op.RestoreState(blob(side(2500), side(2500))); err != nil {
				t.Fatalf("restore of agreeing sides: %v", err)
			}
			if out := tick(op, 3000); len(out) == 0 {
				t.Fatal("restored sides emitted nothing at their shared edge")
			}
			err := op.RestoreState(blob(side(4500), side(5500)))
			if !errors.Is(err, stream.ErrSnapCorrupt) {
				t.Fatalf("restore of sides on different edges: %v, want ErrSnapCorrupt", err)
			}
			// Still one operator: both sides close the same edge next.
			op.Push(0, []stream.Tuple{{TS: 3100, SIC: 0.5, V: []float64{7}}})
			op.Push(1, []stream.Tuple{{TS: 3200, SIC: 0.5, V: []float64{7}}})
			var last []stream.Tuple
			for _, em := range tick(op, 4000) {
				last = em
			}
			if len(last) != 1 || last[0].TS > 4000 {
				t.Fatalf("after the refused restore the window closing at 4000 emitted %v", last)
			}
		})
	}
}
