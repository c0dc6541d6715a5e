package operator

import (
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
