package operator

import (
	"math"
	"testing"

	"repro/internal/stream"
)

// tick drives an operator to time now and returns all emitted batches.
func tick(op Operator, now stream.Time) [][]stream.Tuple {
	var out [][]stream.Tuple
	op.Tick(now, func(b []stream.Tuple) {
		cp := make([]stream.Tuple, len(b))
		copy(cp, b)
		out = append(out, cp)
	})
	return out
}

// tuples builds a batch of single-field tuples with uniform SIC.
func tuples(sic float64, ts stream.Time, vals ...float64) []stream.Tuple {
	out := make([]stream.Tuple, len(vals))
	for i, v := range vals {
		out[i] = stream.Tuple{TS: ts, SIC: sic, V: []float64{v}}
	}
	return out
}

func totalSIC(batches [][]stream.Tuple) float64 {
	var s float64
	for _, b := range batches {
		for i := range b {
			s += b[i].SIC
		}
	}
	return s
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestReceivePassesThrough(t *testing.T) {
	r := NewReceive()
	if r.Name() != "receive" || r.InPorts() != 1 {
		t.Error("receive metadata")
	}
	in := tuples(0.1, 5, 1, 2, 3)
	r.Push(0, in)
	out := tick(r, 10)
	if len(out) != 1 || len(out[0]) != 3 {
		t.Fatalf("receive output: %v", out)
	}
	if out[0][1].V[0] != 2 || out[0][1].SIC != 0.1 {
		t.Error("receive altered tuples")
	}
	if got := tick(r, 20); got != nil {
		t.Error("receive re-emitted")
	}
}

func TestUnionMergesPorts(t *testing.T) {
	u := NewUnion(3)
	if u.InPorts() != 3 {
		t.Error("union ports")
	}
	u.Push(0, tuples(0.1, 1, 1))
	u.Push(2, tuples(0.2, 1, 2, 3))
	// Pushes are forwarded as they came, in push order.
	out := tick(u, 10)
	if len(out) != 2 || len(out[0]) != 1 || len(out[1]) != 2 || out[1][1].V[0] != 3 {
		t.Fatalf("union output: %v", out)
	}
	if !almostEq(totalSIC(out), 0.5) {
		t.Errorf("union SIC: %g", totalSIC(out))
	}
	if got := tick(u, 20); got != nil {
		t.Error("union re-emitted")
	}
}

// TestOutputEmitsOncePerTick: the operator facing the fragment sink joins
// a tick's pushes into one emission (one result batch), borrows a single
// push without copying, and snapshots held input without draining it.
func TestOutputEmitsOncePerTick(t *testing.T) {
	o := NewOutput()
	one := tuples(0.1, 1, 1, 2)
	o.Push(0, one)
	var got []stream.Tuple
	o.Tick(10, func(b []stream.Tuple) { got = b })
	if len(got) != 2 || &got[0] != &one[0] {
		t.Fatalf("single push was not forwarded in place: %v", got)
	}
	o.Push(0, tuples(0.1, 11, 1))
	o.Push(0, tuples(0.2, 12, 2, 3))
	var enc stream.SnapEncoder
	enc.Reset()
	o.SnapshotState(&enc)
	out := tick(o, 20)
	if len(out) != 1 || len(out[0]) != 3 || out[0][2].V[0] != 3 {
		t.Fatalf("output after snapshot: %v", out)
	}
	var dec stream.SnapDecoder
	if err := dec.Init(enc.Seal()); err != nil {
		t.Fatal(err)
	}
	r := NewOutput()
	if err := r.RestoreState(&dec); err != nil {
		t.Fatal(err)
	}
	r.Push(0, tuples(0.3, 13, 4))
	if out := tick(r, 20); len(out) != 1 || len(out[0]) != 4 || out[0][0].V[0] != 1 || out[0][3].V[0] != 4 {
		t.Fatalf("restored output: %v", out)
	}
}

func TestFilterRedistributesSIC(t *testing.T) {
	// Four examined tuples (total SIC 0.4), two pass: each passing tuple
	// carries 0.2 — the examined-but-rejected tuples' information is
	// credited to the output (Eq. 3 with atomic batch processing).
	f := NewFilter(FieldAtLeast(0, 50))
	f.Push(0, tuples(0.1, 1, 10, 60, 70, 20))
	out := tick(f, 10)
	if len(out) != 1 || len(out[0]) != 2 {
		t.Fatalf("filter output: %v", out)
	}
	for _, tp := range out[0] {
		if !almostEq(tp.SIC, 0.2) {
			t.Errorf("filter SIC: %g, want 0.2", tp.SIC)
		}
	}
	if out[0][0].V[0] != 60 || out[0][1].V[0] != 70 {
		t.Errorf("filter values: %v", out[0])
	}
}

func TestFilterAllRejectedLosesSIC(t *testing.T) {
	f := NewFilter(FieldAtLeast(0, 50))
	f.Push(0, tuples(0.1, 1, 10, 20))
	if out := tick(f, 10); out != nil {
		t.Fatalf("filter emitted %v for all-rejected batch", out)
	}
}

func TestAggValues(t *testing.T) {
	win := stream.TumblingTime(stream.Second)
	cases := []struct {
		kind AggKind
		pred Predicate
		want float64
	}{
		{AggAvg, nil, 45},
		{AggMax, nil, 80},
		{AggMin, nil, 10},
		{AggSum, nil, 180},
		{AggCount, nil, 4},
		{AggCount, FieldAtLeast(0, 50), 2},
	}
	for _, c := range cases {
		a := NewAgg(c.kind, win, 0, c.pred)
		a.Push(0, tuples(0.05, 100, 10, 30, 60, 80))
		out := tick(a, 1000)
		if len(out) != 1 || len(out[0]) != 1 {
			t.Fatalf("%v: output %v", c.kind, out)
		}
		if !almostEq(out[0][0].V[0], c.want) {
			t.Errorf("%v: got %g, want %g", c.kind, out[0][0].V[0], c.want)
		}
		// The single output tuple carries the window's whole SIC.
		if !almostEq(out[0][0].SIC, 0.2) {
			t.Errorf("%v: SIC %g, want 0.2", c.kind, out[0][0].SIC)
		}
	}
}

func TestAggEmptyWindow(t *testing.T) {
	win := stream.TumblingTime(stream.Second)
	avg := NewAgg(AggAvg, win, 0, nil)
	if out := tick(avg, 1000); out != nil {
		t.Errorf("avg over empty window emitted %v", out)
	}
	// COUNT of an empty window is a legitimate 0.
	cnt := NewAgg(AggCount, win, 0, nil)
	out := tick(cnt, 1000)
	if len(out) != 1 || out[0][0].V[0] != 0 {
		t.Errorf("count over empty window: %v", out)
	}
}

func TestAggWindowBoundaries(t *testing.T) {
	a := NewAgg(AggSum, stream.TumblingTime(stream.Second), 0, nil)
	a.Push(0, tuples(0.1, 100, 1))
	a.Push(0, tuples(0.1, 999, 2))
	a.Push(0, tuples(0.1, 1000, 4)) // belongs to the second window
	out := tick(a, 2000)
	if len(out) != 2 {
		t.Fatalf("want 2 windows, got %v", out)
	}
	if out[0][0].V[0] != 3 || out[1][0].V[0] != 4 {
		t.Errorf("window sums: %v", out)
	}
}

func TestGroupAggAveragesPerKey(t *testing.T) {
	g := NewGroupAgg(AggAvg, stream.TumblingTime(stream.Second), 0, 1)
	in := []stream.Tuple{
		{TS: 1, SIC: 0.1, V: []float64{1, 10}},
		{TS: 2, SIC: 0.1, V: []float64{2, 30}},
		{TS: 3, SIC: 0.1, V: []float64{1, 20}},
		{TS: 4, SIC: 0.1, V: []float64{2, 50}},
	}
	g.Push(0, in)
	out := tick(g, 1000)
	if len(out) != 1 || len(out[0]) != 2 {
		t.Fatalf("group output: %v", out)
	}
	got := map[int64]float64{}
	for _, tp := range out[0] {
		got[int64(tp.V[0])] = tp.V[1]
		if !almostEq(tp.SIC, 0.2) { // 0.4 total over 2 groups
			t.Errorf("group SIC: %g, want 0.2", tp.SIC)
		}
	}
	if got[1] != 15 || got[2] != 40 {
		t.Errorf("group averages: %v", got)
	}
}

func TestTopKOrderingAndDedup(t *testing.T) {
	k := NewTopK(3, stream.TumblingTime(stream.Second), 0, 1)
	in := []stream.Tuple{
		{TS: 1, SIC: 0.1, V: []float64{1, 50}},
		{TS: 2, SIC: 0.1, V: []float64{2, 90}},
		{TS: 3, SIC: 0.1, V: []float64{1, 70}}, // same key, better value
		{TS: 4, SIC: 0.1, V: []float64{3, 60}},
		{TS: 5, SIC: 0.1, V: []float64{4, 10}},
	}
	k.Push(0, in)
	out := tick(k, 1000)
	if len(out) != 1 || len(out[0]) != 3 {
		t.Fatalf("topk output: %v", out)
	}
	wantIDs := []float64{2, 1, 3} // 90, 70 (deduped), 60
	for i, tp := range out[0] {
		if tp.V[0] != wantIDs[i] {
			t.Errorf("rank %d: id %g, want %g", i, tp.V[0], wantIDs[i])
		}
	}
	if !almostEq(totalSIC(out), 0.5) {
		t.Errorf("topk SIC total: %g, want 0.5 (all consumed)", totalSIC(out))
	}
}

func TestTopKDeterministicTieBreak(t *testing.T) {
	mk := func() []stream.Tuple {
		k := NewTopK(2, stream.TumblingTime(stream.Second), 0, 1)
		k.Push(0, []stream.Tuple{
			{TS: 1, SIC: 0.1, V: []float64{5, 50}},
			{TS: 2, SIC: 0.1, V: []float64{3, 50}},
			{TS: 3, SIC: 0.1, V: []float64{9, 50}},
		})
		return tick(k, 1000)[0]
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i].V[0] != b[i].V[0] {
			t.Fatal("tie-break not deterministic")
		}
	}
	if a[0].V[0] != 3 || a[1].V[0] != 5 {
		t.Errorf("ties should order by key: %v", a)
	}
}

func TestTopKRequiresPositiveK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("k=0 should panic")
		}
	}()
	NewTopK(0, stream.TumblingTime(stream.Second), 0, 1)
}

func TestJoinMatchesOnKey(t *testing.T) {
	j := NewJoin(stream.TumblingTime(stream.Second), 0, 0)
	if j.InPorts() != 2 {
		t.Error("join ports")
	}
	j.Push(0, []stream.Tuple{
		{TS: 1, SIC: 0.1, V: []float64{1, 100}},
		{TS: 2, SIC: 0.1, V: []float64{2, 200}},
	})
	j.Push(1, []stream.Tuple{
		{TS: 3, SIC: 0.2, V: []float64{2, 999}},
		{TS: 4, SIC: 0.2, V: []float64{3, 888}},
	})
	out := tick(j, 1000)
	if len(out) != 1 || len(out[0]) != 1 {
		t.Fatalf("join output: %v", out)
	}
	got := out[0][0]
	if got.V[0] != 2 || got.V[1] != 200 || got.V[2] != 2 || got.V[3] != 999 {
		t.Errorf("joined payload: %v", got.V)
	}
	// Both windows' SIC (0.2 + 0.4) lands on the single match.
	if !almostEq(got.SIC, 0.6) {
		t.Errorf("join SIC: %g, want 0.6", got.SIC)
	}
}

func TestJoinNoMatchLosesSIC(t *testing.T) {
	j := NewJoin(stream.TumblingTime(stream.Second), 0, 0)
	j.Push(0, []stream.Tuple{{TS: 1, SIC: 0.5, V: []float64{1}}})
	j.Push(1, []stream.Tuple{{TS: 2, SIC: 0.5, V: []float64{2}}})
	if out := tick(j, 1000); out != nil {
		t.Fatalf("join emitted %v for disjoint keys", out)
	}
}

func TestJoinWindowAlignmentAcrossTicks(t *testing.T) {
	// The left side of window 1 arrives long before the right side; the
	// pair must still join when both windows have closed.
	j := NewJoin(stream.TumblingTime(stream.Second), 0, 0)
	j.Push(0, []stream.Tuple{{TS: 100, SIC: 0.1, V: []float64{7, 1}}})
	if out := tick(j, 500); out != nil {
		t.Fatalf("premature emission: %v", out)
	}
	j.Push(1, []stream.Tuple{{TS: 900, SIC: 0.1, V: []float64{7, 2}}})
	out := tick(j, 1000)
	if len(out) != 1 || out[0][0].V[0] != 7 {
		t.Fatalf("aligned join: %v", out)
	}
}

func TestPartialAvgAndMergeEquivalence(t *testing.T) {
	// Partial averages merged across two "fragments" must equal the
	// direct average of all values — the incremental-processing
	// guarantee of the complex workload.
	win := stream.TumblingTime(stream.Second)
	p1 := NewPartialAvg(win, 0)
	p2 := NewPartialAvg(win, 0)
	p1.Push(0, tuples(0.1, 1, 10, 20, 30))
	p2.Push(0, tuples(0.1, 2, 50, 70))
	o1 := tick(p1, 1000)
	o2 := tick(p2, 1000)
	m := NewAvgMerge(win)
	m.Push(0, o1[0])
	m.Push(0, o2[0])
	merged := tick(m, 2000)
	if len(merged) != 1 {
		t.Fatalf("merge output: %v", merged)
	}
	fin := NewAvgFinalize()
	fin.Push(0, merged[0])
	final := tick(fin, 3000)
	want := (10.0 + 20 + 30 + 50 + 70) / 5
	if !almostEq(final[0][0].V[0], want) {
		t.Errorf("merged avg: %g, want %g", final[0][0].V[0], want)
	}
	// SIC is conserved end-to-end: 5 tuples × 0.1.
	if !almostEq(final[0][0].SIC, 0.5) {
		t.Errorf("merged avg SIC: %g, want 0.5", final[0][0].SIC)
	}
}

func TestAvgFinalizeSkipsZeroCount(t *testing.T) {
	fin := NewAvgFinalize()
	fin.Push(0, []stream.Tuple{{TS: 1, SIC: 0.1, V: []float64{0, 0}}})
	if out := tick(fin, 10); out != nil {
		t.Errorf("finalize emitted for zero count: %v", out)
	}
}

func TestPartialCovMergeEquivalence(t *testing.T) {
	win := stream.TumblingTime(stream.Second)
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := []float64{2, 4, 5, 4, 5, 9}
	// Direct sample covariance.
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var want float64
	for i := range xs {
		want += (xs[i] - mx) * (ys[i] - my)
	}
	want /= float64(len(xs) - 1)

	// Split across two partial-cov "fragments", then merge + finalize.
	run := func(x, y []float64, ts stream.Time) []stream.Tuple {
		p := NewPartialCov(win, 0, 0)
		p.Push(0, tuples(0.1, ts, x...))
		p.Push(1, tuples(0.1, ts, y...))
		return tick(p, 1000)[0]
	}
	part1 := run(xs[:3], ys[:3], 1)
	part2 := run(xs[3:], ys[3:], 2)
	m := NewCovMerge(win)
	m.Push(0, part1)
	m.Push(0, part2)
	merged := tick(m, 2000)
	fin := NewCovFinalize()
	fin.Push(0, merged[0])
	final := tick(fin, 3000)
	if len(final) != 1 {
		t.Fatalf("cov finalize output: %v", final)
	}
	if math.Abs(final[0][0].V[0]-want) > 1e-9 {
		t.Errorf("merged cov: %g, want %g", final[0][0].V[0], want)
	}
}

func TestCovFinalizeNeedsTwoPoints(t *testing.T) {
	fin := NewCovFinalize()
	fin.Push(0, []stream.Tuple{{TS: 1, SIC: 0.1, V: []float64{1, 5, 5, 0}}})
	if out := tick(fin, 10); out != nil {
		t.Errorf("finalize emitted for n=1: %v", out)
	}
}

func TestPartialCovUnevenSides(t *testing.T) {
	// Extra tuples on one side are ignored (zip semantics).
	win := stream.TumblingTime(stream.Second)
	p := NewPartialCov(win, 0, 0)
	p.Push(0, tuples(0.1, 1, 1, 2, 3))
	p.Push(1, tuples(0.1, 1, 4, 5))
	out := tick(p, 1000)
	if len(out) != 1 {
		t.Fatalf("partial cov output: %v", out)
	}
	if out[0][0].V[0] != 2 { // n = min(3, 2)
		t.Errorf("paired count: %g, want 2", out[0][0].V[0])
	}
}

// TestFigure2Example reproduces the SIC propagation example of Figure 2:
// a query with operators a, b, c over two sources. During one STW,
// operator b receives 4 source tuples (SIC 0.125 each) and outputs 2
// derived tuples; operator c receives 2 source tuples (SIC 0.25 each) and
// outputs 2 derived tuples; operator a receives those 4 derived tuples
// and outputs 2 result tuples. Without shedding q_SIC = 1; with b
// shedding two inputs and a shedding one input, q_SIC = 0.5.
func TestFigure2Example(t *testing.T) {
	// Without shedding: b's outputs carry (4×0.125)/2 = 0.25 each; c's
	// outputs carry (2×0.25)/2 = 0.25 each; a's outputs carry
	// (4×0.25)/2 = 0.5 each; total = 1.
	bOut := PropagateHelper(t, 4, 0.125, 2)
	cOut := PropagateHelper(t, 2, 0.25, 2)
	if !almostEq(bOut, 0.25) || !almostEq(cOut, 0.25) {
		t.Fatalf("derived SIC: b=%g c=%g, want 0.25", bOut, cOut)
	}
	aOut := PropagateHelper(t, 4, 0.25, 2)
	if !almostEq(aOut, 0.5) {
		t.Fatalf("result SIC per tuple: %g, want 0.5", aOut)
	}
	if !almostEq(2*aOut, 1) {
		t.Fatalf("perfect q_SIC: %g, want 1", 2*aOut)
	}

	// With shedding: b keeps 2 of 4 inputs → outputs carry 0.125 each
	// (2×0.125/2); a receives 2 such tuples plus c's 2×0.25 but sheds one
	// of c's: inputs 0.125+0.125+0.25 = 0.5 → 2 results × 0.25 = 0.5.
	bShed := PropagateHelper(t, 2, 0.125, 2)
	if !almostEq(bShed, 0.125) {
		t.Fatalf("b with shedding: %g", bShed)
	}
	aIn := 2*bShed + 1*0.25
	aShed := aIn / 2
	if !almostEq(2*aShed, 0.5) {
		t.Fatalf("degraded q_SIC: %g, want 0.5", 2*aShed)
	}
}

// PropagateHelper runs n equal-SIC tuples through an Agg-like atomic
// operator emitting nOut outputs and returns the per-output SIC. It uses
// the Union operator's pass-through plus manual Eq. 3 arithmetic via a
// group aggregate with nOut groups to exercise real operator code.
func PropagateHelper(t *testing.T, n int, sic float64, nOut int) float64 {
	t.Helper()
	g := NewGroupAgg(AggAvg, stream.TumblingTime(stream.Second), 0, 1)
	in := make([]stream.Tuple, n)
	for i := range in {
		in[i] = stream.Tuple{TS: stream.Time(i + 1), SIC: sic, V: []float64{float64(i % nOut), 1}}
	}
	g.Push(0, in)
	out := tick(g, 1000)
	if len(out) != 1 || len(out[0]) != nOut {
		t.Fatalf("propagate helper: want %d outputs, got %v", nOut, out)
	}
	return out[0][0].SIC
}

func TestOutputOperator(t *testing.T) {
	o := NewOutput()
	o.Push(0, tuples(0.1, 1, 42))
	out := tick(o, 10)
	if len(out) != 1 || out[0][0].V[0] != 42 {
		t.Errorf("output: %v", out)
	}
}

func TestOperatorNames(t *testing.T) {
	win := stream.TumblingTime(stream.Second)
	cases := map[string]Operator{
		"receive":      NewReceive(),
		"union":        NewUnion(2),
		"output":       NewOutput(),
		"filter":       NewFilter(FieldAtLeast(0, 1)),
		"avg":          NewAgg(AggAvg, win, 0, nil),
		"group-max":    NewGroupAgg(AggMax, win, 0, 1),
		"join":         NewJoin(win, 0, 0),
		"top-k":        NewTopK(5, win, 0, 1),
		"partial-avg":  NewPartialAvg(win, 0),
		"avg-merge":    NewAvgMerge(win),
		"avg-finalize": NewAvgFinalize(),
		"partial-cov":  NewPartialCov(win, 0, 0),
		"cov-merge":    NewCovMerge(win),
		"cov-finalize": NewCovFinalize(),
	}
	for want, op := range cases {
		if op.Name() != want {
			t.Errorf("Name() = %q, want %q", op.Name(), want)
		}
	}
}
