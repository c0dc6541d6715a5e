package sources

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// genCases is every generator construction the evaluation uses: the five
// datasets through NewValueGen and the three Trace adapters.
var genCases = func() []genCase {
	cases := []genCase{
		{"trace-scalar", 1, func(r *rand.Rand) ValueGen { return NewTrace(r, 7).ScalarGen() }},
		{"trace-cpu", 2, func(r *rand.Rand) ValueGen { return NewTrace(r, 7).CPUGen() }},
		{"trace-mem", 2, func(r *rand.Rand) ValueGen { return NewTrace(r, 7).MemGen() }},
	}
	for _, d := range AllDatasets {
		cases = append(cases, genCase{d.String(), 1, func(r *rand.Rand) ValueGen { return NewValueGen(d, r) }})
	}
	return cases
}()

type genCase struct {
	name  string
	arity int
	mk    func(*rand.Rand) ValueGen
}

// twin builds two identically seeded bursty sources over the case's
// generator: 1,200 t/s in 12 batches/s, so that at 250 ms ticks some
// batches straddle the trace's 100 ms step boundaries and others do not.
func (c genCase) twin() (a, b *Source) {
	mk := func() *Source {
		s := New(1, 1, 0, 0, 1200, 12, c.arity, c.mk(rand.New(rand.NewSource(21))), 22)
		s.Burst = &BurstConfig{Prob: 0.3, Factor: 10}
		return s
	}
	return mk(), mk()
}

// eachPlan steps both twins through 20 s of 250 ms ticks, checks they
// plan identically, and hands every planned batch to fn.
func eachPlan(t *testing.T, a, b *Source, fn func(idx int, p Plan)) {
	t.Helper()
	idx := 0
	for from := stream.Time(0); from < stream.Time(20*stream.Second); from += 250 {
		pa := append([]Plan(nil), a.Plan(from, from+250)...)
		pb := b.Plan(from, from+250)
		if fmt.Sprint(pa) != fmt.Sprint(pb) {
			t.Fatalf("tick %d: twins planned differently: %v vs %v", from, pa, pb)
		}
		for _, p := range pa {
			fn(idx, p)
			idx++
		}
	}
	if idx < 240 {
		t.Fatalf("only %d batches planned", idx)
	}
}

func sameTuples(t *testing.T, what string, got, want []stream.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tuples, want %d", what, len(got), len(want))
	}
	for j := range want {
		if got[j].TS != want[j].TS || got[j].SIC != want[j].SIC || fmt.Sprint(got[j].V) != fmt.Sprint(want[j].V) {
			t.Fatalf("%s tuple %d: got %+v, want %+v", what, j, got[j], want[j])
		}
	}
}

// TestFillBatchMatchesPerTupleFill pins FillBatch ≡ n ordered one-tuple
// fills: the reference stamps each tuple itself and asks the generator
// for one payload at a time.
func TestFillBatchMatchesPerTupleFill(t *testing.T) {
	for _, c := range genCases {
		t.Run(c.name, func(t *testing.T) {
			a, b := c.twin()
			eachPlan(t, a, b, func(idx int, p Plan) {
				got := stream.NewBatch(0, 0, 0, p.B0, p.N, c.arity).Tuples
				a.Fill(p, 0.25, got)
				want := stream.NewBatch(0, 0, 0, p.B0, p.N, c.arity).Tuples
				for j := range want {
					want[j].TS = p.B0 + stream.Time(float64(p.B1-p.B0)*float64(j)/float64(p.N))
					want[j].SIC = 0.25
					b.Gen.FillBatch(want[j : j+1])
				}
				sameTuples(t, fmt.Sprintf("batch %d", idx), got, want)
			})
		})
	}
}

// TestSkipMatchesDiscardedFills pins Skip ≡ fills nobody reads: the
// reference generates every batch, the subject skips about 70% of them —
// always including the very first, which must anchor a never-stepped
// trace exactly as a fill would — and every batch the subject does
// generate must equal the reference's.
func TestSkipMatchesDiscardedFills(t *testing.T) {
	for _, c := range genCases {
		t.Run(c.name, func(t *testing.T) {
			a, b := c.twin()
			shed := rand.New(rand.NewSource(5))
			kept := 0
			eachPlan(t, a, b, func(idx int, p Plan) {
				want := stream.NewBatch(0, 0, 0, p.B0, p.N, c.arity).Tuples
				a.Fill(p, 0.25, want)
				if idx == 0 || shed.Float64() < 0.7 {
					b.Skip(p)
					return
				}
				kept++
				got := stream.NewBatch(0, 0, 0, p.B0, p.N, c.arity).Tuples
				b.Fill(p, 0.25, got)
				sameTuples(t, fmt.Sprintf("batch %d", idx), got, want)
			})
			if kept < 40 {
				t.Fatalf("only %d batches compared", kept)
			}
		})
	}
}

// TestEmitIsPlanThenFill pins Emit to the planning loop the node uses:
// same batches, same headers, same tuples.
func TestEmitIsPlanThenFill(t *testing.T) {
	c := genCases[1]
	a, b := c.twin()
	for from := stream.Time(0); from < 5000; from += 250 {
		var want []*stream.Batch
		a.Emit(from, from+250, nil, SinkFunc(func(_ *Source, b *stream.Batch) { want = append(want, b) }))
		plans := b.Plan(from, from+250)
		if len(plans) != len(want) {
			t.Fatalf("tick %d: %d plans, %d emitted batches", from, len(plans), len(want))
		}
		for i, p := range plans {
			got := stream.NewBatch(0, 0, 0, p.B0, p.N, c.arity).Tuples
			b.Fill(p, 0, got)
			if want[i].TS != p.B0 || want[i].SIC != 0 {
				t.Fatalf("tick %d batch %d: header TS %d SIC %g", from, i, want[i].TS, want[i].SIC)
			}
			sameTuples(t, fmt.Sprintf("tick %d batch %d", from, i), got, want[i].Tuples)
		}
	}
}

// BenchmarkSourceEmit is the layer benchmark behind
// sources.emit_ns_per_tuple: one PlanetLab scalar source at 1,200 t/s in
// 12 batches/s, emitted in 250 ms ticks through a pool.
func BenchmarkSourceEmit(b *testing.B) {
	pool := stream.NewPool()
	src := New(0, 0, 0, 0, 1200, 12, 1, NewValueGen(PlanetLab, rand.New(rand.NewSource(1))), 2)
	tuples := 0
	sink := SinkFunc(func(_ *Source, bb *stream.Batch) {
		tuples += bb.Len()
		bb.Release()
	})
	emit := func(i int) {
		from := stream.Time(i) * 250
		src.Emit(from, from+250, pool, sink)
	}
	emit(0) // warm the pool and the plan scratch
	tuples = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		emit(i)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tuples), "ns/tuple")
}
