package operator_test

import (
	"math/rand"
	"testing"

	"repro/internal/cql"
	"repro/internal/operator"
	"repro/internal/query"
	"repro/internal/sources"
	"repro/internal/stream"
)

// Micro-benchmarks for the operator hot paths: these dominate a node's
// per-tuple processing cost, which the cost model abstracts as the
// average time per tuple (§6).

func benchInput(n int, arity int, rng *rand.Rand) []stream.Tuple {
	backing := make([]float64, n*arity)
	out := make([]stream.Tuple, n)
	for i := range out {
		v := backing[i*arity : (i+1)*arity]
		for j := range v {
			v[j] = rng.Float64() * 100
		}
		out[i] = stream.Tuple{TS: stream.Time(i), SIC: 0.001, V: v}
	}
	return out
}

func drain(op operator.Operator, now stream.Time) int {
	n := 0
	op.Tick(now, func(b []stream.Tuple) { n += len(b) })
	return n
}

func BenchmarkAggAvgWindow(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	in := benchInput(1000, 1, rng)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := operator.NewAgg(operator.AggAvg, stream.TumblingTime(stream.Second), 0, nil)
		a.Push(0, in)
		drain(a, 1000)
	}
}

func BenchmarkFilterThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	in := benchInput(1000, 1, rng)
	f := operator.NewFilter(operator.FieldAtLeast(0, 50))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Push(0, in)
		drain(f, stream.Time(i))
	}
}

func BenchmarkJoinWindow(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	left := benchInput(200, 2, rng)
	right := benchInput(200, 2, rng)
	for i := range left {
		left[i].V[0] = float64(i % 50)
	}
	for i := range right {
		right[i].V[0] = float64(i % 50)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := operator.NewJoin(stream.TumblingTime(stream.Second), 0, 0)
		j.Push(0, left)
		j.Push(1, right)
		drain(j, 1000)
	}
}

func BenchmarkTopKWindow(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	in := benchInput(1000, 2, rng)
	for i := range in {
		in[i].V[0] = float64(i % 100)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := operator.NewTopK(5, stream.TumblingTime(stream.Second), 0, 1)
		k.Push(0, in)
		drain(k, 1000)
	}
}

func BenchmarkGroupAvgWindow(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	in := benchInput(1000, 2, rng)
	for i := range in {
		in[i].V[0] = float64(i % 20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := operator.NewGroupAgg(operator.AggAvg, stream.TumblingTime(stream.Second), 0, 1)
		g.Push(0, in)
		drain(g, 1000)
	}
}

// BenchmarkMixKeepAll is the keep-all path of the Table 1 complex mix:
// one tick's source input (250 ms at 1,200 tuples/s per source, PlanetLab
// values, restamped every tick) pushed through the single fragment of each MIX statement as the
// CQL planner builds it, then ticked. Once the windows have turned over it
// must not allocate.
func BenchmarkMixKeepAll(b *testing.B) {
	const (
		tick     = 250 * stream.Millisecond
		perBatch = 300
	)
	for _, mix := range []struct{ name, text string }{
		{"avg", "Select Avg(t.v) From AllSrc[Range 1 sec]"},
		{"top5", "Select Top5(AllSrcCPU.id) From AllSrcCPU[Range 1 sec], AllSrcMem[Range 1 sec] Where AllSrcCPU.id = AllSrcMem.id"},
		{"cov", "Select Cov(SrcCPU1.value, SrcCPU2.value) From SrcCPU1[Range 1 sec], SrcCPU2[Range 1 sec]"},
	} {
		b.Run(mix.name, func(b *testing.B) {
			plan, _, err := cql.NewPlanCache().PlanDistributed(mix.text, cql.DefaultCatalog(sources.PlanetLab), "planetlab", 1)
			if err != nil {
				b.Fatal(err)
			}
			fp := plan.Fragments[0]
			exec := query.NewFragmentExec(fp)
			rng := rand.New(rand.NewSource(6))
			in := make([][]stream.Tuple, len(fp.Sources))
			for i, ss := range fp.Sources {
				in[i] = benchInput(perBatch, ss.Arity, rng)
				ss.NewGen(rand.New(rand.NewSource(rng.Int63())), i).FillBatch(in[i])
			}
			emitted := 0
			sink := func(out []stream.Tuple) { emitted += len(out) }
			step := func(n int) {
				from := stream.Time(n) * stream.Time(tick)
				for i, ss := range fp.Sources {
					for j := range in[i] {
						in[i][j].TS = from + stream.Time(j)*stream.Time(tick)/perBatch
					}
					exec.Push(ss.Port, in[i])
				}
				exec.Tick(from+stream.Time(tick), sink)
			}
			const warm = 12 // three windows
			for n := 0; n < warm; n++ {
				step(n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				step(warm + n)
			}
			b.StopTimer()
			if emitted == 0 {
				b.Fatal("the fragment emitted nothing")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perBatch*len(fp.Sources)), "ns/tuple")
		})
	}
}
