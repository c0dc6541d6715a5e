// Benchmarks regenerating every table and figure of the paper's
// evaluation (§7). Each BenchmarkFigN/BenchmarkSecNN wraps the
// corresponding runner in internal/experiments at a reduced scale; run
// cmd/themis-bench -scale=paper for the full-size series. The §7.6
// shedder-overhead comparison is additionally measured as a pair of
// micro-benchmarks over a realistic input buffer, which is the precise
// analogue of the paper's per-batch execution-time measurement.
package themis_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/stream"
)

// benchScale keeps every figure benchmark in the seconds range. The
// experiment code paths are identical to the quick/paper scales; only
// durations, rates and query counts shrink.
var benchScale = experiments.Scale{
	Name:       "bench",
	Duration:   20 * stream.Second,
	Warmup:     10 * stream.Second,
	Rate:       15,
	LoadFactor: 0.08,
}

func BenchmarkTable1QueryConstruction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table1Queries()
	}
}

func BenchmarkFig6SICCorrelationAggregate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig6(benchScale, 1)
	}
}

func BenchmarkFig7ComplexCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig7(benchScale, 1)
	}
}

func BenchmarkFig8SingleNodeFairness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig8(benchScale, 1)
	}
}

func BenchmarkFig9SheddingInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig9(benchScale, 1)
	}
}

func BenchmarkFig10FairnessVsRandom(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig10(benchScale, 1)
	}
}

func BenchmarkFig11MultiFragmentRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig11(benchScale, 1)
	}
}

func BenchmarkFig12NodeScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig12(benchScale, 1)
	}
}

func BenchmarkFig13QueryScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig13(benchScale, 1)
	}
}

func BenchmarkFig14BurstinessWAN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Fig14(benchScale, 1)
	}
}

func BenchmarkSec75RelatedWorkComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Sec75(benchScale, 1)
	}
}

func BenchmarkSec76ShedderOverheadExperiment(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Sec76(benchScale, 1)
	}
}

func BenchmarkSTWValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.STW(benchScale, 1)
	}
}

func BenchmarkAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Ablation(benchScale, 1)
	}
}

func BenchmarkDynamicWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.DynamicWorkload(benchScale, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §7.6 micro-benchmarks: per-invocation shedder cost over a
// realistic input buffer (60 queries × ~8 batches, mixed SIC values),
// the direct analogue of the paper's 0.088 ms vs 0.079 ms comparison.

// makeIB builds an input buffer resembling one shedding interval of the
// mixed workload: nq queries with 4-12 batches each of 40-60 tuples.
func makeIB(nq int, seed int64) ([]*stream.Batch, int) {
	rng := rand.New(rand.NewSource(seed))
	var ib []*stream.Batch
	total := 0
	for q := 0; q < nq; q++ {
		nb := 4 + rng.Intn(9)
		for j := 0; j < nb; j++ {
			n := 40 + rng.Intn(21)
			batch := stream.NewBatch(stream.QueryID(q), 0, stream.SourceID(q*100+j), stream.Time(j), n, 1)
			per := (0.5 + rng.Float64()) / 10000
			for i := range batch.Tuples {
				batch.Tuples[i].SIC = per
			}
			batch.RecomputeSIC()
			ib = append(ib, batch)
			total += n
		}
	}
	return ib, total
}

func benchShedder(b *testing.B, shedder core.Shedder) {
	ib, total := makeIB(60, 42)
	capacity := total / 3
	resultSIC := func(q stream.QueryID) float64 { return float64(q) / 200 }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keep := shedder.Select(ib, capacity, resultSIC)
		if len(keep) == 0 {
			b.Fatal("shedder kept nothing")
		}
	}
}

func BenchmarkSec76ShedderFair(b *testing.B) {
	benchShedder(b, core.NewBalanceSIC(1))
}

func BenchmarkSec76ShedderRandom(b *testing.B) {
	benchShedder(b, core.NewRandom(1))
}
