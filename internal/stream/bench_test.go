package stream

import "testing"

// The layer benchmarks reproduce the bench harness's stream probes with
// `go test -bench`: 100-tuple arity-1 batches, the shape of one source
// batch on the canonical 24x48 workloads.
const benchBatchLen = 100

var benchSink int

func BenchmarkPoolGetRelease(b *testing.B) {
	p := NewPool()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bt := p.Get(0, 0, 0, Time(i), benchBatchLen, 1)
		benchSink += bt.Len()
		bt.Release()
	}
}

// BenchmarkWindowPushTick drives a 1 s tumbling window with 250 ms ticks
// of three in-order batches each; one op is one tick.
func BenchmarkWindowPushTick(b *testing.B) {
	const perTick = 3
	const span = 250 * Millisecond / perTick
	batches := make([][]Tuple, 4*perTick)
	for i := range batches {
		bt := NewBatch(0, 0, 0, 0, benchBatchLen, 1)
		for j := range bt.Tuples {
			bt.Tuples[j].TS = Time(int64(span) * int64(j) / benchBatchLen)
			bt.Tuples[j].SIC = 1e-4
			bt.Tuples[j].V[0] = float64(i*benchBatchLen + j)
		}
		batches[i] = bt.Tuples
	}
	wb := NewWindowBuffer(TumblingTime(Second))
	emit := func(win []Tuple, _ Time) { benchSink += len(win) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < perTick; k++ {
			in := batches[(i*perTick+k)%len(batches)]
			shift := Time(i)*Time(250*Millisecond) + Time(k)*Time(span) - in[0].TS
			for j := range in {
				in[j].TS += shift
			}
			wb.Push(in)
		}
		wb.Tick(Time(i+1)*Time(250*Millisecond), emit)
	}
}
