package sources

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// emitAll runs the source over [0, dur) in interval steps and returns all
// batches.
func emitAll(s *Source, dur, interval stream.Duration) []*stream.Batch {
	var out []*stream.Batch
	for t := stream.Time(0); t < stream.Time(dur); t += stream.Time(interval) {
		s.Emit(t, t.Add(interval), nil, SinkFunc(func(_ *Source, b *stream.Batch) { out = append(out, b) }))
	}
	return out
}

func countTuples(batches []*stream.Batch) int {
	n := 0
	for _, b := range batches {
		n += b.Len()
	}
	return n
}

func TestSourceRateAccuracy(t *testing.T) {
	gen := GenFunc(func(_ stream.Time, v []float64) { v[0] = 1 })
	s := New(1, 1, 0, 0, 400, 5, 1, gen, 42)
	batches := emitAll(s, 10*stream.Second, 250*stream.Millisecond)
	got := countTuples(batches)
	if got < 3990 || got > 4010 {
		t.Errorf("10 s at 400 t/s: got %d tuples, want ~4000", got)
	}
}

func TestSourceFractionalRateCarry(t *testing.T) {
	gen := GenFunc(func(_ stream.Time, v []float64) { v[0] = 1 })
	s := New(1, 1, 0, 0, 3, 1, 1, gen, 42) // 3 t/s in 1 batch/s
	got := countTuples(emitAll(s, 20*stream.Second, 250*stream.Millisecond))
	if got < 58 || got > 62 {
		t.Errorf("20 s at 3 t/s: got %d, want ~60", got)
	}
}

func TestSourceTimestampsWithinInterval(t *testing.T) {
	gen := GenFunc(func(_ stream.Time, v []float64) { v[0] = 1 })
	s := New(1, 1, 0, 0, 100, 4, 1, gen, 1)
	s.Emit(1000, 1250, nil, SinkFunc(func(_ *Source, b *stream.Batch) {
		for i := range b.Tuples {
			ts := b.Tuples[i].TS
			if ts < 1000 || ts >= 1250 {
				t.Fatalf("tuple TS %d outside [1000, 1250)", ts)
			}
		}
	}))
}

func TestSourceAddressing(t *testing.T) {
	gen := GenFunc(func(_ stream.Time, v []float64) { v[0] = 1 })
	s := New(9, 4, 2, 3, 100, 4, 1, gen, 1)
	s.Emit(0, 250, nil, SinkFunc(func(_ *Source, b *stream.Batch) {
		if b.Source != 9 || b.Query != 4 || b.Frag != 2 || b.Port != 3 {
			t.Fatalf("batch addressing: %+v", b)
		}
		if b.SIC != 0 {
			t.Fatalf("source batches must carry SIC 0 before stamping, got %g", b.SIC)
		}
	}))
}

func TestBurstIncreasesVolume(t *testing.T) {
	gen := GenFunc(func(_ stream.Time, v []float64) { v[0] = 1 })
	steady := New(1, 1, 0, 0, 100, 4, 1, gen, 7)
	bursty := New(2, 1, 0, 0, 100, 4, 1, gen, 7)
	bursty.Burst = &BurstConfig{Prob: 0.1, Factor: 10}
	ns := countTuples(emitAll(steady, 60*stream.Second, 250*stream.Millisecond))
	nb := countTuples(emitAll(bursty, 60*stream.Second, 250*stream.Millisecond))
	// Expected volume ratio: 0.9 + 0.1×10 = 1.9.
	ratio := float64(nb) / float64(ns)
	if ratio < 1.3 || ratio > 2.6 {
		t.Errorf("burst volume ratio: %.2f, want ~1.9", ratio)
	}
}

func TestSourceDeterminism(t *testing.T) {
	mk := func() []*stream.Batch {
		gen := NewValueGen(Gaussian, rand.New(rand.NewSource(5)))
		s := New(1, 1, 0, 0, 50, 2, 1, gen, 11)
		return emitAll(s, 5*stream.Second, 250*stream.Millisecond)
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("batch counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Len() != b[i].Len() || a[i].TS != b[i].TS {
			t.Fatalf("batch %d differs", i)
		}
		for j := range a[i].Tuples {
			if a[i].Tuples[j].V[0] != b[i].Tuples[j].V[0] {
				t.Fatalf("tuple %d/%d value differs", i, j)
			}
		}
	}
}

func TestDatasetMeans(t *testing.T) {
	// Gaussian, uniform and exponential all have mean 50 (§7).
	for _, d := range []Dataset{Gaussian, Uniform, Exponential, Mixed} {
		gen := NewValueGen(d, rand.New(rand.NewSource(3)))
		var sum float64
		const n = 20000
		b := stream.NewBatch(0, 0, 0, 0, n, 1)
		gen.FillBatch(b.Tuples)
		for i := range b.Tuples {
			sum += b.Tuples[i].V[0]
		}
		mean := sum / n
		if math.Abs(mean-50) > 3 {
			t.Errorf("%v: mean %.2f, want ~50", d, mean)
		}
	}
}

func TestDatasetNames(t *testing.T) {
	want := []string{"gaussian", "uniform", "exponential", "mixed", "planetlab"}
	for i, d := range AllDatasets {
		if d.String() != want[i] {
			t.Errorf("dataset %d: %q, want %q", i, d.String(), want[i])
		}
	}
	if Dataset(99).String() != "unknown" {
		t.Error("unknown dataset name")
	}
}

func TestTraceRanges(t *testing.T) {
	tr := NewTrace(rand.New(rand.NewSource(4)), 3)
	var minCPU, maxCPU float64 = 100, 0
	var sawLowMem, sawHighMem bool
	for ts := stream.Time(0); ts < stream.Time(5*stream.Minute); ts += 100 {
		cpu := tr.CPU(ts)
		if cpu < 0 || cpu > 100 {
			t.Fatalf("cpu %g out of [0,100]", cpu)
		}
		minCPU = math.Min(minCPU, cpu)
		maxCPU = math.Max(maxCPU, cpu)
		mem := tr.MemFree(ts)
		if mem < 0 {
			t.Fatalf("negative free memory %g", mem)
		}
		if mem < 100_000 {
			sawLowMem = true
		}
		if mem >= 100_000 {
			sawHighMem = true
		}
	}
	if maxCPU-minCPU < 10 {
		t.Errorf("cpu trace too flat: range [%.1f, %.1f]", minCPU, maxCPU)
	}
	// The TOP-5 predicate free >= 100,000 must be selective: both sides
	// of the threshold should occur over time.
	if !sawLowMem || !sawHighMem {
		t.Errorf("memory trace never crosses the 100,000 threshold (low=%v high=%v)", sawLowMem, sawHighMem)
	}
}

func TestTraceGens(t *testing.T) {
	tr := NewTrace(rand.New(rand.NewSource(8)), 5)
	one := func(gen ValueGen, ts stream.Time, arity int) []float64 {
		b := stream.NewBatch(0, 0, 0, ts, 1, arity)
		b.Tuples[0].TS = ts
		gen.FillBatch(b.Tuples)
		return b.Tuples[0].V
	}
	v := one(tr.CPUGen(), 100, 2)
	if v[0] != 5 {
		t.Errorf("CPUGen id: %g, want 5", v[0])
	}
	if v[1] < 0 || v[1] > 100 {
		t.Errorf("CPUGen cpu out of range: %g", v[1])
	}
	v = one(tr.MemGen(), 200, 2)
	if v[0] != 5 || v[1] < 0 {
		t.Errorf("MemGen: %v", v)
	}
	s := one(tr.ScalarGen(), 300, 1)
	if s[0] < 0 || s[0] > 100 {
		t.Errorf("ScalarGen: %g", s[0])
	}
}

func TestInvalidSourceConfigPanics(t *testing.T) {
	gen := GenFunc(func(_ stream.Time, v []float64) {})
	for _, bad := range []func(){
		func() { New(1, 1, 0, 0, 0, 5, 1, gen, 1) },  // zero rate
		func() { New(1, 1, 0, 0, 10, 0, 1, gen, 1) }, // zero batches/sec
		func() { New(1, 1, 0, 0, 10, 5, 0, gen, 1) }, // zero arity
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid source config should panic")
				}
			}()
			bad()
		}()
	}
}
