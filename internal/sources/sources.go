// Package sources implements the data sources of the THEMIS evaluation
// (§7): synthetic gaussian / uniform / exponential / mixed value streams
// with mean 50, a synthetic PlanetLab-like CPU/memory trace generator
// standing in for the CoTop dataset, and bursty rate modulation
// ("10% of the time they generate tuples at 10× their normal rate", §7.4).
//
// A Source converts a tuple rate and a value generator into timestamped
// batches (Table 2: e.g. "400 tuples/sec in 5 batches/sec of 80
// tuples/batch per source"). SIC assignment happens downstream, at the
// node that receives the source stream (see internal/node), because Eq. 1
// needs the per-STW tuple count that only the receiving node estimates.
package sources

import (
	"math/rand"

	"repro/internal/stream"
)

// Dataset enumerates the value distributions of the evaluation (§7:
// "The data in the synthetic dataset follows either a gaussian, uniform
// or exponential distribution, with a mean of 50. We also use a mixed
// synthetic dataset... The real-world dataset are measurements of CPU and
// memory-related utilisation from PlanetLab nodes").
type Dataset int

const (
	Gaussian Dataset = iota
	Uniform
	Exponential
	Mixed
	PlanetLab
)

// String names the dataset as in the paper's figure legends.
func (d Dataset) String() string {
	switch d {
	case Gaussian:
		return "gaussian"
	case Uniform:
		return "uniform"
	case Exponential:
		return "exponential"
	case Mixed:
		return "mixed"
	case PlanetLab:
		return "planetlab"
	default:
		return "unknown"
	}
}

// AllDatasets lists the datasets in the order the paper's figures use.
var AllDatasets = []Dataset{Gaussian, Uniform, Exponential, Mixed, PlanetLab}

// ValueGen produces tuple payloads a batch at a time. A source reports
// every batch it plans to its generator exactly once and in plan order —
// FillBatch when the batch is materialised, Skip when it was shed before
// any tuple existed — so a generator's state (its RNG stream, the
// autoregressive PlanetLab trace) never depends on what was shed.
// Implementations are not safe for concurrent use; each Source owns its
// generator.
type ValueGen interface {
	// FillBatch writes the payload of every tuple, in order, through its
	// V. The tuples' timestamps are already stamped.
	FillBatch(tuples []stream.Tuple)
	// Skip leaves the generator in the state FillBatch would have left it
	// in after n tuples whose first and last timestamps are given.
	Skip(first, last stream.Time, n int)
}

// GenFunc adapts a stateless per-tuple function to the ValueGen
// interface for tests and tools. Having no state, it skips for free.
type GenFunc func(ts stream.Time, v []float64)

// FillBatch implements ValueGen.
func (f GenFunc) FillBatch(tuples []stream.Tuple) {
	for i := range tuples {
		f(tuples[i].TS, tuples[i].V)
	}
}

// Skip implements ValueGen.
func (f GenFunc) Skip(_, _ stream.Time, _ int) {}

// iidGen draws independent single-field values with the paper's mean of
// 50. It skips by drawing and discarding, so its RNG stream is consumed
// identically whether a batch was kept or shed.
type iidGen struct {
	rng *rand.Rand
	d   Dataset
}

// draw returns one value of dataset d.
func (g *iidGen) draw(d Dataset) float64 {
	switch d {
	case Gaussian:
		return 50 + 15*g.rng.NormFloat64()
	case Uniform:
		return g.rng.Float64() * 100
	case Exponential:
		return g.rng.ExpFloat64() * 50
	default: // Mixed: one of the three above, chosen per tuple
		return g.draw(Dataset(g.rng.Intn(int(Mixed))))
	}
}

// FillBatch implements ValueGen.
func (g *iidGen) FillBatch(tuples []stream.Tuple) {
	for i := range tuples {
		tuples[i].V[0] = g.draw(g.d)
	}
}

// Skip implements ValueGen.
func (g *iidGen) Skip(_, _ stream.Time, n int) {
	for ; n > 0; n-- {
		g.draw(g.d)
	}
}

// NewValueGen builds a single-field generator for the given dataset with
// the paper's mean of 50. PlanetLab maps to a CPU-utilisation trace.
func NewValueGen(d Dataset, rng *rand.Rand) ValueGen {
	switch d {
	case Gaussian, Uniform, Exponential, Mixed:
		return &iidGen{rng: rng, d: d}
	case PlanetLab:
		return NewTrace(rng, 0).ScalarGen()
	default:
		panic("sources: unknown dataset")
	}
}

// BurstConfig modulates a source's rate: during a burst the rate is
// multiplied by Factor; each wall-clock second is a burst with
// probability Prob (§7.4: Factor 10, Prob 0.1).
type BurstConfig struct {
	Prob   float64
	Factor float64
}

// DefaultBurst is the paper's burstiness setting (§7.4).
var DefaultBurst = BurstConfig{Prob: 0.1, Factor: 10}

// Source generates timestamped tuple batches at a configured rate.
type Source struct {
	ID    stream.SourceID
	Query stream.QueryID
	Frag  stream.FragID
	Port  int

	// Rate is the steady tuple rate per second; BatchesPerSec controls
	// batch granularity (Table 2).
	Rate          float64
	BatchesPerSec float64
	// Arity is the payload width; Gen fills each tuple's payload.
	Arity int
	Gen   ValueGen
	// Burst, when non-nil, enables bursty emission (§7.4).
	Burst *BurstConfig

	rng        *rand.Rand
	carry      float64 // fractional tuples carried between intervals
	burstUntil stream.Time
	burstNext  stream.Time // next burst decision boundary
	bursting   bool

	plans []Plan // Plan's reusable result
}

// New constructs a source. rate and batchesPerSec must be positive; arity
// must be at least 1.
func New(id stream.SourceID, q stream.QueryID, f stream.FragID, port int,
	rate, batchesPerSec float64, arity int, gen ValueGen, seed int64) *Source {
	if rate <= 0 || batchesPerSec <= 0 || arity < 1 {
		panic("sources: invalid source configuration")
	}
	return &Source{
		ID: id, Query: q, Frag: f, Port: port,
		Rate: rate, BatchesPerSec: batchesPerSec, Arity: arity,
		Gen: gen, rng: rand.New(rand.NewSource(seed)),
	}
}

// rateAt reports the instantaneous rate at time t, applying burst
// modulation with per-second burst decisions.
func (s *Source) rateAt(t stream.Time) float64 {
	if s.Burst == nil {
		return s.Rate
	}
	for t >= s.burstNext {
		s.bursting = s.rng.Float64() < s.Burst.Prob
		s.burstNext += stream.Time(stream.Second)
	}
	if s.bursting {
		return s.Rate * s.Burst.Factor
	}
	return s.Rate
}

// Sink consumes the batches Emit generates — the eager way to run a
// source, for tools and probes that want every tuple. It is an interface
// rather than a callback so a caller emitting every tick passes a
// persistent receiver instead of constructing a capturing closure that
// would escape into Emit and allocate every interval.
type Sink interface {
	// Accept takes ownership of one emitted batch.
	Accept(s *Source, b *stream.Batch)
}

// SinkFunc adapts a function to the Sink interface for tests and tools.
type SinkFunc func(s *Source, b *stream.Batch)

// Accept implements Sink.
func (f SinkFunc) Accept(s *Source, b *stream.Batch) { f(s, b) }

// Plan is one batch a source is due to emit: N tuples with timestamps
// spread evenly across [B0, B1). Planning a batch costs a few arithmetic
// operations and touches no tuple, so a receiver that sheds from batch
// headers (internal/node) decides before anything is generated.
type Plan struct {
	B0, B1 stream.Time
	N      int
}

// last is the timestamp of the batch's final tuple.
func (p Plan) last() stream.Time {
	return p.B0 + stream.Time(float64(p.B1-p.B0)*float64(p.N-1)/float64(p.N))
}

// Plan returns the non-empty batches due in the interval [from, to), in
// timestamp order. Tuple counts follow the configured rate with
// fractional carry, so long-run counts are exact. The caller owes the
// source exactly one Fill or Skip per planned batch, in plan order. The
// returned slice is the source's scratch, valid until the next Plan.
func (s *Source) Plan(from, to stream.Time) []Plan {
	s.plans = s.plans[:0]
	if to <= from {
		return s.plans
	}
	interval := float64(to.Sub(from)) / 1000.0 // seconds
	nBatches := int(s.BatchesPerSec*interval + 0.5)
	if nBatches < 1 {
		nBatches = 1
	}
	per := float64(to-from) / float64(nBatches)
	for i := 0; i < nBatches; i++ {
		b0 := from + stream.Time(float64(i)*per)
		b1 := from + stream.Time(float64(i+1)*per)
		if i == nBatches-1 {
			b1 = to
		}
		rate := s.rateAt(b0)
		want := rate*float64(b1-b0)/1000.0 + s.carry
		n := int(want)
		s.carry = want - float64(n)
		if n > 0 {
			s.plans = append(s.plans, Plan{B0: b0, B1: b1, N: n})
		}
	}
	return s.plans
}

// Fill materialises a planned batch into tuples (len p.N, payload width
// Arity): every tuple gets its timestamp, the given SIC and its payload.
func (s *Source) Fill(p Plan, sic float64, tuples []stream.Tuple) {
	span, n := float64(p.B1-p.B0), float64(p.N)
	for j := range tuples {
		tuples[j].TS, tuples[j].SIC = p.B0+stream.Time(span*float64(j)/n), sic
	}
	s.Gen.FillBatch(tuples)
}

// Skip discards a planned batch without generating it.
func (s *Source) Skip(p Plan) { s.Gen.Skip(p.B0, p.last(), p.N) }

// Emit plans the interval [from, to) and materialises every batch,
// passing each to sink in timestamp order. Emitted tuples carry SIC 0 —
// the receiving node assigns Eq. (1) values per slide.
//
// Batches are drawn from pool when it is non-nil; the sink (or whoever
// it hands the batch to) owns them and must Release them after their
// last use. A nil pool falls back to plain allocation.
func (s *Source) Emit(from, to stream.Time, pool *stream.Pool, sink Sink) {
	for _, p := range s.Plan(from, to) {
		var b *stream.Batch
		if pool != nil {
			b = pool.Get(s.Query, s.Frag, s.ID, p.B0, p.N, s.Arity)
		} else {
			b = stream.NewBatch(s.Query, s.Frag, s.ID, p.B0, p.N, s.Arity)
		}
		b.Port = s.Port
		s.Fill(p, 0, b.Tuples)
		sink.Accept(s, b)
	}
}
