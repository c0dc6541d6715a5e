package sources

import (
	"math/rand"

	"repro/internal/stream"
)

// Trace is a synthetic stand-in for the PlanetLab CoTop CPU/memory
// utilisation dataset used by the paper (§7, [36]).
//
// Substitution rationale (see DESIGN.md §3): the evaluation needs a
// real-world-like series whose aggregate statistics (average, maximum,
// covariance) are *non-stationary*, so that randomly shedding tuples
// visibly distorts query results — unlike the stationary synthetic
// distributions, whose mean and max barely move under shedding (the
// paper makes exactly this observation for Fig. 6/7). We model each
// PlanetLab node as an AR(1) CPU-utilisation process with occasional
// regime shifts (load spikes, job arrivals/departures) and a free-memory
// series anti-correlated with CPU plus its own drift. Both series are
// heavy-tailed over time and autocorrelated, matching the qualitative
// behaviour of CoTop host metrics.
type Trace struct {
	rng *rand.Rand
	// NodeID is reported as the id field for TOP-5 style schemas.
	NodeID float64

	cpu       float64 // current CPU utilisation, percent
	cpuMean   float64 // current regime mean
	memFree   float64 // current free memory, KB
	memMean   float64 // current regime mean
	lastStep  stream.Time
	stepEvery stream.Duration
}

// NewTrace builds a trace for one emulated PlanetLab node. Distinct nodes
// should use distinct seeds (via the shared rng) so their regimes differ.
func NewTrace(rng *rand.Rand, nodeID int) *Trace {
	t := &Trace{
		rng:       rng,
		NodeID:    float64(nodeID),
		cpuMean:   20 + rng.Float64()*60,
		memMean:   80_000 + rng.Float64()*300_000,
		stepEvery: 100 * stream.Millisecond,
		lastStep:  -1,
	}
	t.cpu = t.cpuMean
	t.memFree = t.memMean
	return t
}

// step advances the AR(1) processes to time ts, one step per stepEvery.
func (t *Trace) step(ts stream.Time) {
	if t.lastStep < 0 {
		t.lastStep = ts
		return
	}
	for ts.Sub(t.lastStep) >= t.stepEvery {
		t.lastStep = t.lastStep.Add(t.stepEvery)
		// Regime shifts: a few per minute in expectation.
		if t.rng.Float64() < 0.004 {
			t.cpuMean = 5 + t.rng.Float64()*90
		}
		if t.rng.Float64() < 0.003 {
			t.memMean = 40_000 + t.rng.Float64()*400_000
		}
		// AR(1) with phi = 0.95 towards the regime mean.
		t.cpu = 0.95*t.cpu + 0.05*t.cpuMean + 2.5*t.rng.NormFloat64()
		if t.cpu < 0 {
			t.cpu = 0
		}
		if t.cpu > 100 {
			t.cpu = 100
		}
		// Free memory anti-correlates with CPU pressure.
		t.memFree = 0.97*t.memFree + 0.03*(t.memMean-800*t.cpu) + 3000*t.rng.NormFloat64()
		if t.memFree < 0 {
			t.memFree = 0
		}
	}
}

// CPU reports the CPU utilisation (percent) at logical time ts.
func (t *Trace) CPU(ts stream.Time) float64 {
	t.step(ts)
	return t.cpu
}

// MemFree reports the free memory (KB) at logical time ts. The scale is
// chosen so the paper's TOP-5 predicate "free >= 100,000" selects a
// time-varying subset of nodes.
func (t *Trace) MemFree(ts stream.Time) float64 {
	t.step(ts)
	return t.memFree
}

// traceGen adapts a Trace to the ValueGen interface, carrying one of its
// series in one of the evaluation's payload shapes. A trace moves once per
// stepEvery, so filling a batch steps it only for the tuples that cross a
// step boundary, and skipping a batch steps it to the first and the last
// timestamp: the AR(1) state after a batch depends only on where the
// batch started and ended, never on how many tuples lay between.
type traceGen struct {
	t    *Trace
	pair bool // payload is (id, value) rather than (value)
	mem  bool // value is free memory rather than CPU
}

// CPUGen returns a ValueGen producing (id, cpu) pairs for the AllSrcCPU
// stream of the TOP-5 query (Table 1).
func (t *Trace) CPUGen() ValueGen { return &traceGen{t: t, pair: true} }

// MemGen returns a ValueGen producing (id, free) pairs for the AllSrcMem
// stream of the TOP-5 query (Table 1).
func (t *Trace) MemGen() ValueGen { return &traceGen{t: t, pair: true, mem: true} }

// ScalarGen returns a single-field ValueGen carrying the CPU series, used
// when the aggregate workload runs over the planetlab dataset.
func (t *Trace) ScalarGen() ValueGen { return &traceGen{t: t} }

// FillBatch implements ValueGen.
func (g *traceGen) FillBatch(tuples []stream.Tuple) {
	t := g.t
	for i := range tuples {
		if ts := tuples[i].TS; t.lastStep < 0 || ts.Sub(t.lastStep) >= t.stepEvery {
			t.step(ts)
		}
		val := t.cpu
		if g.mem {
			val = t.memFree
		}
		if v := tuples[i].V; g.pair {
			v[0], v[1] = t.NodeID, val
		} else {
			v[0] = val
		}
	}
}

// Skip implements ValueGen. The first call anchors a trace that has never
// stepped (exactly as the first fill would), the second advances it.
func (g *traceGen) Skip(first, last stream.Time, _ int) {
	g.t.step(first)
	g.t.step(last)
}
