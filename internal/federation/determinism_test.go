package federation

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/control"
	"repro/internal/cql"
	"repro/internal/sources"
	"repro/internal/stream"
)

// detConfig is a deployment big enough to exercise multi-node routing,
// shedding and coordinator feedback, small enough to run in milliseconds.
func detConfig(policy Policy) Config {
	cfg := Defaults()
	cfg.Duration = 12 * stream.Second
	cfg.Warmup = 4 * stream.Second
	cfg.SourceRate = 20
	cfg.Policy = policy
	cfg.KeepSamples = true
	cfg.Seed = 42
	return cfg
}

// detRun builds a 16-node deployment with 24 mixed queries of 1-3
// fragments and runs it to completion.
func detRun(t *testing.T, cfg Config) *Results {
	t.Helper()
	const nodes = 16
	e := Emulab(cfg, nodes, 400)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 24; i++ {
		k := 1 + i%3
		if _, err := e.Submit(mixedSubmit(i, k, sources.PlanetLab, control.UniformPlacement(rng, nodes, k))); err != nil {
			t.Fatal(err)
		}
	}
	return e.Run()
}

// mixedSubmit is the i-th query of the complex workload, which cycles
// AVG-all, TOP-5 and COV, over k fragments on its own feed, as the paper
// figures submit it.
func mixedSubmit(i, k int, d sources.Dataset, placement []stream.NodeID) QuerySubmit {
	return QuerySubmit{CQL: [...]string{cql.AvgAll, cql.Top5, cql.Cov}[i%3], Fragments: k, Dataset: int(d), Placement: placement, Feed: i}
}

// normalize zeroes the wall-clock timing fields, the only parts of
// Results that legitimately differ between runs.
func normalize(r *Results) *Results {
	r.SelectNanosPerInvocation = 0
	for i := range r.Nodes {
		r.Nodes[i].SelectNanos = 0
	}
	return r
}

// TestDeterministicAcrossRuns verifies that a fixed seed produces
// identical Results — per-query mean SIC and samples, fairness metrics,
// node shedding counters, coordinator traffic — on repeated runs, for
// every policy.
func TestDeterministicAcrossRuns(t *testing.T) {
	for _, pol := range []Policy{PolicyBalanceSIC, PolicyRandom, PolicyKeepAll} {
		t.Run(pol.String(), func(t *testing.T) {
			a := normalize(detRun(t, detConfig(pol)))
			b := normalize(detRun(t, detConfig(pol)))
			if !reflect.DeepEqual(a, b) {
				t.Errorf("two sequential runs with seed %d differ:\n%+v\nvs\n%+v", detConfig(pol).Seed, a, b)
			}
		})
	}
}

// TestStepEquivalentToRun guards Step against drift: calling Step tick by
// tick must equal one Run.
func TestStepEquivalentToRun(t *testing.T) {
	cfg := detConfig(PolicyBalanceSIC)
	build := func() *Engine {
		e := Emulab(cfg, 4, 400)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 6; i++ {
			k := 1 + i%2
			if _, err := e.Submit(mixedSubmit(i, k, sources.PlanetLab, control.UniformPlacement(rng, 4, k))); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	a := build()
	ra := normalize(a.Run())
	b := build()
	ticks := int64(cfg.Duration) / int64(cfg.Interval)
	for i := int64(0); i < ticks; i++ {
		b.Step()
	}
	rb := normalize(b.Results())
	if !reflect.DeepEqual(ra, rb) {
		t.Error("Step-by-step execution diverges from Run")
	}
}

// bitHash folds float bits and counters into an FNV-1a hash.
type bitHash struct{ hash.Hash64 }

func (h bitHash) u(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func (h bitHash) f(v float64) { h.u(math.Float64bits(v)) }

// results folds every deterministic field of a Results, wall-clock
// fields left out.
func (h bitHash) results(r *Results) {
	h.u(uint64(r.Policy))
	h.u(uint64(len(r.Queries)))
	for _, q := range r.Queries {
		h.u(uint64(q.ID))
		h.Write([]byte(q.Type))
		h.u(uint64(q.Fragments))
		h.f(q.MeanSIC)
		h.u(uint64(len(q.Samples)))
		for _, s := range q.Samples {
			h.f(s)
		}
	}
	h.f(r.MeanSIC)
	h.f(r.Jain)
	h.f(r.StdSIC)
	h.u(uint64(len(r.Nodes)))
	for _, n := range r.Nodes {
		for _, c := range []int64{n.ArrivedTuples, n.ArrivedBatches, n.KeptTuples, n.KeptBatches,
			n.ShedTuples, n.ShedBatches, n.ShedInvocations, n.DroppedBatches, n.DroppedTuples} {
			h.u(uint64(c))
		}
		h.f(n.DroppedSIC)
	}
	h.u(uint64(r.CoordinatorMessages))
	h.u(uint64(r.CoordinatorBytes))
}

// TestEngineBitsPinned is the cross-commit oracle: an FNV-1a hash over
// the float bits and counters of five canonical runs, recorded at 72010ab
// (the last commit with the two-phase Step); CHANGES.md says why each
// re-recorded constant moved. TestDeterministicAcrossRuns
// says a commit agrees with itself; this says it agrees with its parent,
// which a refactor of Step, the ledger or the control plane must.
//
// To re-record, run the test and copy the hashes it prints. A re-record
// is a statement that the engine's numbers moved: it needs a CHANGES.md
// line saying which run moved and why.
func TestEngineBitsPinned(t *testing.T) {
	policy := func(pol Policy) func(*testing.T, bitHash) {
		return func(t *testing.T, h bitHash) { h.results(detRun(t, detConfig(pol))) }
	}
	for _, c := range []struct {
		name string
		want uint64
		run  func(t *testing.T, h bitHash)
	}{
		{"BALANCE-SIC", 0x34625e00a2dfaea1, policy(PolicyBalanceSIC)},
		{"random", 0x0e18bd91e5b902dd, policy(PolicyRandom)},
		{"keep-all", 0x31246fd92c1fe62a, policy(PolicyKeepAll)},
		{"sharing-full", 0x1f03ae6af0d47723, func(t *testing.T, h bitHash) {
			h.results(sharingRun(t, SharingFull))
		}},
		// A checkpoint every tick and the root fragment's host killed at
		// tick 30: the query's SIC at every tick through the restore, then
		// Results.
		{"churn-checkpoint", 0x96dfdd613fc2fa70, func(t *testing.T, h bitHash) {
			e, q := ckptChurnEngine(t, 2*stream.Second, 100*stream.Millisecond, 100*stream.Millisecond)
			for i := 0; i < 120; i++ {
				if i == 30 {
					e.KillNode(0)
				}
				e.Step()
				h.f(e.CurrentSIC(q))
			}
			h.results(e.Results())
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := bitHash{fnv.New64a()}
			c.run(t, h)
			if got := h.Sum64(); got != c.want {
				t.Errorf("engine bits moved: %#016x, pinned %#016x", got, c.want)
			}
		})
	}
}
