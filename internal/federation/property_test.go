package federation

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/control"
	"repro/internal/cql"
	"repro/internal/sources"
	"repro/internal/stream"
)

// End-to-end invariants checked over randomly-generated deployments.

// TestUnderloadPerfectSICProperty: with effectively infinite capacity,
// any mix of workloads, fragmentations and placements measures result SIC
// ≈ 1 for every query (Eq. 2's perfect-processing case) — the system-wide
// conservation law behind the SIC metric.
func TestUnderloadPerfectSICProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep in -short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Defaults()
		cfg.Duration = 40 * stream.Second
		cfg.Warmup = 15 * stream.Second
		cfg.Policy = PolicyKeepAll
		cfg.Seed = seed
		cfg.SourceRate = 10 + rng.Float64()*40
		nodes := 2 + rng.Intn(3)
		e := NewEngine(cfg)
		e.AddNodes(nodes, 1e12)
		nq := 2 + rng.Intn(4)
		for i := 0; i < nq; i++ {
			k := 1 + rng.Intn(nodes)
			sub := mixedSubmit(rng.Intn(3), k, sources.AllDatasets[rng.Intn(len(sources.AllDatasets))], control.UniformPlacement(rng, nodes, k))
			sub.Feed = i
			if _, err := e.Submit(sub); err != nil {
				return false
			}
		}
		res := e.Run()
		for _, q := range res.Queries {
			if q.MeanSIC < 0.90 || q.MeanSIC > 1.10 {
				t.Logf("seed %d: query %d (%s, %d frags) SIC %.4f", seed, q.ID, q.Type, q.Fragments, q.MeanSIC)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// TestOverloadSICMatchesCapacityShareProperty: on one node with identical
// queries, mean SIC must approximate the capacity/demand ratio — the
// shedder neither wastes nor conjures processing.
func TestOverloadSICMatchesCapacityShareProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep in -short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Defaults()
		cfg.Duration = 40 * stream.Second
		cfg.Warmup = 15 * stream.Second
		cfg.Seed = seed
		cfg.SourceRate = 40
		nq := 2 + rng.Intn(5)
		demand := float64(nq) * 10 * cfg.SourceRate // AVG-all: 10 sources
		share := 0.2 + rng.Float64()*0.6
		e := NewEngine(cfg)
		nd := e.AddNode(share * demand)
		for i := 0; i < nq; i++ {
			if _, err := e.Submit(QuerySubmit{CQL: cql.AvgAll, Dataset: int(sources.Uniform), Placement: []stream.NodeID{nd}, Feed: i}); err != nil {
				return false
			}
		}
		res := e.Run()
		// Allow batch-granularity and warm-up slack.
		if res.MeanSIC < share*0.75-0.05 || res.MeanSIC > share*1.25+0.05 {
			t.Logf("seed %d: share %.2f but mean SIC %.3f", seed, share, res.MeanSIC)
			return false
		}
		return res.Jain > 0.95
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
