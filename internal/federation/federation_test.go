package federation

import (
	"math/rand"
	"testing"

	"repro/internal/cql"
	"repro/internal/sources"
	"repro/internal/stream"
)

// TestUnderloadedSICNearOne checks the §7 STW validation: with ample
// capacity, the measured result SIC of every query stays near 1
// (the paper reports 0.9700±0.0064 for STW 10 s).
func TestUnderloadedSICNearOne(t *testing.T) {
	cfg := Defaults()
	cfg.Duration = 60 * stream.Second
	cfg.Warmup = 20 * stream.Second
	cfg.Policy = PolicyKeepAll
	e := NewEngine(cfg)
	e.AddNodes(2, 1e9)
	for i := 0; i < 4; i++ {
		sub := QuerySubmit{CQL: cql.Top5, Fragments: 2, Dataset: int(sources.PlanetLab), Rate: 20, Placement: []stream.NodeID{0, 1}, Feed: i}
		if _, err := e.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Run()
	for _, q := range res.Queries {
		if q.MeanSIC < 0.90 || q.MeanSIC > 1.10 {
			t.Errorf("query %d (%s): underloaded mean SIC = %.4f, want ~1", q.ID, q.Type, q.MeanSIC)
		}
	}
}

// TestAggregateUnderloaded checks SIC ≈ 1 for the simple aggregate
// workload on the local test-bed preset.
func TestAggregateUnderloaded(t *testing.T) {
	cfg := Defaults()
	cfg.Duration = 40 * stream.Second
	cfg.Warmup = 15 * stream.Second
	cfg.Policy = PolicyKeepAll
	e, nd := LocalTestbed(cfg, 1e9)
	for _, src := range []string{cql.Avg, cql.Max, cql.Count} {
		if _, err := e.Submit(QuerySubmit{CQL: src, Dataset: int(sources.Gaussian), Placement: []stream.NodeID{nd}}); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Run()
	for _, q := range res.Queries {
		if q.MeanSIC < 0.90 || q.MeanSIC > 1.10 {
			t.Errorf("query %d (%s): underloaded mean SIC = %.4f, want ~1", q.ID, q.Type, q.MeanSIC)
		}
	}
}

// TestOverloadDegradesSIC checks that overload with any shedding policy
// yields SIC clearly below 1 and that tuples were actually shed.
func TestOverloadDegradesSIC(t *testing.T) {
	for _, pol := range []Policy{PolicyBalanceSIC, PolicyRandom} {
		cfg := Defaults()
		cfg.Duration = 40 * stream.Second
		cfg.Warmup = 15 * stream.Second
		cfg.Policy = pol
		cfg.SourceRate = 400             // Table 2 local test-bed rate
		e, nd := LocalTestbed(cfg, 2000) // 2k tuples/s capacity
		for i := 0; i < 10; i++ {        // 10 × 400 t/s demand = 4k t/s
			if _, err := e.Submit(QuerySubmit{CQL: cql.Avg, Dataset: int(sources.Uniform), Placement: []stream.NodeID{nd}, Feed: i}); err != nil {
				t.Fatal(err)
			}
		}
		res := e.Run()
		if res.MeanSIC > 0.85 {
			t.Errorf("%v: overloaded mean SIC = %.4f, want well below 1", pol, res.MeanSIC)
		}
		if res.MeanSIC < 0.2 {
			t.Errorf("%v: overloaded mean SIC = %.4f, implausibly low for 2x overload", pol, res.MeanSIC)
		}
		if res.Nodes[0].ShedTuples == 0 {
			t.Errorf("%v: no tuples shed under 2x overload", pol)
		}
	}
}

// TestBalanceBeatsRandomOnJain is the core claim of the paper (Fig. 10):
// with queries of heterogeneous rates sharing a node, BALANCE-SIC yields
// a higher Jain's index than random shedding.
func TestBalanceBeatsRandomOnJain(t *testing.T) {
	run := func(pol Policy) *Results {
		cfg := Defaults()
		cfg.Duration = 60 * stream.Second
		cfg.Warmup = 20 * stream.Second
		cfg.Policy = pol
		cfg.Seed = 7
		e, nd := LocalTestbed(cfg, 3000)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 12; i++ {
			rate := 100 + rng.Float64()*700 // heterogeneous rates
			if _, err := e.Submit(QuerySubmit{CQL: cql.Avg, Dataset: int(sources.Uniform), Rate: rate, Placement: []stream.NodeID{nd}, Feed: i}); err != nil {
				t.Fatal(err)
			}
		}
		return e.Run()
	}
	bal := run(PolicyBalanceSIC)
	rnd := run(PolicyRandom)
	t.Logf("balance-sic: mean=%.3f jain=%.3f std=%.3f", bal.MeanSIC, bal.Jain, bal.StdSIC)
	t.Logf("random:      mean=%.3f jain=%.3f std=%.3f", rnd.MeanSIC, rnd.Jain, rnd.StdSIC)
	if bal.Jain <= rnd.Jain {
		t.Errorf("BALANCE-SIC Jain %.3f not better than random %.3f", bal.Jain, rnd.Jain)
	}
	if bal.Jain < 0.9 {
		t.Errorf("BALANCE-SIC Jain %.3f, want near 1 on a single node", bal.Jain)
	}
}
