package federation

import (
	"testing"

	"repro/internal/cql"
	"repro/internal/sources"
	"repro/internal/stream"
)

// Query churn tests: the FSPS must absorb arrivals and departures
// mid-run (§5: "any converged SIC values would depend on several, often
// time-changing, factors such as queries' arrivals and departures").

func TestQueryDepartureFreesCapacity(t *testing.T) {
	cfg := Defaults()
	cfg.Duration = 60 * stream.Second
	cfg.Warmup = 10 * stream.Second
	cfg.SourceRate = 40
	e := NewEngine(cfg)
	nd := e.AddNode(800) // half of the 4 × 400 t/s demand
	ids := make([]stream.QueryID, 4)
	for i := range ids {
		id, err := e.Submit(QuerySubmit{CQL: cql.AvgAll, Dataset: int(sources.Uniform), Placement: []stream.NodeID{nd}, Feed: i})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	// First half of the run: all four queries, ~0.5 SIC each.
	half := int64(30 * stream.Second / cfg.Interval)
	for i := int64(0); i < half; i++ {
		e.Step()
	}
	// Two queries depart; the survivors should climb towards 1.
	e.RemoveQuery(ids[0])
	e.RemoveQuery(ids[1])
	ticks := int64(cfg.Duration/cfg.Interval) - half
	for i := int64(0); i < ticks; i++ {
		e.Step()
	}
	res := e.Results()
	// Survivors' time-averaged SIC mixes both phases; their final sliding
	// SIC must be near 1. Use the samples for a final-phase check.
	cfg2 := cfg
	cfg2.KeepSamples = true
	_ = cfg2
	if res.Queries[2].MeanSIC <= res.Queries[0].MeanSIC {
		t.Errorf("survivor SIC %.3f not above departed query's %.3f",
			res.Queries[2].MeanSIC, res.Queries[0].MeanSIC)
	}
	st := e.Node(nd).Stats()
	if st.ShedTuples == 0 {
		t.Error("no shedding in phase one")
	}
}

// TestQueryRetractedBeforeWarmupIsUnmeasured: a query removed before its
// warmup ends has no sample, so its result reads mean 0 with Measured
// false, while the query that ran on is measured.
func TestQueryRetractedBeforeWarmupIsUnmeasured(t *testing.T) {
	cfg := Defaults()
	cfg.Duration = 10 * stream.Second
	cfg.Warmup = 5 * stream.Second
	e := NewEngine(cfg)
	nd := e.AddNode(800)
	ids := make([]stream.QueryID, 2)
	for i := range ids {
		id, err := e.Submit(QuerySubmit{CQL: cql.AvgAll, Dataset: int(sources.Uniform), Placement: []stream.NodeID{nd}, Feed: i})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i := int64(0); i < int64(cfg.Duration/cfg.Interval); i++ {
		if i == 4 {
			e.RemoveQuery(ids[1])
		}
		e.Step()
	}
	res := e.Results()
	if q := res.Queries[0]; !q.Measured || q.MeanSIC <= 0 {
		t.Errorf("query %d ran the whole run: measured %v, mean %v", q.ID, q.Measured, q.MeanSIC)
	}
	if q := res.Queries[1]; q.Measured || q.MeanSIC != 0 {
		t.Errorf("query %d removed before its warmup: measured %v, mean %v; want false, 0", q.ID, q.Measured, q.MeanSIC)
	}
}

func TestQueryDepartureFinalSIC(t *testing.T) {
	cfg := Defaults()
	cfg.Duration = 80 * stream.Second
	cfg.Warmup = 10 * stream.Second
	cfg.SourceRate = 40
	cfg.KeepSamples = true
	e := NewEngine(cfg)
	nd := e.AddNode(800)
	ids := make([]stream.QueryID, 4)
	for i := range ids {
		ids[i], _ = e.Submit(QuerySubmit{CQL: cql.AvgAll, Dataset: int(sources.Uniform), Placement: []stream.NodeID{nd}, Feed: i})
	}
	half := int64(40 * stream.Second / cfg.Interval)
	for i := int64(0); i < half; i++ {
		e.Step()
	}
	e.RemoveQuery(ids[0])
	e.RemoveQuery(ids[1])
	for i := half; i < int64(cfg.Duration/cfg.Interval); i++ {
		e.Step()
	}
	res := e.Results()
	samples := res.Queries[3].Samples
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	final := samples[len(samples)-1]
	if final < 0.85 {
		t.Errorf("survivor's final sliding SIC %.3f, want ~1 after departures freed capacity", final)
	}
	first := samples[0]
	if first > 0.75 {
		t.Errorf("phase-one SIC %.3f suspiciously high for 2x overload", first)
	}
}

func TestLateArrivalConverges(t *testing.T) {
	cfg := Defaults()
	cfg.Duration = 60 * stream.Second
	cfg.Warmup = 10 * stream.Second
	cfg.SourceRate = 40
	cfg.KeepSamples = true
	e := NewEngine(cfg)
	// Capacity for one query: the arrival halves both queries' share.
	nd := e.AddNode(400)
	if _, err := e.Submit(QuerySubmit{CQL: cql.AvgAll, Dataset: int(sources.Uniform), Placement: []stream.NodeID{nd}}); err != nil {
		t.Fatal(err)
	}
	half := int64(30 * stream.Second / cfg.Interval)
	for i := int64(0); i < half; i++ {
		e.Step()
	}
	// A second identical query arrives mid-run.
	late, err := e.Submit(QuerySubmit{CQL: cql.AvgAll, Dataset: int(sources.Uniform), Placement: []stream.NodeID{nd}, Feed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := half; i < int64(cfg.Duration/cfg.Interval); i++ {
		e.Step()
	}
	res := e.Results()
	var lateSamples []float64
	for _, q := range res.Queries {
		if q.ID == late {
			lateSamples = q.Samples
		}
	}
	if len(lateSamples) < 10 {
		t.Fatal("late query has no samples")
	}
	final := lateSamples[len(lateSamples)-1]
	if final < 0.25 || final > 0.75 {
		t.Errorf("late arrival's final SIC %.3f, want ~0.5 (fair share of 2x overload)", final)
	}
}

func TestRemoveQueryIdempotentAndUnknown(t *testing.T) {
	cfg := Defaults()
	cfg.SourceRate = 40
	e := NewEngine(cfg)
	nd := e.AddNode(500)
	id, _ := e.Submit(QuerySubmit{CQL: cql.AvgAll, Dataset: int(sources.Uniform), Placement: []stream.NodeID{nd}})
	e.RemoveQuery(id)
	e.RemoveQuery(id)  // idempotent
	e.RemoveQuery(999) // unknown: no-op
	e.Step()           // must not panic with zero hosted queries
}

// --- node churn (AddNode and KillNode between Steps): the virtual-time
// mirror of the TCP transport's failure recovery ---

// churnEngine builds an underloaded federation whose SIC sits near 1 in
// steady state, so recovery is visible as a dip-and-return.
func churnEngine(t *testing.T, nodes int) (*Engine, stream.QueryID) {
	t.Helper()
	cfg := Defaults()
	cfg.STW = 2 * stream.Second
	cfg.Interval = 100 * stream.Millisecond
	cfg.SourceRate = 50
	cfg.Seed = 3
	e := NewEngine(cfg)
	e.AddNodes(nodes, 50_000)
	q, err := e.Submit(QuerySubmit{CQL: cql.AvgAll, Fragments: 3, Dataset: int(sources.Uniform), Placement: []stream.NodeID{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return e, q
}

// TestNodeKillRecovery kills a fragment host mid-run: the engine must
// re-place the displaced fragment on the spare node, reset the query's
// SIC at the recovery epoch, and climb back to near-perfect processing
// once the STW refills.
func TestNodeKillRecovery(t *testing.T) {
	const killTick = 60
	e, q := churnEngine(t, 4)
	for i := 0; i < killTick; i++ {
		e.Step()
	}
	if pre := e.CurrentSIC(q); pre < 0.9 {
		t.Fatalf("pre-kill SIC %.3f: federation not in steady state", pre)
	}
	e.KillNode(1)
	e.Step()
	if p := e.Placement(q); p[1] != 3 {
		t.Fatalf("fragment 1 placed on node %d after kill, want spare node 3 (placement %v)", p[1], p)
	}
	if e.NodeAlive(1) {
		t.Fatal("killed node still reported alive")
	}
	if post := e.CurrentSIC(q); post > 0.5 {
		t.Errorf("SIC %.3f right after the recovery epoch: accumulator not reset", post)
	}
	// One STW plus slack for the re-placed sources to warm up.
	for i := 0; i < 60; i++ {
		e.Step()
	}
	if rec := e.CurrentSIC(q); rec < 0.9 {
		t.Errorf("post-recovery SIC %.3f, want ≥ 0.9: displaced fragment's partials not flowing", rec)
	}
}

// TestNodeJoinAdoptsFragments joins a replacement just before a host is
// killed, in the same tick: the joiner is the only eligible survivor and
// must adopt the displaced fragment.
func TestNodeJoinAdoptsFragments(t *testing.T) {
	const killTick = 40
	e, q := churnEngine(t, 3)
	for i := 0; i < killTick; i++ {
		e.Step()
	}
	e.AddNode(50_000)
	e.KillNode(2)
	e.Step()
	if p := e.Placement(q); p[2] != 3 {
		t.Fatalf("fragment 2 on node %d, want joined node 3 (placement %v)", p[2], p)
	}
	for i := 0; i < 60; i++ {
		e.Step()
	}
	if rec := e.CurrentSIC(q); rec < 0.9 {
		t.Errorf("post-join SIC %.3f, want ≥ 0.9", rec)
	}
}

// TestKillUnrecoverableQueryDeparts kills a host with no survivors left
// to take its fragment: the query departs and the federation keeps
// running instead of panicking.
func TestKillUnrecoverableQueryDeparts(t *testing.T) {
	e, q := churnEngine(t, 3)
	for i := 0; i < 40; i++ {
		if i == 20 {
			e.KillNode(2)
		}
		e.Step()
	}
	if got := e.CurrentSIC(q); got != 0 {
		t.Errorf("departed query still reports SIC %.3f", got)
	}
	res := e.Results()
	if len(res.Queries) != 1 {
		t.Fatalf("results lost the departed query's record: %+v", res.Queries)
	}
}

// TestChurnDeterminism: the same churn schedule under the same seed must
// yield bit-identical results twice — re-placement through a kill draws
// on nothing but the seed.
func TestChurnDeterminism(t *testing.T) {
	run := func() float64 {
		cfg := Defaults()
		cfg.STW = 2 * stream.Second
		cfg.Interval = 100 * stream.Millisecond
		cfg.SourceRate = 50
		cfg.Seed = 3
		e := NewEngine(cfg)
		e.AddNodes(4, 900) // overloaded: shedding decisions must also replay identically
		q, err := e.Submit(QuerySubmit{CQL: cql.AvgAll, Fragments: 3, Dataset: int(sources.Uniform), Placement: []stream.NodeID{0, 1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 120; i++ {
			if i == 30 {
				e.KillNode(1)
			}
			e.Step()
		}
		return e.CurrentSIC(q)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("churn run diverged between two runs of one seed: %v vs %v", a, b)
	}
}
