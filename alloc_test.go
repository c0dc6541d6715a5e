// Allocation regression tests for the pooled data path: the steady-state
// virtual-time tick must not touch the allocator at all — plain, with
// checkpoints every tick, and with 480 monitors sharing 24 fragment
// instances — and the overloaded 24-node/48-query deployment must stay
// within a committed budget (its residue is amortised buffer growth,
// not per-tick churn). These are counts, not timings: what a step costs
// is measured by `sh bench/run.sh`.
package themis_test

import (
	"testing"

	"repro/internal/control"
	"repro/internal/cql"
	"repro/internal/federation"
	"repro/internal/sources"
	"repro/internal/stream"
)

// steadyEngine builds the small underloaded federation the
// zero-allocation gates measure: tree and chain multi-fragment queries
// plus a single-fragment aggregate across four nodes with capacity far
// above load, so the shedder never runs. checkpoint > 0 snapshots
// operator state at that cadence.
func steadyEngine(checkpoint stream.Duration) *federation.Engine {
	cfg := federation.Defaults()
	cfg.Seed = 3
	cfg.Checkpoint = checkpoint
	e := federation.NewEngine(cfg)
	e.AddNodes(4, 1e6)
	for _, sub := range []federation.QuerySubmit{
		{CQL: cql.AvgAll, Fragments: 2, Dataset: int(sources.Uniform), Placement: []stream.NodeID{0, 1}},
		{CQL: cql.Avg, Dataset: int(sources.Gaussian), Placement: []stream.NodeID{2}},
		{CQL: cql.Cov, Fragments: 2, Dataset: int(sources.Exponential), Placement: []stream.NodeID{3, 0}},
	} {
		if _, err := e.Submit(sub); err != nil {
			panic(err)
		}
	}
	return e
}

// overloadedEngine builds the constantly shedding deployment: a 24-node
// Emulab-style federation running 48 mixed complex queries of 1-3
// fragments over PlanetLab traces, each query on its own feed.
func overloadedEngine() *federation.Engine {
	const nodes, queries = 24, 48
	cfg := federation.Defaults()
	cfg.Seed = 7
	e := federation.Emulab(cfg, nodes, 2000)
	next := 0
	for i := 0; i < queries; i++ {
		k := 1 + i%3
		sub := federation.QuerySubmit{
			CQL: [...]string{cql.AvgAll, cql.Top5, cql.Cov}[i%3], Fragments: k, Dataset: int(sources.PlanetLab),
			Placement: control.RoundRobinPlacement(&next, nodes, k), Feed: i,
		}
		if _, err := e.Submit(sub); err != nil {
			panic(err)
		}
	}
	return e
}

// sharedMonitorsEngine submits n single-fragment CQL monitors of four
// shapes round-robin across 24 underloaded nodes with full sharing, so
// queries agreeing mod 24 collapse onto one executing instance.
func sharedMonitorsEngine(n int) *federation.Engine {
	const nodes = 24
	shapes := []string{
		"Select Avg(t.v) From Src [Range 2 sec Slide 500 ms]",
		"Select Count(t.v) From Src [Range 2 sec Slide 500 ms]",
		"Select Max(t.v) From Src [Range 1 sec]",
		"Select Avg(t.v) From Src [Rows 200]",
	}
	cfg := federation.Defaults()
	cfg.Seed = 11
	cfg.Sharing = federation.SharingFull
	cfg.SourceRate = 100
	e := federation.NewEngine(cfg)
	e.AddNodes(nodes, 1e9)
	for i := 0; i < n; i++ {
		if _, err := e.SubmitCQL(shapes[i%len(shapes)], 1, int(sources.Uniform), 0,
			[]stream.NodeID{stream.NodeID(i % nodes)}); err != nil {
			panic(err)
		}
	}
	return e
}

// TestSteadyStateZeroAlloc is the tentpole acceptance gate: once the
// pool is warm, a virtual-time Engine.Step performs zero heap
// allocations — batches cycle through stream.Pool, per-tick accounting
// is flat, and every emission lands in reused storage.
func TestSteadyStateZeroAlloc(t *testing.T) {
	e := steadyEngine(0)
	for i := 0; i < 400; i++ { // warm: pool, arenas, window caps stabilise
		e.Step()
	}
	if avg := testing.AllocsPerRun(400, func() { e.Step() }); avg != 0 {
		t.Fatalf("steady-state Engine.Step allocates %.2f objects/step, want 0", avg)
	}
}

// TestCheckpointSteadyStateZeroAlloc extends the gate to the checkpoint
// path (PR 8): with operator-state snapshots taken every tick, a warm
// step must still perform zero heap allocations — the engine reuses one
// snapshot encoder and the per-fragment record buffers, and the
// per-operator Snapshot implementations write into them without
// spilling per-tick scratch to the heap.
func TestCheckpointSteadyStateZeroAlloc(t *testing.T) {
	e := steadyEngine(federation.Defaults().Interval)
	for i := 0; i < 400; i++ {
		e.Step()
	}
	if avg := testing.AllocsPerRun(400, func() { e.Step() }); avg != 0 {
		t.Fatalf("checkpointing Engine.Step allocates %.2f objects/step, want 0", avg)
	}
}

// TestSteadyStateNoBatchLeak bounds the pool's outstanding-batch count
// over a long run: a missing Release anywhere in the engine/node/outbox
// chain would grow it linearly with ticks.
func TestSteadyStateNoBatchLeak(t *testing.T) {
	e := steadyEngine(0)
	for i := 0; i < 200; i++ {
		e.Step()
	}
	base := e.Pool().Live()
	for i := 0; i < 400; i++ {
		e.Step()
	}
	// In-flight traffic keeps a handful of batches checked out between
	// steps; the count must not trend with tick count.
	if live := e.Pool().Live(); live > base+64 {
		t.Fatalf("pool live batches grew %d -> %d over 400 steps: leak", base, live)
	}
}

// TestOverloadedStepAllocBudget bounds the overloaded 24-node/48-query
// deployment (constant shedding, PlanetLab traces): steady-state
// allocations per step must stay under budget. The pre-pool baseline
// was ~5200 allocs/step; the committed budget leaves room only for rare
// amortised buffer growth.
func TestOverloadedStepAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-scale deployment")
	}
	const budget = 64.0
	e := overloadedEngine()
	for i := 0; i < 340; i++ {
		e.Step()
	}
	if avg := testing.AllocsPerRun(200, func() { e.Step() }); avg > budget {
		t.Fatalf("overloaded Engine.Step allocates %.1f objects/step, budget %.0f", avg, budget)
	}
}

// TestSharedSteadyStateZeroAlloc extends the zero-alloc gate to the
// shared data path: 480 monitors riding 24 deduplicated fragment
// instances must still tick without touching the allocator — fan-out
// views, refcounted releases and per-subscriber SIC accounting all cycle
// through pooled storage.
func TestSharedSteadyStateZeroAlloc(t *testing.T) {
	e := sharedMonitorsEngine(480)
	instances, subs := 0, 0
	for ni := 0; ni < e.NumNodes(); ni++ {
		ss := e.Node(stream.NodeID(ni)).StateSize()
		instances += ss.SharedInstances
		subs += ss.Subscriptions
	}
	if instances != 24 || subs != 480-24 {
		t.Fatalf("480 monitors: %d instances, %d subscriptions; want 24 and 456", instances, subs)
	}
	for i := 0; i < 200; i++ { // warm: pool, windows, fan-out views stabilise
		e.Step()
	}
	if avg := testing.AllocsPerRun(200, func() { e.Step() }); avg != 0 {
		t.Fatalf("shared steady-state Engine.Step allocates %.2f objects/step, want 0", avg)
	}
}
