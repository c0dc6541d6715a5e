package federation

import (
	"reflect"
	"testing"

	"repro/internal/stream"
)

// Multi-query sharing tests: fragment dedup (SharingFull) must be a pure
// execution optimisation. Every CQL query draws structurally seeded
// streams whatever the mode, so private pipelines (SharingOff) are the
// answer recomputed from scratch: an underloaded federation must produce
// bit-identical per-query results and SIC trajectories under both,
// through node-failure recovery and live query churn.
// Sharing also must not leak: shared instances, subscriptions, and pooled
// batches all return to baseline when the riding queries depart, in any
// retraction order (primary first exercises promotion).

// sharingShapes rotate three monitor statements so every share group has
// several members without every query being identical.
var sharingShapes = []string{
	"Select Avg(t.v) From Src[Range 1 sec]",
	"Select Count(t.v) From Src[Range 2 sec Slide 500 ms]",
	"Select Avg(t.v) From Src[Rows 50]",
}

// sharingRun executes the canonical differential deployment: 8 nodes with
// capacity far above load (no shedding — overload responses legitimately
// differ when sharing changes per-node arrival counts), 12 queries over
// three shapes (some 2-fragment, so dedup covers leaf fragments feeding a
// merge), a node join+kill at tick 24, and live churn that submits two
// more queries at tick 20 and retracts two — including a share-group
// primary — at tick 32.
func sharingRun(t *testing.T, mode Sharing) *Results {
	t.Helper()
	cfg := Defaults()
	cfg.Duration = 15 * stream.Second
	cfg.Warmup = 4 * stream.Second
	cfg.SourceRate = 20
	cfg.KeepSamples = true
	cfg.Seed = 42
	cfg.Sharing = mode
	e := NewEngine(cfg)
	e.AddNodes(8, 1e8)
	for i := 0; i < 12; i++ {
		cqlText := sharingShapes[i%len(sharingShapes)]
		frags := 1
		if i%3 == 0 {
			frags = 2 // distributed AVG: leaf fragments feed a merge root
		}
		if _, err := e.SubmitCQL(cqlText, frags, 1, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	for tick := int64(0); tick < int64(cfg.Duration/cfg.Interval); tick++ {
		switch tick {
		case 20:
			for _, sub := range []QuerySubmit{
				{CQL: sharingShapes[0], Fragments: 2, Dataset: 1},
				{CQL: sharingShapes[1], Fragments: 1, Dataset: 1},
			} {
				if _, err := e.Submit(sub); err != nil {
					t.Fatal(err)
				}
			}
		case 24:
			e.AddNode(1e8)
			e.KillNode(2)
		case 32:
			for _, q := range []stream.QueryID{0, 5} {
				if !e.RemoveQuery(q) {
					t.Fatalf("retract of live query %d refused", q)
				}
			}
		}
		e.Step()
	}
	return e.Results()
}

// queryFacts projects the parts of Results that sharing must preserve
// exactly: every query's identity, mean SIC and full per-tick SIC series,
// the fairness metrics over them, and the coordinator traffic. Node-level
// arrival counters are excluded deliberately — processing fewer batches
// for the same results is the optimisation, not a divergence.
func queryFacts(r *Results) *Results {
	return &Results{
		Policy: r.Policy, Queries: r.Queries,
		MeanSIC: r.MeanSIC, Jain: r.Jain, StdSIC: r.StdSIC,
		CoordinatorMessages: r.CoordinatorMessages,
		CoordinatorBytes:    r.CoordinatorBytes,
	}
}

// TestSharingDifferentialBitIdentical is the acceptance test for the
// dedup layer: SharingFull equals SharingOff exactly, per query and per
// tick, through recovery and churn.
func TestSharingDifferentialBitIdentical(t *testing.T) {
	off := queryFacts(sharingRun(t, SharingOff))
	if len(off.Queries) != 14 {
		t.Fatalf("deployment drifted: %d queries, want 14", len(off.Queries))
	}
	full := queryFacts(sharingRun(t, SharingFull))
	if !reflect.DeepEqual(off, full) {
		t.Errorf("SharingFull diverges from SharingOff:\n%+v\nvs\n%+v", full, off)
	}
}

// TestSharingDedupActuallyShares guards against the trivial way to pass
// the differential test — never sharing anything. The Full deployment
// must report shared instances carrying subscriptions.
func TestSharingDedupActuallyShares(t *testing.T) {
	cfg := Defaults()
	cfg.SourceRate = 20
	cfg.Seed = 42
	cfg.Sharing = SharingFull
	e := NewEngine(cfg)
	e.AddNodes(4, 1e8)
	for i := 0; i < 8; i++ {
		if _, err := e.SubmitCQL(sharingShapes[0], 1, 1, 0, []stream.NodeID{stream.NodeID(i % 4)}); err != nil {
			t.Fatal(err)
		}
	}
	instances, subs := 0, 0
	for ni := 0; ni < e.NumNodes(); ni++ {
		ss := e.Node(stream.NodeID(ni)).StateSize()
		instances += ss.SharedInstances
		subs += ss.Subscriptions
	}
	if instances != 4 || subs != 4 {
		t.Fatalf("8 same-shape queries on 4 nodes: %d instances, %d subscriptions; want 4 and 4", instances, subs)
	}
	for i := 0; i < 20; i++ {
		e.Step()
	}
	// Every rider still gets its own results: all SICs present and equal.
	for q := stream.QueryID(0); q < 8; q++ {
		if s := e.CurrentSIC(q); s <= 0 {
			t.Errorf("query %d has no result SIC under sharing", q)
		}
	}
}

// TestSharingNonLeafDedup checks dedup reaches interior fragments: for
// same-shape 2-fragment queries pinned to the same two nodes, the merge
// root deduplicates exactly like the leaf — one executing instance per
// level, every other query riding as a subscription — and every rider
// still receives results (the root instance fans result views out).
func TestSharingNonLeafDedup(t *testing.T) {
	cfg := Defaults()
	cfg.SourceRate = 20
	cfg.Seed = 42
	cfg.Sharing = SharingFull
	e := NewEngine(cfg)
	e.AddNodes(2, 1e8)
	const n = 6
	for i := 0; i < n; i++ {
		// Fragment 0 (merge root) on node 0, fragment 1 (leaf) on node 1.
		if _, err := e.SubmitCQL(sharingShapes[0], 2, 1, 0, []stream.NodeID{0, 1}); err != nil {
			t.Fatal(err)
		}
	}
	instances, subs := 0, 0
	for ni := 0; ni < e.NumNodes(); ni++ {
		ss := e.Node(stream.NodeID(ni)).StateSize()
		instances += ss.SharedInstances
		subs += ss.Subscriptions
	}
	if instances != 2 || subs != 2*(n-1) {
		t.Fatalf("%d 2-fragment queries: %d instances, %d subscriptions; want 2 and %d (root and leaf each dedup)",
			n, instances, subs, 2*(n-1))
	}
	for i := 0; i < 30; i++ {
		e.Step()
	}
	for q := stream.QueryID(0); q < n; q++ {
		if s := e.CurrentSIC(q); s <= 0 {
			t.Errorf("query %d has no result SIC under non-leaf sharing", q)
		}
	}
}

// TestSubmitPlanCacheCounts pins the submit path's plan cache by its
// counters: N submissions of one statement plan once and hit N-1 times,
// a different shape misses once more, and a membership epoch (node
// kill) invalidates, so the next submission of a known statement plans
// again.
func TestSubmitPlanCacheCounts(t *testing.T) {
	cfg := Defaults()
	cfg.SourceRate = 20
	cfg.Seed = 42
	cfg.Sharing = SharingFull
	e := NewEngine(cfg)
	e.AddNodes(4, 1e8)
	submit := func(text string, i int) {
		t.Helper()
		if _, err := e.SubmitCQL(text, 1, 1, 0, []stream.NodeID{stream.NodeID(i % 3)}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string, misses, hits uint64) {
		t.Helper()
		if got := e.PlanCacheStats(); got.Misses != misses || got.Hits != hits {
			t.Fatalf("%s: %d misses, %d hits; want %d and %d", when, got.Misses, got.Hits, misses, hits)
		}
	}
	const n = 50
	for i := 0; i < n; i++ {
		submit(sharingShapes[0], i)
	}
	check("same statement", 1, n-1)
	submit(sharingShapes[1], 0)
	check("new shape", 2, n-1)
	// Same shape, different text: the shape-level cache still hits.
	submit("Select  Avg(t.v)  From Src[Range 1 sec]", 1)
	check("same shape, new text", 2, n)
	e.KillNode(3)
	submit(sharingShapes[0], 2)
	check("after KillNode", 3, n)
	submit(sharingShapes[0], 3)
	check("re-warmed", 3, n+1)
}

// TestSharingTeardownNoLeaks churns queries on and off shared instances —
// retracting the primary first, so promotion runs — and requires the
// federation to return to its empty footprint: no fragments, no shared
// instances, no subscriptions, and every pooled batch released.
func TestSharingTeardownNoLeaks(t *testing.T) {
	cfg := Defaults()
	cfg.SourceRate = 20
	cfg.Seed = 9
	cfg.Sharing = SharingFull
	e := NewEngine(cfg)
	e.AddNodes(4, 1e8)
	var ids []stream.QueryID
	for i := 0; i < 9; i++ {
		q, err := e.SubmitCQL(sharingShapes[i%len(sharingShapes)], 1+i%2, 1, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, q)
	}
	for i := 0; i < 30; i++ {
		e.Step()
	}
	// Primary-first teardown: queries were submitted in order, so the
	// first member of each shape group owns the shared instances.
	for _, q := range ids {
		if !e.RemoveQuery(q) {
			t.Fatalf("query %d did not remove", q)
		}
		for i := 0; i < 3; i++ {
			e.Step() // drain in-flight transit batches between removals
		}
	}
	for i := 0; i < 40; i++ {
		e.Step() // outlast link latency and any straggling updates
	}
	for ni := 0; ni < e.NumNodes(); ni++ {
		ss := e.Node(stream.NodeID(ni)).StateSize()
		if ss.Fragments != 0 || ss.Sources != 0 || ss.SharedInstances != 0 || ss.Subscriptions != 0 {
			t.Errorf("node %d retains state after full teardown: %+v", ni, ss)
		}
	}
	if live := e.Pool().Live(); live != 0 {
		t.Errorf("%d pooled batches leaked after teardown", live)
	}
}

// TestSharingPromotionKeepsResults retracts a share-group primary mid-run
// and checks the surviving subscribers keep producing the same SIC
// trajectory as an identical deployment where the primary never existed
// at the window level — i.e. results keep flowing, uninterrupted.
func TestSharingPromotionKeepsResults(t *testing.T) {
	cfg := Defaults()
	cfg.SourceRate = 20
	cfg.Seed = 5
	cfg.Sharing = SharingFull
	cfg.KeepSamples = true
	e := NewEngine(cfg)
	e.AddNodes(2, 1e8)
	var ids []stream.QueryID
	for i := 0; i < 3; i++ {
		q, err := e.SubmitCQL(sharingShapes[0], 1, 1, 0, []stream.NodeID{0})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, q)
	}
	for i := 0; i < 20; i++ {
		e.Step()
	}
	before := e.CurrentSIC(ids[1])
	if before <= 0 {
		t.Fatal("subscriber has no SIC before promotion")
	}
	if !e.RemoveQuery(ids[0]) {
		t.Fatal("primary did not remove")
	}
	ss := e.Node(0).StateSize()
	if ss.SharedInstances != 1 || ss.Subscriptions != 1 {
		t.Fatalf("after primary retract: %+v, want 1 instance with 1 subscription", ss)
	}
	for i := 0; i < 20; i++ {
		e.Step()
	}
	after := e.CurrentSIC(ids[1])
	if after < 0.9*before {
		t.Errorf("subscriber SIC collapsed across promotion: %.3f -> %.3f", before, after)
	}
	if e.CurrentSIC(ids[2]) <= 0 {
		t.Error("second subscriber lost results after promotion")
	}
}

// TestRecoveryAndSubmitInOneTickShareNothing: the engine pins a warm
// recovery and a submission made in the same tick to the same tick, and
// neither may ride the other's instance. A query submitted right after
// the kill must not ride the restored instance (it would start with
// windows its private pipeline never filled), and a fragment re-placed
// right after a same-tick submission must not ride that cold instance
// (it would turn a warm recovery cold). Either way SharingFull must stay
// bit-identical to SharingOff.
func TestRecoveryAndSubmitInOneTickShareNothing(t *testing.T) {
	const avg4 = "Select Avg(t.v) From Src[Range 4 sec]"
	run := func(mode Sharing, submitFirst bool) *Results {
		cfg := Defaults()
		cfg.Duration = 15 * stream.Second
		cfg.Warmup = 2 * stream.Second
		cfg.SourceRate = 20
		cfg.Checkpoint = stream.Second
		cfg.KeepSamples = true
		cfg.Seed = 7
		cfg.Sharing = mode
		e := NewEngine(cfg)
		e.AddNodes(3, 1e8)
		if _, err := e.Submit(QuerySubmit{CQL: avg4, Fragments: 1, Dataset: 1, Placement: []stream.NodeID{0}}); err != nil {
			t.Fatal(err)
		}
		// The recovery re-places query 0 on node 1; the submission lands
		// there too, before or after it.
		late := QuerySubmit{CQL: avg4, Fragments: 1, Dataset: 1, Placement: []stream.NodeID{1}}
		for tick := int64(0); tick < int64(cfg.Duration/cfg.Interval); tick++ {
			if tick == 20 {
				if submitFirst {
					if _, err := e.Submit(late); err != nil {
						t.Fatal(err)
					}
				}
				e.KillNode(0)
				if !submitFirst {
					if _, err := e.Submit(late); err != nil {
						t.Fatal(err)
					}
				}
				if at := e.Placement(0); at[0] != 1 {
					t.Fatalf("query 0 re-placed on node %d, want node 1", at[0])
				}
			}
			e.Step()
		}
		return e.Results()
	}
	for _, submitFirst := range []bool{false, true} {
		off := queryFacts(run(SharingOff, submitFirst))
		full := queryFacts(run(SharingFull, submitFirst))
		if !reflect.DeepEqual(off, full) {
			t.Errorf("submit first %v: SharingFull diverges from SharingOff: mean SIC %v vs %v",
				submitFirst, []float64{full.Queries[0].MeanSIC, full.Queries[1].MeanSIC},
				[]float64{off.Queries[0].MeanSIC, off.Queries[1].MeanSIC})
		}
	}
}

// TestRetractHandsInFlightInputToItsHeir: three same-shape 3-fragment
// queries share the root instance on node 0, query 2 rides query 0's
// first leaf, and query 1 rides its second; each runs its other leaf
// privately. When query 0 leaves, query 1 inherits the root and the
// second leaf and query 2 the first leaf. The leaf output in transit to
// the root is query 1's only where query 1 rode the leaf: its own first
// leaf's output is in transit too, and a second copy would double-feed
// the root, while dropping the second leaf's would starve it. Either way
// SharingFull must stay bit-identical to SharingOff.
func TestRetractHandsInFlightInputToItsHeir(t *testing.T) {
	run := func(mode Sharing) *Results {
		cfg := Defaults()
		cfg.Duration = 10 * stream.Second
		cfg.Warmup = 0
		cfg.SourceRate = 20
		cfg.KeepSamples = true
		cfg.Sharing = mode
		e := NewEngine(cfg)
		e.AddNodes(4, 1e8)
		for _, at := range [][]stream.NodeID{{0, 1, 2}, {0, 3, 2}, {0, 1, 3}} {
			if _, err := e.Submit(QuerySubmit{CQL: "Select Avg(t.v) From AllSrc[Range 1 sec]", Fragments: 3, Dataset: 1, Placement: at}); err != nil {
				t.Fatal(err)
			}
		}
		for tick := 0; tick < 40; tick++ {
			if tick == 12 && !e.RemoveQuery(0) {
				t.Fatal("retract of query 0 refused")
			}
			e.Step()
		}
		return e.Results()
	}
	if off, full := queryFacts(run(SharingOff)), queryFacts(run(SharingFull)); !reflect.DeepEqual(off, full) {
		t.Errorf("SharingFull diverges from SharingOff: mean SIC %v vs %v",
			[]float64{full.Queries[1].MeanSIC, full.Queries[2].MeanSIC}, []float64{off.Queries[1].MeanSIC, off.Queries[2].MeanSIC})
	}
}
