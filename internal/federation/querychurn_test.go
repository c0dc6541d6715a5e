package federation

import (
	"math"
	"testing"

	"repro/internal/stream"
)

// Query-churn tests: the engine-side mirror of Controller.Submit/Retract.
// A submission between two Steps plans CQL with the same deterministic
// planner transport hosts run, places over the live membership, and
// deploys mid-run; retracts tear queries down and free their runtime
// state.

const churnAvgCQL = "Select Avg(t.v) From Src[Range 1 sec]"

// churnScheduleConfig is the shared base for the churn tests: one
// comfortable node, fine-grained batches.
func churnScheduleConfig() Config {
	cfg := Defaults()
	cfg.Interval = 100 * stream.Millisecond
	cfg.STW = 2 * stream.Second
	cfg.SourceRate = 50
	cfg.BatchesPerSec = 5
	cfg.Seed = 7
	return cfg
}

// stepTo steps the engine until tick is the next one to run, so a call
// made after it lands at the start of that tick.
func stepTo(e *Engine, tick int64) {
	for e.tick < tick {
		e.Step()
	}
}

// TestScheduledSubmitDeploysMidRun: a submission at tick 30 must appear
// as a live query, reach steady-state SIC, and sample only after its
// own epoch plus warmup.
func TestScheduledSubmitDeploysMidRun(t *testing.T) {
	cfg := churnScheduleConfig()
	cfg.Warmup = 2 * stream.Second
	cfg.KeepSamples = true
	e := NewEngine(cfg)
	e.AddNode(50_000) // underloaded: SIC near 1 once warm
	stepTo(e, 30)
	if _, err := e.Submit(QuerySubmit{CQL: churnAvgCQL, Fragments: 1, Dataset: 1}); err != nil {
		t.Fatal(err)
	}
	stepTo(e, 120)
	res := e.Results()
	if len(res.Queries) != 1 {
		t.Fatalf("queries after scheduled submit: %+v", res.Queries)
	}
	q := res.Queries[0]
	if q.Type != "AVG" {
		t.Errorf("submitted query type %q, want AVG", q.Type)
	}
	if q.MeanSIC < 0.9 {
		t.Errorf("submitted query mean SIC %.3f, want ~1 on an underloaded node", q.MeanSIC)
	}
	// Per-query SIC epoch: the query exists from tick 30 (t=3 s) and has
	// warmup 2 s, so samples must start near t=5 s — not at the global
	// warmup boundary (t=2 s), which predates the query.
	// ticks - (epoch+warmup)/interval = 120 - 50 = 70 samples.
	if got := len(q.Samples); got != 70 {
		t.Errorf("submitted query has %d samples, want 70 (epoch-relative warmup)", got)
	}
}

// TestScheduledRetractFreesState: retracting a query mid-run must free
// its engine bookkeeping and all node-side per-query state, returning
// the node to its pre-deploy footprint.
func TestScheduledRetractFreesState(t *testing.T) {
	e := NewEngine(churnScheduleConfig())
	nd := e.AddNode(50_000)
	for i := 0; i < 2; i++ {
		if _, err := e.Submit(QuerySubmit{CQL: churnAvgCQL, Fragments: 1, Dataset: 1}); err != nil {
			t.Fatal(err)
		}
	}
	stepTo(e, 20)
	withBoth := e.Node(nd).StateSize()
	stepTo(e, 40)
	if !e.RemoveQuery(1) {
		t.Fatal("retract of live query 1 refused")
	}
	stepTo(e, 80)
	got := e.Node(nd).StateSize()
	want := withBoth
	want.Fragments /= 2
	want.Sources /= 2
	want.RateEstimators /= 2
	want.SourceQueries /= 2
	want.KnownSIC /= 2
	want.BufferedBatches = got.BufferedBatches // tick-dependent, not a leak signal
	if got != want {
		t.Errorf("node state after retract: %+v, want half of %+v", got, withBoth)
	}
	if e.ledger.Live(1) || e.ledger.NumLive() != 1 {
		t.Errorf("retracted query's coordinator still registered (%d live)", e.ledger.NumLive())
	}
	// The retracted query's record must survive with a frozen mean.
	res := e.Results()
	if len(res.Queries) != 2 {
		t.Fatalf("results lost the retracted query: %+v", res.Queries)
	}
}

// TestScheduledSubmitAfterKillPlacesOnSurvivors: a submission made
// after a node kill must place its fragments over the surviving
// membership only.
func TestScheduledSubmitAfterKillPlacesOnSurvivors(t *testing.T) {
	e := NewEngine(churnScheduleConfig())
	e.AddNodes(3, 50_000)
	stepTo(e, 10)
	e.KillNode(0)
	stepTo(e, 20)
	if _, err := e.Submit(QuerySubmit{CQL: churnAvgCQL, Fragments: 2, Dataset: 1}); err != nil {
		t.Fatal(err)
	}
	stepTo(e, 60)
	p := e.Placement(0)
	if len(p) != 2 {
		t.Fatalf("placement %v, want 2 fragments", p)
	}
	for _, nd := range p {
		if nd == 0 {
			t.Fatalf("fragment placed on killed node 0 (placement %v)", p)
		}
	}
	if e.CurrentSIC(0) < 0.9 {
		t.Errorf("post-kill submission SIC %.3f, want ~1 on underloaded survivors", e.CurrentSIC(0))
	}
}

// TestScheduledSubmitSameTickAsKill: a submission made right after a
// kill, before the same Step, sees the post-kill membership — mirroring
// a controller submit issued after failure detection.
func TestScheduledSubmitSameTickAsKill(t *testing.T) {
	e := NewEngine(churnScheduleConfig())
	e.AddNodes(3, 50_000)
	stepTo(e, 15)
	e.KillNode(1)
	if _, err := e.Submit(QuerySubmit{CQL: churnAvgCQL, Fragments: 2, Dataset: 1}); err != nil {
		t.Fatal(err)
	}
	stepTo(e, 20)
	for _, nd := range e.Placement(0) {
		if nd == 1 {
			t.Fatalf("fragment placed on node killed in the same tick (placement %v)", e.Placement(0))
		}
	}
}

// TestSubmitThenKillSameTick: a query submitted onto a node that dies
// before the same Step is re-placed off it like any hosted fragment, and
// its SIC recovers on the survivors.
func TestSubmitThenKillSameTick(t *testing.T) {
	e := NewEngine(churnScheduleConfig())
	e.AddNodes(3, 50_000)
	stepTo(e, 15)
	q, err := e.Submit(QuerySubmit{CQL: churnAvgCQL, Fragments: 2, Dataset: 1, Placement: []stream.NodeID{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	e.KillNode(1)
	p := e.Placement(q)
	if len(p) != 2 || p[0] == 1 || p[1] == 1 || p[0] == p[1] {
		t.Fatalf("placement after same-tick kill %v, want 2 distinct survivors of node 1", p)
	}
	stepTo(e, 80)
	if sic := e.CurrentSIC(q); sic < 0.9 {
		t.Errorf("SIC %.3f after the same-tick kill, want ~1 on underloaded survivors", sic)
	}
}

// TestBadChurnRefusedAtCall: churn that cannot apply — malformed CQL,
// more fragments than live nodes, a retract naming an unknown query —
// is refused at the call, as the networked controller refuses it, and
// deploys nothing.
func TestBadChurnRefusedAtCall(t *testing.T) {
	e := NewEngine(churnScheduleConfig())
	e.AddNode(1000)
	stepTo(e, 1)
	if _, err := e.Submit(QuerySubmit{CQL: "Select Nope(", Fragments: 1, Dataset: 1}); err == nil {
		t.Error("malformed CQL accepted")
	}
	stepTo(e, 2)
	if _, err := e.Submit(QuerySubmit{CQL: churnAvgCQL, Fragments: 5, Dataset: 1}); err == nil {
		t.Error("5 fragments placed on 1 node")
	}
	stepTo(e, 3)
	if e.RemoveQuery(7) {
		t.Error("retract of unknown query 7 accepted")
	}
	stepTo(e, 5)
	if got := len(e.Results().Queries); got != 0 {
		t.Errorf("%d queries deployed from refused churn", got)
	}
}

// TestSubmitRefusesUnrunnableRates: a rate no source can run — NaN, +Inf,
// or beyond control.MaxRate — is refused on both submit paths before it
// costs a query id (a non-positive rate means Config.SourceRate).
func TestSubmitRefusesUnrunnableRates(t *testing.T) {
	e := NewEngine(churnScheduleConfig())
	e.AddNode(1000)
	for _, rate := range []float64{math.NaN(), math.Inf(1), 1e300, 1e12} {
		if _, err := e.SubmitCQL(churnAvgCQL, 1, 1, rate, nil); err == nil {
			t.Errorf("SubmitCQL accepted rate %g", rate)
		}
		if _, err := e.Submit(QuerySubmit{CQL: churnAvgCQL, Dataset: 1, Rate: rate, Placement: []stream.NodeID{0}}); err == nil {
			t.Errorf("Submit accepted rate %g", rate)
		}
	}
	if q, err := e.SubmitCQL(churnAvgCQL, 1, 1, -1, nil); err != nil || q != 0 {
		t.Fatalf("valid submit after refusals: id %d, err %v; want id 0", q, err)
	}
}

// TestExplicitPlacementSubmit: a QuerySubmit may pin its placement; the
// engine must honour it instead of consulting the placer.
func TestExplicitPlacementSubmit(t *testing.T) {
	e := NewEngine(churnScheduleConfig())
	e.AddNodes(3, 50_000)
	stepTo(e, 5)
	if _, err := e.Submit(QuerySubmit{
		CQL: churnAvgCQL, Fragments: 2, Dataset: 1,
		Placement: []stream.NodeID{2, 0},
	}); err != nil {
		t.Fatal(err)
	}
	stepTo(e, 10)
	p := e.Placement(0)
	if len(p) != 2 || p[0] != 2 || p[1] != 0 {
		t.Errorf("explicit placement not honoured: %v, want [2 0]", p)
	}
}
