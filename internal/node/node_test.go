package node

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/query"
	"repro/internal/sources"
	"repro/internal/stream"
)

// fakeRouter records everything the node emits.
type fakeRouter struct {
	downstream []*stream.Batch
	results    map[stream.QueryID][]stream.Tuple
	// delivered sums the SIC mass each query's results carried.
	delivered map[stream.QueryID]float64
}

func newFakeRouter() *fakeRouter {
	return &fakeRouter{
		results:   make(map[stream.QueryID][]stream.Tuple),
		delivered: make(map[stream.QueryID]float64),
	}
}

// cloneTuples deep-copies tuples out of pooled storage: drain recycles
// batches after the router call, so a recording router must copy.
func cloneTuples(in []stream.Tuple) []stream.Tuple {
	out := make([]stream.Tuple, len(in))
	for i, t := range in {
		t.V = append([]float64(nil), t.V...)
		out[i] = t
	}
	return out
}

func (r *fakeRouter) RouteDownstream(b *stream.Batch) {
	cp := &stream.Batch{Query: b.Query, Frag: b.Frag, Port: b.Port, Source: b.Source, TS: b.TS, SIC: b.SIC}
	cp.Tuples = cloneTuples(b.Tuples)
	r.downstream = append(r.downstream, cp)
}
func (r *fakeRouter) DeliverResult(q stream.QueryID, tuples []stream.Tuple, sicMass float64) {
	r.results[q] = append(r.results[q], cloneTuples(tuples)...)
	r.delivered[q] += sicMass
}

// aggNode builds a node hosting one single-fragment AVG query with one
// source at the given rate, and returns the node and router.
func aggNode(t *testing.T, capacityPerSec, rate float64) (*Node, *fakeRouter) {
	t.Helper()
	router := newFakeRouter()
	n := New(1, Config{
		Interval:       250 * stream.Millisecond,
		STW:            10 * stream.Second,
		CapacityPerSec: capacityPerSec,
		Seed:           1,
	}, core.NewBalanceSIC(1))
	plan := cql.MustPlan(cql.Avg, cql.DefaultCatalog(sources.Uniform), 1)
	exec := query.NewFragmentExec(plan.Fragments[0])
	n.hostFragment(7, 0, exec, plan.NumSources(), -1, -1, "")
	gen := plan.Fragments[0].Sources[0].NewGen(rand.New(rand.NewSource(2)), 0)
	src := sources.New(3, 7, 0, 0, rate, 5, 1, gen, 4)
	n.attachSource(src)
	return n, router
}

// router consumes the effects a test drains out of a node's outbox.
type router interface {
	RouteDownstream(b *stream.Batch)
	DeliverResult(q stream.QueryID, tuples []stream.Tuple, sicMass float64)
}

// drain feeds an outbox to r the way the drivers drain theirs — results,
// then downstream batches — releasing each batch after its call, and
// resets the outbox.
func drain(o *Outbox, r router) {
	for _, b := range o.Results {
		r.DeliverResult(b.Query, b.Tuples, b.SIC)
		b.Release()
	}
	for _, b := range o.Downstream {
		r.RouteDownstream(b)
		b.Release()
	}
	o.Reset()
}

// empty reports whether an outbox holds no effects.
func empty(o *Outbox) bool { return len(o.Downstream) == 0 && len(o.Results) == 0 }

// runTicks advances the node and drains its outbox into the router after
// every tick, the way a driver does.
func runTicks(n *Node, r router, ticks int) {
	for i := 0; i < ticks; i++ {
		n.Tick(stream.Time(i * 250))
		drain(n.TakeOutbox(), r)
	}
}

func TestNodeUnderloadedProcessesEverything(t *testing.T) {
	n, router := aggNode(t, 1e6, 400)
	runTicks(n, router, 40) // 10 s
	st := n.Stats()
	if st.ShedTuples != 0 || st.ShedInvocations != 0 {
		t.Errorf("underloaded node shed: %+v", st)
	}
	if st.ArrivedTuples < 3900 || st.ArrivedTuples > 4100 {
		t.Errorf("arrived: %d, want ~4000", st.ArrivedTuples)
	}
	if len(router.results[7]) < 8 {
		t.Errorf("results: %d windows, want ~9", len(router.results[7]))
	}
	// Eq. 1: the total SIC delivered over one full STW approaches 1.
	if router.delivered[7] < 0.9 {
		t.Errorf("delivered SIC: %g, want ~>= 1 over 10 s", router.delivered[7])
	}
}

func TestNodeOverloadDetectorSheds(t *testing.T) {
	n, router := aggNode(t, 100, 400) // 4x overload
	runTicks(n, router, 40)
	st := n.Stats()
	if st.ShedInvocations == 0 || st.ShedTuples == 0 {
		t.Fatalf("no shedding under 4x overload: %+v", st)
	}
	keepRatio := float64(st.KeptTuples) / float64(st.ArrivedTuples)
	if keepRatio < 0.15 || keepRatio > 0.40 {
		t.Errorf("keep ratio %.2f, want ~0.25", keepRatio)
	}
}

func TestNodeSICStampingMatchesEq1(t *testing.T) {
	n, router := aggNode(t, 1e6, 400)
	runTicks(n, router, 80) // 20 s — rate estimator converged
	// Eq. 1 stamps one STW's source tuples with SIC summing to 1, and an
	// underloaded node delivers all of it, so a 20 s run delivers ≈ 2.
	if router.delivered[7] < 1.7 || router.delivered[7] > 2.3 {
		t.Errorf("delivered SIC over 2 STWs: %g, want ~2", router.delivered[7])
	}
}

func TestNodeDerivedBatchRestamping(t *testing.T) {
	n := New(1, Config{Interval: 250, STW: 10000, CapacityPerSec: 1000, Seed: 1}, &core.KeepAll{})
	// A derived batch arriving late gets restamped to arrival time.
	b := stream.DerivedBatch(1, 0, 0, 100, []stream.Tuple{{TS: 100, SIC: 0.1, V: []float64{1}}})
	n.Enqueue(b, 1000)
	if b.TS != 1000 || b.Tuples[0].TS != 1000 {
		t.Errorf("derived batch not restamped: ts=%d tuple=%d", b.TS, b.Tuples[0].TS)
	}
	// Source batches keep their timestamps.
	sb := stream.NewBatch(1, 0, 5, 100, 1, 1)
	n.Enqueue(sb, 1000)
	if sb.TS != 100 {
		t.Errorf("source batch restamped: %d", sb.TS)
	}
}

func TestNodeRoutesDownstreamFragments(t *testing.T) {
	router := newFakeRouter()
	n := New(1, Config{Interval: 250, STW: 10 * stream.Second, CapacityPerSec: 1e6, Seed: 1}, &core.KeepAll{})
	plan := cql.MustPlan(cql.Cov, cql.DefaultCatalog(sources.Uniform), 2)
	// Host the non-root fragment (index 1); its output goes downstream to
	// fragment 0 on some other node.
	exec := query.NewFragmentExec(plan.Fragments[1])
	n.hostFragment(9, 1, exec, plan.NumSources(), 0, plan.Fragments[0].UpstreamPort, "")
	for _, ss := range plan.Fragments[1].Sources {
		gen := ss.NewGen(rand.New(rand.NewSource(3)), ss.Port)
		src := sources.New(stream.SourceID(10+ss.Port), 9, 1, ss.Port, 100, 4, ss.Arity, gen, 5)
		n.attachSource(src)
	}
	runTicks(n, router, 12) // 3 s
	if len(router.downstream) == 0 {
		t.Fatal("no downstream batches emitted")
	}
	b := router.downstream[0]
	if b.Query != 9 || b.Frag != 0 || b.Port != plan.Fragments[0].UpstreamPort {
		t.Errorf("downstream addressing: %+v", b)
	}
	if b.Source != -1 {
		t.Errorf("downstream batch source: %d, want -1", b.Source)
	}
	if len(router.results) != 0 {
		t.Error("non-root fragment delivered results")
	}
}

func TestNodeHostedQueriesAndLookup(t *testing.T) {
	n := New(1, Config{}, &core.KeepAll{})
	plan := cql.MustPlan(cql.Max, cql.DefaultCatalog(sources.Uniform), 1)
	n.hostFragment(3, 0, query.NewFragmentExec(plan.Fragments[0]), 1, -1, -1, "")
	n.hostFragment(5, 0, query.NewFragmentExec(plan.Fragments[0]), 1, -1, -1, "")
	if !n.HostsFragment(3, 0) || n.HostsFragment(4, 0) {
		t.Error("HostsFragment lookup")
	}
	qs := n.HostedQueries()
	if len(qs) != 2 {
		t.Errorf("hosted queries: %v", qs)
	}
}

func TestNodeCoordinatorUpdates(t *testing.T) {
	n := New(1, Config{}, &core.KeepAll{})
	plan := cql.MustPlan(cql.Max, cql.DefaultCatalog(sources.Uniform), 1)
	n.hostFragment(4, 0, query.NewFragmentExec(plan.Fragments[0]), 1, -1, -1, "")
	n.SetResultSIC(4, 0.7)
	if got := n.ResultSIC(4); got != 0.7 {
		t.Errorf("ResultSIC: %g", got)
	}
	if got := n.ResultSIC(99); got != 0 {
		t.Errorf("unknown query: %g", got)
	}
	// An update for a query this node does not host must not create
	// state: a SIC broadcast in flight while the query was retracted
	// would otherwise resurrect the knownSIC entry forever.
	n.SetResultSIC(99, 0.3)
	if got := n.ResultSIC(99); got != 0 {
		t.Errorf("unhosted query's update was stored: %g", got)
	}
}

// TestRemoveQueryReturnsStateToBaseline is the per-query state-leak
// regression test: a node that hosts a query, processes its traffic,
// receives coordinator updates, and then retracts it must return to its
// exact pre-deploy footprint — no executor, source, rate-estimator,
// source-lookup, known-SIC or buffered-batch entry may survive.
func TestRemoveQueryReturnsStateToBaseline(t *testing.T) {
	n, r := aggNode(t, 10_000, 100) // hosts query 7 with one source
	baseline := n.StateSize()

	// Deploy a second two-fragment query with a source and live traffic.
	plan := cql.MustPlan(cql.AvgAll, cql.DefaultCatalog(sources.Uniform), 1)
	n.hostFragment(9, 0, query.NewFragmentExec(plan.Fragments[0]), plan.NumSources(), -1, -1, "")
	gen := plan.Fragments[0].Sources[0].NewGen(rand.New(rand.NewSource(5)), 0)
	n.attachSource(sources.New(8, 9, 0, 0, 100, 5, 1, gen, 6))
	n.SetResultSIC(9, 0.5)
	runTicks(n, r, 8)
	if grown := n.StateSize(); grown == baseline {
		t.Fatal("second query added no state — test is vacuous")
	}
	// Park an in-flight derived batch for query 9, as a retract racing a
	// delivery would.
	b := stream.NewBatch(9, 0, -1, 2000, 3, 1)
	n.Enqueue(b, 2000)

	if refused := n.RemoveQuery(9, nil); refused != 0 || n.HostsFragment(9, 0) {
		t.Fatalf("RemoveQuery refused %d fragments, left query 9 hosted: %v", refused, n.HostsFragment(9, 0))
	}
	if n.RemoveQuery(9, nil) != 0 {
		t.Error("second RemoveQuery not a no-op")
	}
	got := n.StateSize()
	want := baseline
	want.BufferedBatches = got.BufferedBatches // query 7's own pending batches may differ
	if got != want {
		t.Errorf("state after retract %+v, want baseline %+v", got, baseline)
	}
	for _, bb := range n.ib {
		if bb.Query == 9 {
			t.Error("retracted query's batch still buffered")
		}
	}
	// The surviving query keeps working.
	runTicks(n, r, 4)
	if len(r.results[7]) == 0 {
		t.Error("surviving query stopped producing results after the retract")
	}
}

func TestAttachSourceForUnknownFragmentPanics(t *testing.T) {
	n := New(1, Config{}, &core.KeepAll{})
	defer func() {
		if recover() == nil {
			t.Error("attaching a source for an unhosted fragment should panic")
		}
	}()
	gen := sources.GenFunc(func(_ stream.Time, v []float64) {})
	n.attachSource(sources.New(1, 1, 0, 0, 10, 1, 1, gen, 1))
}

func TestNodeCostModelTracksCapacity(t *testing.T) {
	// After warm-up the kept tuple volume per tick should approximate the
	// configured capacity.
	n, router := aggNode(t, 200, 400) // capacity 200 t/s = 50/tick, demand 100/tick
	runTicks(n, router, 60)
	st := n.Stats()
	perTick := float64(st.KeptTuples) / 60
	if math.Abs(perTick-50) > 12 {
		t.Errorf("kept %.1f tuples/tick, want ~50", perTick)
	}
}

func TestOutboxReplayResets(t *testing.T) {
	n, router := aggNode(t, 1e6, 400)
	for i := 0; i < 8; i++ {
		n.Tick(stream.Time(i * 250))
	}
	out := n.TakeOutbox()
	drain(out, router)
	if !empty(out) {
		t.Error("drain should reset the outbox")
	}
	if router.delivered[7] <= 0 {
		t.Errorf("replayed delivered SIC: %g, want > 0", router.delivered[7])
	}
	if len(router.results[7]) == 0 {
		t.Error("replayed no result tuples")
	}
}
