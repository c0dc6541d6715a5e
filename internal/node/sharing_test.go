package node

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/query"
	"repro/internal/sources"
	"repro/internal/stream"
)

// Node-level sharing tests: one executing fragment instance serving
// several subscribing queries must fan its output out to every rider,
// mirror SIC accounting per query, and survive the primary's departure
// by handing the instance to the heir its driver names. A command the
// node cannot obey is refused and changes nothing.

// sharedAggNode hosts one AVG leaf fragment for query 7 under a share
// key, attaches nSubs subscriber queries (ids 20, 21, ...), and wires
// one source. Results route to the driver (downstream -1).
func sharedAggNode(t *testing.T, nSubs int) (*Node, *fakeRouter) {
	t.Helper()
	router := newFakeRouter()
	n := New(1, Config{
		Interval:       250 * stream.Millisecond,
		STW:            10 * stream.Second,
		CapacityPerSec: 1e6,
		Seed:           1,
	}, core.NewBalanceSIC(1))
	plan := cql.MustPlan(cql.Avg, cql.DefaultCatalog(sources.Uniform), 1)
	exec := query.NewFragmentExec(plan.Fragments[0])
	n.hostFragment(7, 0, exec, plan.NumSources(), -1, -1, "sharedKey")
	for i := 0; i < nSubs; i++ {
		if err := n.Deploy(ride(plan, stream.QueryID(20+i), 0, 7, "sharedKey")); err != nil {
			t.Fatalf("subscriber %d failed to attach: %v", i, err)
		}
	}
	gen := plan.Fragments[0].Sources[0].NewGen(rand.New(rand.NewSource(2)), 0)
	src := sources.New(3, 7, 0, 0, 100, 5, 1, gen, 4)
	n.attachSource(src)
	return n, router
}

// ride is the spec of fragment f of query q riding the instance primary
// executes under key, with fan-out views on.
func ride(plan *query.Plan, q stream.QueryID, f stream.FragID, primary stream.QueryID, key string) FragmentSpec {
	return FragmentSpec{Query: q, Frag: f, Plan: plan, ShareKey: key, Attach: true, Primary: primary, Emit: true}
}

// TestDeployRefusesDuplicate: Deploy refuses, with ErrDeployed and no
// state change, a (query, fragment) the node already hosts or rides — a
// second host would attach a second set of sources, a second ride a
// second fan-out view of the shared instance.
func TestDeployRefusesDuplicate(t *testing.T) {
	n := New(1, Config{Interval: 250 * stream.Millisecond, STW: 10 * stream.Second, CapacityPerSec: 1e6, Seed: 1}, core.NewBalanceSIC(1))
	plan := cql.MustPlan(cql.Avg, cql.DefaultCatalog(sources.Uniform), 1)
	spec := func(q stream.QueryID) FragmentSpec {
		if q != 7 {
			return ride(plan, q, 0, 7, "k")
		}
		return FragmentSpec{Query: q, Plan: plan, Rate: 100, Batches: 5, Seed: 1, ShareKey: "k"}
	}
	for _, q := range []stream.QueryID{7, 8} {
		if err := n.Deploy(spec(q)); err != nil {
			t.Fatal(err)
		}
	}
	want, subs := n.StateSize(), len(n.frags[fragKey{7, 0}].subs)
	for _, q := range []stream.QueryID{7, 8} {
		if err := n.Deploy(spec(q)); !errors.Is(err, ErrDeployed) {
			t.Errorf("second deploy of query %d: err %v; want ErrDeployed", q, err)
		}
	}
	if got := n.StateSize(); got != want || len(n.frags[fragKey{7, 0}].subs) != subs {
		t.Errorf("second deploys changed the node: %+v with %d views, want %+v with %d", got, len(n.frags[fragKey{7, 0}].subs), want, subs)
	}
}

// TestRefusalsChangeNothing: a command naming state the node lacks — a
// ride on an instance it does not execute or executes under another key,
// a hand-off to a query that does not ride, a teardown of an instance
// that still has riders, a flip for a subscription it does not hold — is
// refused and leaves the node exactly as it was.
func TestRefusalsChangeNothing(t *testing.T) {
	plan := cql.MustPlan(cql.Avg, cql.DefaultCatalog(sources.Uniform), 1)
	for _, c := range []struct {
		name   string
		refuse func(n *Node) bool
	}{
		{"ride naming a missing primary", func(n *Node) bool {
			return errors.Is(n.Deploy(ride(plan, 30, 0, 8, "sharedKey")), ErrNoPrimary)
		}},
		{"ride under another key than the primary's", func(n *Node) bool {
			return errors.Is(n.Deploy(ride(plan, 30, 0, 7, "otherKey")), ErrNoPrimary)
		}},
		{"ride with no key", func(n *Node) bool {
			return errors.Is(n.Deploy(ride(plan, 30, 0, 7, "")), ErrNoPrimary)
		}},
		{"promote naming a non-rider", func(n *Node) bool { return !n.Promote(7, 0, 30) }},
		{"promote naming the primary itself", func(n *Node) bool { return !n.Promote(7, 0, 7) }},
		{"promote from a rider", func(n *Node) bool { return !n.Promote(20, 0, 21) }},
		{"remove an instance with riders", func(n *Node) bool { return !n.RemoveFragment(7, 0) }},
		{"remove a query whose instance has riders", func(n *Node) bool { return n.RemoveQuery(7, nil) == 1 }},
		{"remove a query naming a non-rider heir", func(n *Node) bool {
			return n.RemoveQuery(7, map[stream.FragID]stream.QueryID{0: 30}) == 1
		}},
		{"flip an unknown subscription", func(n *Node) bool { return !n.SetSubEmit(30, 0, false) }},
		{"flip the primary", func(n *Node) bool { return !n.SetSubEmit(7, 0, false) }},
	} {
		n, _ := sharedAggNode(t, 2)
		want := n.StateSize()
		if !c.refuse(n) {
			t.Errorf("%s: not refused", c.name)
		}
		if got := n.StateSize(); got != want {
			t.Errorf("%s: state %+v, want %+v", c.name, got, want)
		}
		if p, ok := n.RidesOn(20, 0); !ok || p != 7 || !n.HostsFragment(7, 0) {
			t.Errorf("%s: query 20 rides %d (%v), query 7 hosted %v", c.name, p, ok, n.HostsFragment(7, 0))
		}
	}
}

// TestPromoteHandsToTheNamedHeir: the heir the driver names takes the
// instance over, whatever its place in the attach order, and the other
// riders then ride it under the heir's identity.
func TestPromoteHandsToTheNamedHeir(t *testing.T) {
	n, router := sharedAggNode(t, 3)
	runTicks(n, router, 8)
	if !n.Promote(7, 0, 21) {
		t.Fatal("promotion to a rider refused")
	}
	if n.HostsFragment(7, 0) {
		t.Error("the departed primary still holds the fragment")
	}
	if _, rides := n.RidesOn(21, 0); rides || !n.HostsFragment(21, 0) {
		t.Error("the heir does not execute the instance")
	}
	for _, q := range []stream.QueryID{20, 22} {
		if p, ok := n.RidesOn(q, 0); !ok || p != 21 {
			t.Errorf("query %d rides %d (%v), want the heir 21", q, p, ok)
		}
	}
	if ss := n.StateSize(); ss.Fragments != 1 || ss.SharedInstances != 1 || ss.Subscriptions != 2 || ss.Sources != 1 {
		t.Errorf("state after promotion: %+v", ss)
	}
}

// TestSharedFanOutDeliversEveryRider: every subscribing query receives
// the same result stream as the primary, tuple for tuple, and the same
// SIC mass with it — what each rider's coordinator measures.
func TestSharedFanOutDeliversEveryRider(t *testing.T) {
	n, router := sharedAggNode(t, 2)
	if ss := n.StateSize(); ss.SharedInstances != 1 || ss.Subscriptions != 2 {
		t.Fatalf("state: %+v, want 1 shared instance with 2 subscriptions", ss)
	}
	runTicks(n, router, 40)
	prim := router.results[7]
	if len(prim) == 0 {
		t.Fatal("primary produced no results")
	}
	for _, q := range []stream.QueryID{20, 21} {
		got := router.results[q]
		if len(got) != len(prim) {
			t.Fatalf("query %d got %d result tuples, primary %d", q, len(got), len(prim))
		}
		for i := range got {
			if got[i].V[0] != prim[i].V[0] || got[i].SIC != prim[i].SIC {
				t.Fatalf("query %d tuple %d diverges from primary: %+v vs %+v", q, i, got[i], prim[i])
			}
		}
		if router.delivered[q] <= 0 {
			t.Errorf("query %d has no delivered SIC mass", q)
		}
		if math.Float64bits(router.delivered[q]) != math.Float64bits(router.delivered[7]) {
			t.Errorf("query %d delivered %v, primary %v — mass not mirrored",
				q, router.delivered[q], router.delivered[7])
		}
	}
}

// TestSharedPrimaryRemovalPromotes: removing the executing query hands
// its fragment, window state and source to the first subscriber, and the
// survivors' result stream continues without interruption.
func TestSharedPrimaryRemovalPromotes(t *testing.T) {
	n, router := sharedAggNode(t, 2)
	runTicks(n, router, 20)
	if !n.Promote(7, 0, 20) {
		t.Fatal("promotion refused")
	}
	if n.HostsFragment(7, 0) {
		t.Fatal("removed primary still hosted")
	}
	if !n.HostsFragment(20, 0) || !n.HostsFragment(21, 0) {
		t.Fatal("subscribers lost their fragment across promotion")
	}
	ss := n.StateSize()
	if ss.SharedInstances != 1 || ss.Subscriptions != 1 || ss.Fragments != 1 || ss.Sources != 1 {
		t.Fatalf("state after promotion: %+v, want 1 instance, 1 subscription, 1 fragment, 1 source", ss)
	}
	before := len(router.results[20])
	for i := 20; i < 40; i++ {
		n.Tick(stream.Time(i * 250))
		drain(n.TakeOutbox(), router)
	}
	if len(router.results[20]) <= before {
		t.Error("promoted query stopped producing results")
	}
	if len(router.results[21]) != len(router.results[20]) {
		t.Errorf("surviving subscriber out of sync: %d vs %d results",
			len(router.results[21]), len(router.results[20]))
	}
	if len(router.results[7]) != before {
		t.Error("removed primary kept receiving results")
	}
}

// TestSharedSubscriberRemovalLeavesPrimary: dropping a rider must not
// disturb the executing instance, and dropping the last rider plus the
// primary returns the node to an empty footprint.
func TestSharedSubscriberRemovalLeavesPrimary(t *testing.T) {
	n, router := sharedAggNode(t, 2)
	tick := 0
	advance := func(ticks int) {
		for ; ticks > 0; ticks-- {
			n.Tick(stream.Time(tick * 250))
			drain(n.TakeOutbox(), router)
			tick++
		}
	}
	advance(10)
	n.RemoveFragment(21, 0)
	if n.HostsFragment(21, 0) {
		t.Fatal("removed subscriber still hosted")
	}
	if ss := n.StateSize(); ss.SharedInstances != 1 || ss.Subscriptions != 1 {
		t.Fatalf("state after subscriber removal: %+v", ss)
	}
	mid := len(router.results[7])
	advance(10)
	if len(router.results[7]) <= mid {
		t.Error("primary stopped producing after subscriber removal")
	}
	if len(router.results[21]) != len(router.results[20])-len(router.results[7])+mid {
		// Query 21 stopped at removal time; 20 kept pace with the primary.
		t.Errorf("fan-out after removal inconsistent: q21=%d q20=%d q7=%d",
			len(router.results[21]), len(router.results[20]), len(router.results[7]))
	}
	n.RemoveFragment(20, 0)
	n.RemoveFragment(7, 0)
	if ss := n.StateSize(); ss != (StateSize{}) {
		t.Fatalf("node retains state after full removal: %+v", ss)
	}
}

// TestAcctTableTracksHostedQueries: the per-query reference table
// (hostedQ) is maintained in place — a reference taken with each fragment
// or subscription, dropped with it — so after any sequence of hosts,
// attaches, removals and promotions it must count exactly the hosted
// fragments plus subscriptions of each query, and no query it does not
// list may keep a coordinator value.
func TestAcctTableTracksHostedQueries(t *testing.T) {
	n := New(1, Config{}, &core.KeepAll{})
	plan := cql.MustPlan(cql.AvgAll, cql.DefaultCatalog(sources.Uniform), 3)
	check := func(step int, what string) {
		t.Helper()
		want := make(map[stream.QueryID]int)
		for k := range n.frags {
			want[k.q]++
		}
		for k := range n.subOf {
			want[k.q]++
		}
		if !reflect.DeepEqual(n.hostedQ, want) {
			t.Fatalf("step %d %s: refs %v, want %v", step, what, n.hostedQ, want)
		}
		for q := range n.knownSIC {
			if n.hostedQ[q] == 0 {
				t.Fatalf("step %d %s: unhosted q%d keeps a coordinator value", step, what, q)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	keys := []string{"a", "b", "c"}
	for step := 0; step < 2000; step++ {
		q, f := stream.QueryID(rng.Intn(40)), stream.FragID(rng.Intn(3))
		key := keys[rng.Intn(len(keys))]
		_, hosted := n.frags[fragKey{q, f}]
		_, riding := n.subOf[fragKey{q, f}]
		switch op := rng.Intn(4); {
		case op == 0 && !hosted && !riding:
			n.hostFragment(q, f, query.NewFragmentExec(plan.Fragments[f]), 1, -1, -1, key)
			check(step, "host")
		case op == 1 && !hosted && !riding:
			if n.Deploy(ride(plan, q, f, stream.QueryID(rng.Intn(40)), key)) == nil {
				n.SetResultSIC(q, 0.5)
			}
			check(step, "attach")
		case op == 2:
			if inst := n.frags[fragKey{q, f}]; !n.RemoveFragment(q, f) { // detaches or tears down
				n.Promote(q, f, inst.subs[rng.Intn(len(inst.subs))].q)
			}
			check(step, "remove fragment")
		case op == 3 && rng.Intn(4) == 0:
			n.RemoveQuery(q, nil)
			check(step, "remove query")
		}
	}
	for k := range n.subOf {
		n.RemoveFragment(k.q, k.f)
	}
	for q := range n.hostedQ {
		n.RemoveQuery(q, nil)
	}
	check(-1, "drain")
	if len(n.hostedQ) != 0 || len(n.knownSIC) != 0 {
		t.Fatalf("%d refs, %d coordinator values survive an empty node", len(n.hostedQ), len(n.knownSIC))
	}
}

// TestPromotionRepointsRemainingSubscribers: after a primary departs and
// its first subscriber takes the instance over, the other subscribers
// ride the instance under its new identity — detaching one must find it.
func TestPromotionRepointsRemainingSubscribers(t *testing.T) {
	n, _ := sharedAggNode(t, 2)
	n.Promote(7, 0, 20) // q21 keeps riding
	n.RemoveFragment(21, 0)
	if ss := n.StateSize(); ss.Fragments != 1 || ss.Subscriptions != 0 {
		t.Fatalf("state %+v, want the promoted instance alone", ss)
	}
	n.RemoveFragment(20, 0)
	if ss := n.StateSize(); ss != (StateSize{}) {
		t.Fatalf("state %+v after the last reader left", ss)
	}
}
