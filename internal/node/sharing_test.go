package node

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/operator"
	"repro/internal/query"
	"repro/internal/sources"
	"repro/internal/stream"
)

// Node-level sharing tests: one executing fragment instance serving
// several subscribing queries must fan its output out to every rider,
// mirror SIC accounting per query, and survive the primary's departure
// by promoting a subscriber in place.

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
	plan := query.NewAggregate(operator.AggAvg, sources.Uniform)
	exec := query.NewFragmentExec(plan.Fragments[0])
	n.HostFragmentShared(7, 0, exec, plan.NumSources(), -1, -1, "sharedKey")
	for i := 0; i < nSubs; i++ {
		if !n.AttachShared("sharedKey", stream.QueryID(20+i), 0, -1, -1, true) {
			t.Fatalf("subscriber %d failed to attach", i)
		}
	}
	gen := plan.Fragments[0].Sources[0].NewGen(rand.New(rand.NewSource(2)), 0)
	src := sources.New(3, 7, 0, 0, 100, 5, 1, gen, 4)
	n.AttachSource(src)
	return n, router
}

func TestAttachSharedUnknownKeyRefuses(t *testing.T) {
	n := New(1, Config{}, &core.KeepAll{})
	if n.AttachShared("nope", 5, 0, -1, -1, true) {
		t.Fatal("attached to a share key nobody registered")
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
	n.RemoveFragment(7, 0)
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
		n.TakeOutbox().Replay(n.ID(), router)
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
			n.TakeOutbox().Replay(n.ID(), router)
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
	plan := query.NewAggregate(operator.AggAvg, sources.Uniform)
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
			n.HostFragmentShared(q, f, query.NewFragmentExec(plan.Fragments[0]), 1, -1, -1, key)
			check(step, "host")
		case op == 1 && !hosted && !riding:
			if n.AttachShared(key, q, f, -1, -1, true) {
				n.SetResultSIC(q, 0.5)
			}
			check(step, "attach")
		case op == 2:
			n.RemoveFragment(q, f) // detaches, promotes or tears down
			check(step, "remove fragment")
		case op == 3 && rng.Intn(4) == 0:
			n.RemoveQuery(q)
			check(step, "remove query")
		}
	}
	for q := range n.hostedQ {
		n.RemoveQuery(q)
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
	n.RemoveFragment(7, 0) // q20 is promoted, q21 keeps riding
	n.RemoveFragment(21, 0)
	if ss := n.StateSize(); ss.Fragments != 1 || ss.Subscriptions != 0 {
		t.Fatalf("state %+v, want the promoted instance alone", ss)
	}
	n.RemoveFragment(20, 0)
	if ss := n.StateSize(); ss != (StateSize{}) {
		t.Fatalf("state %+v after the last reader left", ss)
	}
}
