package transport

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/stream"
)

// Live query churn tests: queries are first-class runtime citizens —
// Controller.Submit deploys onto a running federation, Controller.
// Retract tears down mid-run — and the TCP runtime must agree with the
// virtual-time engine replaying the identical schedule.

// TestLiveQueryChurnEndToEnd is the acceptance test for live query
// churn: a 4-node loopback federation runs two 2-fragment CQL queries;
// mid-run a third query is submitted and one of the founders is
// retracted. The virtual-time engine replays the identical schedule
// (same plans, same placements, same epochs in ticks). Per-query
// post-epoch SIC must agree within the established 0.15 tolerance, the
// retracted query's frozen mean included; afterwards no per-query state
// survives on the controller or the hosts, and the run leaks no
// goroutines.
func TestLiveQueryChurnEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock federation test in -short mode")
	}
	const (
		cqlText  = "Select Avg(t.v) From AllSrc[Range 1 sec]"
		frags    = 2
		dataset  = 1 // uniform
		rate     = 20.0
		batches  = 4.0
		capacity = 50_000.0
	)
	goroutines := runtime.NumGoroutine()

	addrs, srvs := startNodes(t, 4, capacity)
	ctrl, err := NewController(ControllerConfig{
		STW:      3 * stream.Second,
		Interval: 100 * stream.Millisecond,
		Seed:     1,
	}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.CloseAll()

	qA, err := ctrl.Submit(cqlText, frags, dataset, rate, batches, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	qB, err := ctrl.Submit(cqlText, frags, dataset, rate, batches, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}

	// The schedule: submit C at 4 s onto nodes {0,2}, retract B at 6 s.
	var qCmu sync.Mutex
	var qC stream.QueryID
	tSubmit := time.AfterFunc(4*time.Second, func() {
		q, err := ctrl.Submit(cqlText, frags, dataset, rate, batches, []int{0, 2})
		if err != nil {
			t.Errorf("mid-run submit: %v", err)
			return
		}
		qCmu.Lock()
		qC = q
		qCmu.Unlock()
	})
	defer tSubmit.Stop()
	tRetract := time.AfterFunc(6*time.Second, func() {
		if err := ctrl.Retract(qB); err != nil {
			t.Errorf("mid-run retract: %v", err)
		}
	})
	defer tRetract.Stop()

	// Within one broadcast tick the callback fires in ascending query id
	// (the ledger's walk), through the submit and the retract alike: an id
	// that does not ascend starts a new tick, so an ordered run shows one
	// ascending sequence per tick — at most 12 s / 100 ms of them — where a
	// map-ordered walk over two or three queries would show half as many
	// again. The callback runs on Run's goroutine; plain variables are safe.
	lastQ, sicRuns, sicCalls := stream.QueryID(-1), 0, 0
	ctrl.OnSIC(func(q stream.QueryID, _ stream.Time, _ float64) {
		if q <= lastQ || sicCalls == 0 {
			sicRuns++
		}
		lastQ = q
		sicCalls++
	})

	res, err := ctrl.Run(12*time.Second, 4*time.Second)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if sicCalls < 200 || sicRuns > 121 {
		t.Errorf("OnSIC fired %d times in %d ascending-id sequences; want one sequence per tick (<= 121)", sicCalls, sicRuns)
	}
	if len(res.Recoveries) != 0 {
		t.Fatalf("unexpected recoveries: %+v", res.Recoveries)
	}
	qCmu.Lock()
	gotC := qC
	qCmu.Unlock()
	if gotC == 0 {
		t.Fatal("mid-run submit never completed")
	}
	if len(res.PerQuery) != 3 {
		t.Fatalf("results cover %d queries, want 3 (retracted included): %+v", len(res.PerQuery), res.PerQuery)
	}

	// Virtual-time mirror: identical plans, placements and schedule in
	// ticks (100 ms interval: submit at tick 40, retract at tick 60).
	cfg := federation.Defaults()
	cfg.STW = 3 * stream.Second
	cfg.Interval = 100 * stream.Millisecond
	cfg.Duration = 12 * stream.Second
	cfg.Warmup = 4 * stream.Second
	cfg.SourceRate = rate
	cfg.BatchesPerSec = batches
	cfg.Seed = 1
	eng := federation.NewEngine(cfg)
	eng.AddNodes(4, capacity)
	submit := func(placement ...stream.NodeID) {
		sub := federation.QuerySubmit{CQL: cqlText, Fragments: frags, Dataset: dataset, Rate: rate, Placement: placement}
		if _, err := eng.Submit(sub); err != nil {
			t.Fatalf("mirror submit: %v", err)
		}
	}
	submit(0, 1)
	submit(2, 3)
	for tick := int64(0); tick < int64(cfg.Duration/cfg.Interval); tick++ {
		switch tick {
		case 40:
			submit(0, 2)
		case 60:
			if !eng.RemoveQuery(1) {
				t.Fatal("mirror refused to retract query 1")
			}
		}
		eng.Step()
	}
	vres := eng.Results()
	virt := make(map[stream.QueryID]float64, len(vres.Queries))
	for _, q := range vres.Queries {
		virt[q.ID] = q.MeanSIC
	}

	for _, q := range []stream.QueryID{qA, qB, gotC} {
		net, vt := res.PerQuery[q], virt[q]
		if math.Abs(net-vt) > 0.15 {
			t.Errorf("query %d: networked SIC %.3f vs virtual-time %.3f beyond tolerance", q, net, vt)
		}
	}
	// Both survivors must sit near perfect processing — only reachable
	// if the submitted query's cross-node partials flow and the retract
	// did not disturb the other pipelines.
	for _, q := range []stream.QueryID{qA, gotC} {
		if res.PerQuery[q] < 0.85 {
			t.Errorf("surviving query %d SIC %.3f: pipeline broken by churn", q, res.PerQuery[q])
		}
	}

	// The retracted query left no state behind: controller-side...
	ctrl.mu.Lock()
	if ctrl.ledger.Live(qB) || ctrl.ledger.NumLive() != 2 {
		t.Errorf("retracted query's coordinator still registered (%d live, want 2)", ctrl.ledger.NumLive())
	}
	if ctrl.plane.Query(qB) != nil {
		t.Error("retracted query's control-plane record still present")
	}
	if _, ok := ctrl.deps[qB]; ok {
		t.Error("retracted query's deploy record still present")
	}
	if _, ok := res.PerQuery[qB]; !ok {
		t.Error("retracted query's frozen mean missing")
	}
	ctrl.mu.Unlock()
	// ...and host-side: B ran on nodes 2 and 3.
	for _, ni := range []int{2, 3} {
		srvs[ni].mu.Lock()
		nd := srvs[ni].nd
		srvs[ni].mu.Unlock()
		if nd == nil {
			continue
		}
		for f := stream.FragID(0); int(f) < frags; f++ {
			if nd.HostsFragment(qB, f) {
				t.Errorf("node %d still hosts retracted fragment %d/%d", ni, qB, f)
			}
		}
	}

	// No goroutine leak: the run's read loops, host loops and timers
	// must all have wound down.
	ctrl.CloseAll()
	for _, s := range srvs {
		s.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines+2 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > goroutines+2 {
		t.Errorf("goroutines grew from %d to %d after full teardown", goroutines, g)
	}
}

// TestSubmitAfterNodeFailure: a mid-run submission issued after a node
// died must place over the surviving membership and run — churn of the
// node population and of the query population compose.
func TestSubmitAfterNodeFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock federation test in -short mode")
	}
	const (
		cqlText  = "Select Avg(t.v) From AllSrc[Range 1 sec]"
		capacity = 50_000.0
	)
	addrs, srvs := startNodes(t, 4, capacity)
	ctrl, err := NewController(ControllerConfig{
		STW:      2 * stream.Second,
		Interval: 100 * stream.Millisecond,
		Seed:     1,
	}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.CloseAll()

	qA, err := ctrl.Submit(cqlText, 2, 1, 20, 4, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 (hosting a fragment of A) dies at 1.5 s; B is submitted at
	// 3.5 s, after recovery, with automatic placement.
	tKill := time.AfterFunc(1500*time.Millisecond, func() { srvs[1].Close() })
	defer tKill.Stop()
	var qBmu sync.Mutex
	qB := stream.QueryID(-1)
	tSubmit := time.AfterFunc(3500*time.Millisecond, func() {
		q, err := ctrl.Submit(cqlText, 2, 1, 20, 4, nil)
		if err != nil {
			t.Errorf("submit after failure: %v", err)
			return
		}
		qBmu.Lock()
		qB = q
		qBmu.Unlock()
	})
	defer tSubmit.Stop()

	res, err := ctrl.Run(8*time.Second, 2*time.Second)
	if err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if len(res.Recoveries) != 1 {
		t.Fatalf("recoveries %+v, want exactly one", res.Recoveries)
	}
	qBmu.Lock()
	gotB := qB
	qBmu.Unlock()
	if gotB < 0 {
		t.Fatal("post-failure submit never completed")
	}
	ctrl.mu.Lock()
	placement := append([]stream.NodeID(nil), ctrl.plane.Query(gotB).Placement...)
	ctrl.mu.Unlock()
	if len(placement) != 2 {
		t.Fatalf("submitted query placed on %v", placement)
	}
	for _, ni := range placement {
		if ni == 1 {
			t.Fatalf("submitted query placed on dead node 1: %v", placement)
		}
	}
	if _, ok := res.PerQuery[qA]; !ok {
		t.Error("recovered founding query missing from results")
	}
	if _, ok := res.PerQuery[gotB]; !ok {
		t.Error("post-failure submission missing from results")
	}
}

// TestRetractRacesRecovery: a retract issued while failure recovery is
// re-placing the same query must leave a clean federation no matter
// which side wins — no abort, no hang, and no zombie fragments on any
// surviving host.
func TestRetractRacesRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock federation test in -short mode")
	}
	const cqlText = "Select Avg(t.v) From AllSrc[Range 1 sec]"
	addrs, srvs := startNodes(t, 4, 50_000)
	ctrl, err := NewController(ControllerConfig{
		STW:      2 * stream.Second,
		Interval: 50 * stream.Millisecond,
		Seed:     1,
	}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.CloseAll()

	qA, err := ctrl.Submit(cqlText, 2, 1, 20, 4, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	// Fire the crash and the retract together: the failure detector and
	// the retract race on the same query.
	tKill := time.AfterFunc(1*time.Second, func() { srvs[0].Close() })
	defer tKill.Stop()
	tRetract := time.AfterFunc(1*time.Second, func() {
		if err := ctrl.Retract(qA); err != nil {
			t.Errorf("retract racing recovery: %v", err)
		}
	})
	defer tRetract.Stop()

	res, err := ctrl.Run(4*time.Second, 1*time.Second)
	if err != nil {
		t.Fatalf("run aborted: %v", err)
	}
	if _, ok := res.PerQuery[qA]; !ok {
		t.Error("retracted query's frozen mean missing from results")
	}
	ctrl.mu.Lock()
	if _, ok := ctrl.deps[qA]; ok {
		t.Error("retracted query still has a deploy record")
	}
	ctrl.mu.Unlock()
	// No surviving host may still run a fragment of the retracted query
	// — including one handed a recovery re-deploy that lost the race
	// (the controller follows up with an undo retract).
	deadline := time.Now().Add(3 * time.Second)
	for {
		var zombies int
		for ni, srv := range srvs {
			if ni == 0 {
				continue // the crashed node
			}
			srv.mu.Lock()
			nd := srv.nd
			srv.mu.Unlock()
			if nd == nil {
				continue
			}
			for f := stream.FragID(0); f < 2; f++ {
				if nd.HostsFragment(qA, f) {
					zombies++
				}
			}
		}
		if zombies == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d zombie fragments of the retracted query survive on the hosts", zombies)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestRetractFreesControllerState: deploy-then-retract (no run) must
// return every per-query controller map to baseline and strip the
// fragments off the node servers; retracting an unknown query errors.
func TestRetractFreesControllerState(t *testing.T) {
	const cqlText = "Select Avg(t.v) From Src[Range 1 sec]"
	addrs, srvs := startNodes(t, 2, 1000)
	ctrl, err := NewController(ControllerConfig{Seed: 1}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.CloseAll()

	var qs []stream.QueryID
	for i := 0; i < 3; i++ {
		q, err := ctrl.Submit(cqlText, 1, 1, 20, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	for _, q := range qs {
		if err := ctrl.Retract(q); err != nil {
			t.Fatal(err)
		}
	}
	if err := ctrl.Retract(qs[0]); err == nil {
		t.Error("double retract accepted")
	}
	if err := ctrl.Retract(99); err == nil {
		t.Error("retract of unknown query accepted")
	}

	ctrl.mu.Lock()
	inPlane := 0
	for _, q := range qs {
		if ctrl.plane.Query(q) != nil {
			inPlane++
		}
	}
	got := []int{ctrl.ledger.NumLive(), inPlane, len(ctrl.deps)}
	finished := len(ctrl.ledger.Summary().Queries)
	ctrl.mu.Unlock()
	for i, n := range got {
		if n != 0 {
			t.Errorf("per-query controller map %d still holds %d entries", i, n)
		}
	}
	if finished != 3 {
		t.Errorf("finished means: %d, want 3", finished)
	}

	// The node servers process the retracts asynchronously; their state
	// must drain to the pre-deploy footprint.
	deadline := time.Now().Add(3 * time.Second)
	for {
		total := 0
		for _, srv := range srvs {
			srv.mu.Lock()
			if srv.nd != nil {
				ss := srv.nd.StateSize()
				total += ss.Fragments + ss.Sources + ss.RateEstimators + ss.SourceQueries + ss.KnownSIC
			}
			total += len(srv.peers)
			srv.mu.Unlock()
		}
		if total == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d units of per-query state survive on the node servers", total)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestSubmitRacesRunStart: a Submit made while Run starts — as a
// submit scheduled at offset 0 of a run makes it — reads the run epoch
// under c.mu, so Run must set the epoch under c.mu too. The race
// detector catches the unsynchronised write if it does not.
func TestSubmitRacesRunStart(t *testing.T) {
	addrs, _ := startNodes(t, 1, 1000)
	ctrl, err := NewController(ControllerConfig{STW: 2 * stream.Second, Interval: 50 * stream.Millisecond, Seed: 1}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.CloseAll()
	done := make(chan error, 1)
	go func() {
		_, err := ctrl.Run(200*time.Millisecond, 0)
		done <- err
	}()
	if _, err := ctrl.Submit(avgCQL, 1, 1, 20, 4, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
