package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/federation"
	"repro/internal/stream"
)

// Live query churn tests: queries are first-class runtime citizens —
// Controller.Submit deploys onto a running federation, Controller.
// Retract tears down mid-run — and the TCP runtime must agree with the
// virtual-time engine replaying the identical schedule.

// ownGoroutines labels the calling test's goroutine with the test's
// name, a pprof label every goroutine it starts inherits, and so every
// goroutine those start. The returned check fails the test if, 5 s
// after it is called, a goroutine so labelled other than the caller is
// still alive. Unlike a runtime.NumGoroutine baseline, it does not count
// the goroutines of tests running in parallel.
func ownGoroutines(t *testing.T) (check func()) {
	label := fmt.Sprintf(`# labels: {"test":%q}`, t.Name())
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels("test", t.Name())))
	return func() {
		t.Helper()
		n := labelledGoroutines(label)
		for deadline := time.Now().Add(5 * time.Second); n > 1 && time.Now().Before(deadline); n = labelledGoroutines(label) {
			time.Sleep(50 * time.Millisecond)
		}
		if n > 1 {
			t.Errorf("%d goroutines this test started are still alive after its teardown", n-1)
		}
	}
}

// labelledGoroutines counts the live goroutines whose record in the
// debug=1 goroutine profile carries the labels line label: each record
// is a "<count> @ <pcs>" line followed by its "# labels: " line.
func labelledGoroutines(label string) int {
	var buf bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&buf, 1)
	total, count := 0, 0
	for _, line := range strings.Split(buf.String(), "\n") {
		if n, _, ok := strings.Cut(line, " @ "); ok {
			count, _ = strconv.Atoi(n)
		} else if line == label {
			total += count
		}
	}
	return total
}

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
	t.Parallel()
	leaked := ownGoroutines(t)
	const (
		cqlText  = "Select Avg(t.v) From AllSrc[Range 1 sec]"
		frags    = 2
		dataset  = 1 // uniform
		rate     = 20.0
		batches  = 4.0
		capacity = 50_000.0
	)

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
	// again. The callback runs inside a tick step, under the controller
	// mutex; plain variables are safe.
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
	leaked()
}

// TestSubmitAfterNodeFailure: a mid-run submission issued after a node
// died must place over the surviving membership and run — churn of the
// node population and of the query population compose.
func TestSubmitAfterNodeFailure(t *testing.T) {
	t.Parallel()
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
	t.Parallel()
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
	// — including one handed a recovery re-deploy before the retract.
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
// that Run's first step sets. Both are steps under the controller mutex;
// the race detector catches an access outside one.
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

// TestVerbDuringStopHandshakeIsRefused: once the run has begun its stop
// handshake, a verb is refused at once rather than waiting for the
// handshake to end. The hosts never send their stats, so the handshake
// would wait the whole stopTimeout; CloseAll then ends it, and Run
// still returns the run's results.
func TestVerbDuringStopHandshakeIsRefused(t *testing.T) {
	ctrl := testController(t, ControllerConfig{Seed: 1}, []string{silentPeer(t), silentPeer(t)})
	type outcome struct {
		res *NetResults
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := ctrl.Run(50*time.Millisecond, 0)
		done <- outcome{res, err}
	}()
	// Submit until one is refused: the first after the handshake begins.
	var took time.Duration
	for giveUp := time.Now().Add(stopTimeout); ; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(giveUp) {
			t.Fatal("every Submit was accepted for a whole stopTimeout")
		}
		start := time.Now()
		_, err := ctrl.Submit(avgCQL, 1, 1, 20, 4, nil)
		took = time.Since(start)
		if err != nil {
			if !errors.Is(err, errClosed) {
				t.Fatalf("Submit during the stop handshake: %v, want %v", err, errClosed)
			}
			break
		}
	}
	if took > stopTimeout/10 {
		t.Errorf("Submit during the stop handshake took %v to be refused", took)
	}
	select {
	case o := <-done:
		t.Fatalf("Run returned (%v) before the handshake's stats or timeout", o.err)
	default:
	}
	ctrl.CloseAll()
	if o := <-done; o.err != nil || o.res == nil {
		t.Fatalf("Run after CloseAll ended its stop handshake: %v, %v", o.res, o.err)
	}
}

// TestVerbsRaceTheRunLoop: verbs called from several goroutines while
// Run's goroutine applies frames and ticks are steps under one mutex, in
// some order. The race detector catches any controller state touched
// outside a step. Every query a Submit accepted is in the results, and
// every verb after Run returns is refused.
func TestVerbsRaceTheRunLoop(t *testing.T) {
	t.Parallel()
	addrs, _ := startNodes(t, 4, 50_000)
	ctrl := testController(t, ControllerConfig{STW: stream.Second, Interval: 50 * stream.Millisecond, Seed: 1}, addrs[:3])
	var res *NetResults
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, runErr = ctrl.Run(time.Second, 0)
	}()
	var mu sync.Mutex
	var submitted []stream.QueryID
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := stream.QueryID(-1)
			for {
				q, err := ctrl.Submit(avgCQL, 1, 1, 20, 4, nil)
				if errors.Is(err, errClosed) {
					return
				}
				if err != nil {
					t.Errorf("Submit during the run: %v", err)
					return
				}
				mu.Lock()
				submitted = append(submitted, q)
				mu.Unlock()
				if prev >= 0 {
					if err := ctrl.Retract(prev); err != nil && !errors.Is(err, errClosed) {
						t.Errorf("Retract of query %d: %v", prev, err)
					}
				}
				if _, err := ctrl.AutoPlace(2); err != nil && !errors.Is(err, errClosed) {
					t.Errorf("AutoPlace: %v", err)
				}
				if n := ctrl.NumNodes(); n < 3 || n > 4 {
					t.Errorf("NumNodes %d", n)
				}
				prev = q
				time.Sleep(20 * time.Millisecond)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(300 * time.Millisecond)
		if _, err := ctrl.AddNode(addrs[3]); err != nil {
			t.Errorf("AddNode of the spare during the run: %v", err)
		}
	}()
	wg.Wait()
	<-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	if len(submitted) == 0 {
		t.Fatal("no Submit was accepted during the run")
	}
	for _, q := range submitted {
		if _, ok := res.PerQuery[q]; !ok {
			t.Errorf("query %d, accepted by Submit, is missing from the results", q)
		}
	}
	if _, err := ctrl.Submit(avgCQL, 1, 1, 20, 4, nil); !errors.Is(err, errClosed) {
		t.Errorf("Submit after Run: %v", err)
	}
	if err := ctrl.Retract(submitted[0]); !errors.Is(err, errClosed) {
		t.Errorf("Retract after Run: %v", err)
	}
	if _, err := ctrl.AutoPlace(1); !errors.Is(err, errClosed) {
		t.Errorf("AutoPlace after Run: %v", err)
	}
	if _, err := ctrl.AddNode(silentPeer(t)); !errors.Is(err, errClosed) {
		t.Errorf("AddNode after Run: %v", err)
	}
	if _, err := ctrl.Run(time.Second, 0); !errors.Is(err, errClosed) {
		t.Errorf("a second Run: %v", err)
	}
}

// recordingPeer listens on loopback as a host that records every control
// frame it is sent and answers none. frames returns them once the
// connection has closed.
func recordingPeer(t *testing.T) (addr string, frames func() []*Envelope) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var got []*Envelope
	done := make(chan struct{})
	go func() {
		defer close(done)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		fr := newFrameReader(nc)
		for {
			e, _, _, err := fr.next()
			if err != nil {
				return
			}
			if e != nil {
				got = append(got, e)
			}
		}
	}()
	return ln.Addr().String(), func() []*Envelope { <-done; return got }
}

// TestRetractAndFailureAsSteps is the deterministic form of
// TestRetractRacesRecovery: a retract and the failure of one of the
// query's hosts are two steps, applied in either order — the test
// applies them before any Run. Either way both steps succeed, the
// controller forgets the query, and every live host sees each deploy of
// it followed by a retract: in the failure-first order that includes the
// spare the recovery re-deployed the fragment to.
func TestRetractAndFailureAsSteps(t *testing.T) {
	for _, failFirst := range []bool{false, true} {
		addrs := make([]string, 4)
		frames := make([]func() []*Envelope, 4)
		for i := range addrs {
			addrs[i], frames[i] = recordingPeer(t)
		}
		ctrl := testController(t, ControllerConfig{Seed: 1}, addrs)
		q, err := ctrl.Submit(avgAllCQL, 2, 1, 20, 4, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		steps := []func() error{
			func() error { return ctrl.step(func(time.Time) error { return ctrl.retract(q) }) },
			func() error {
				return ctrl.step(func(now time.Time) error { return ctrl.handleFailure(now, 0, errMissedHeartbeat) })
			},
		}
		order := "retract, then fail"
		if failFirst {
			steps[0], steps[1] = steps[1], steps[0]
			order = "fail, then retract"
		}
		for _, step := range steps {
			if err := step(); err != nil {
				t.Fatalf("%s: %v", order, err)
			}
		}
		if ctrl.plane.Query(q) != nil || ctrl.ledger.Live(q) {
			t.Errorf("%s: the controller still runs query %d", order, q)
		}
		if _, ok := ctrl.deps[q]; ok {
			t.Errorf("%s: query %d still has a deploy record", order, q)
		}
		var moved []stream.QueryID
		if failFirst {
			moved = []stream.QueryID{q}
		}
		if len(ctrl.recoveries) != 1 || !slices.Equal(ctrl.recoveries[0].Queries, moved) {
			t.Fatalf("%s: recoveries %+v, want one re-placing %v", order, ctrl.recoveries, moved)
		}
		for _, n := range ctrl.nodes {
			n.Close()
		}
		spareDeploys := 0
		for i, f := range frames {
			if !ctrl.plane.Alive(stream.NodeID(i)) {
				continue
			}
			deployed := false
			for _, e := range f() {
				switch {
				case e.Kind == KindDeploy && e.Deploy != nil && e.Deploy.Query == q:
					deployed = true
					if i > 1 {
						spareDeploys++
					}
				case e.Kind == KindRetract && e.Retract != nil && e.Retract.Query == q:
					deployed = false
				}
			}
			if deployed {
				t.Errorf("%s: node %d is left with a deploy of query %d that no retract follows", order, i, q)
			}
		}
		if failFirst != (spareDeploys == 1) {
			t.Errorf("%s: %d deploys to a spare", order, spareDeploys)
		}
	}
}

// TestSubmitToUnwritableHostReplacesIt: a host whose deploy write fails
// is failed like one whose SIC write fails, and its fragment moves to the
// spare before the submit returns. The submit succeeds, and the query's
// placement names only live hosts — no query is left half-deployed,
// counted in the results but placed on a host that never got its
// fragment.
func TestSubmitToUnwritableHostReplacesIt(t *testing.T) {
	ctrl := testController(t, ControllerConfig{Seed: 1}, []string{silentPeer(t), silentPeer(t), silentPeer(t)})
	ctrl.nodes[1].Close()
	q, err := ctrl.Submit(avgAllCQL, 2, 1, 20, 4, []int{0, 1})
	if err != nil {
		t.Fatalf("submit with a closed host connection and a spare: %v", err)
	}
	if ctrl.plane.Alive(1) {
		t.Error("the host whose deploy write failed is still a member")
	}
	for f, ni := range ctrl.plane.Query(q).Placement {
		if !ctrl.plane.Alive(ni) {
			t.Errorf("fragment %d of query %d placed on dead host %d", f, q, ni)
		}
	}
	if len(ctrl.recoveries) != 1 || !slices.Equal(ctrl.recoveries[0].Queries, []stream.QueryID{q}) {
		t.Errorf("recoveries %+v, want one re-placing query %d", ctrl.recoveries, q)
	}
}

// TestFailedRedeployWriteFailsItsHost: a recovery whose re-deploy write
// fails fails that host too, rather than aborting the run, and the
// fragment lands on the next free spare. Query 0 runs on hosts 0 and 1;
// host 2, the plane's first choice for fragment 0, cannot be written,
// and host 3 is free.
func TestFailedRedeployWriteFailsItsHost(t *testing.T) {
	ctrl := testController(t, ControllerConfig{Seed: 1}, []string{silentPeer(t), silentPeer(t), silentPeer(t), silentPeer(t)})
	q, err := ctrl.Submit(avgAllCQL, 2, 1, 20, 4, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.nodes[2].Close()
	if err := ctrl.step(func(now time.Time) error { return ctrl.handleFailure(now, 0, errMissedHeartbeat) }); err != nil {
		t.Fatalf("recovery with an unwritable spare and a free one: %v", err)
	}
	if ctrl.plane.Alive(2) {
		t.Error("the host whose re-deploy write failed is still a member")
	}
	if got := ctrl.plane.Query(q).Placement; !slices.Equal(got, []stream.NodeID{3, 1}) {
		t.Errorf("query %d placed on %v, want [3 1]", q, got)
	}
	if len(ctrl.recoveries) != 2 || ctrl.recoveries[0].Node != ctrl.addrs[0] || ctrl.recoveries[1].Node != ctrl.addrs[2] {
		t.Errorf("recoveries %+v, want host 0's, then host 2's", ctrl.recoveries)
	}
	for _, r := range ctrl.recoveries {
		if r.Took <= 0 {
			t.Errorf("recovery of %s has no Took once its frames are written", r.Node)
		}
	}
}

// TestBeginReplacesUnwritableHost: a host whose Start cannot be written
// is failed like any other write failure, and its fragment moves to the
// spare; the run begins.
func TestBeginReplacesUnwritableHost(t *testing.T) {
	ctrl := testController(t, ControllerConfig{Seed: 1}, []string{silentPeer(t), silentPeer(t), silentPeer(t)})
	q, err := ctrl.Submit(avgAllCQL, 2, 1, 20, 4, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.nodes[1].Close()
	// The test is Run's first step here, so it shuts the controller down.
	defer ctrl.shutdown()
	if err := ctrl.step(ctrl.begin); err != nil {
		t.Fatalf("begin with an unwritable host and a spare: %v", err)
	}
	if ctrl.plane.Alive(1) {
		t.Error("the host whose Start write failed is still a member")
	}
	if got := ctrl.plane.Query(q).Placement; !slices.Equal(got, []stream.NodeID{0, 2}) {
		t.Errorf("query %d placed on %v, want [0 2]", q, got)
	}
}

// TestFailedRetractWriteFailsItsHost: a host whose retract cannot be
// written leaves the membership, as one whose deploy or SIC write fails
// does.
func TestFailedRetractWriteFailsItsHost(t *testing.T) {
	ctrl := testController(t, ControllerConfig{Seed: 1}, []string{silentPeer(t), silentPeer(t), silentPeer(t)})
	q, err := ctrl.Submit(avgAllCQL, 2, 1, 20, 4, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.nodes[1].Close()
	if err := ctrl.step(func(time.Time) error { return ctrl.retract(q) }); err != nil {
		t.Fatalf("retract with an unwritable host: %v", err)
	}
	if ctrl.plane.Alive(1) {
		t.Error("the host whose retract write failed is still a member")
	}
	if !ctrl.plane.Alive(0) || !ctrl.plane.Alive(2) {
		t.Error("a host whose writes succeeded was failed")
	}
}

// TestUnplaceableSubmitAbortsRun: a submit whose failed deploy write
// cannot be re-placed leaves its query on the dead host, so the run must
// not begin — even after a later submit's failure is absorbed.
func TestUnplaceableSubmitAbortsRun(t *testing.T) {
	ctrl := testController(t, ControllerConfig{Seed: 1}, []string{silentPeer(t), silentPeer(t), silentPeer(t)})
	ctrl.nodes[0].Close()
	if _, err := ctrl.Submit(avgAllCQL, 3, 1, 20, 4, []int{0, 1, 2}); !errors.Is(err, control.ErrUnplaceable) {
		t.Fatalf("submit across three hosts, one unwritable, no spare: %v, want %v", err, control.ErrUnplaceable)
	}
	spare, err := ctrl.AddNode(silentPeer(t))
	if err != nil {
		t.Fatal(err)
	}
	ctrl.nodes[spare].Close()
	if _, err := ctrl.Submit(avgAllCQL, 1, 1, 20, 4, []int{spare}); err != nil {
		t.Fatalf("submit to an unwritable host with two live ones left: %v", err)
	}
	var started []int // the hosts begin queued a Start for
	// The test is Run's first step here, so it shuts the controller down.
	defer ctrl.shutdown()
	err = ctrl.step(func(now time.Time) error {
		err := ctrl.begin(now)
		for ni, o := range ctrl.out {
			if len(o.envs) > 0 {
				started = append(started, ni)
			}
		}
		return err
	})
	if !errors.Is(err, control.ErrUnplaceable) {
		t.Errorf("begin after an unplaceable submit: %v, want %v", err, control.ErrUnplaceable)
	}
	if len(started) > 0 {
		t.Errorf("begin of an aborted run started hosts %v", started)
	}
}

// TestResultsTellUnmeasuredFromStarved: the run's results say which
// queries were measured. A query retracted before its first sample past
// warmup and a query measured at 0 both read mean 0; only the second is
// measured.
func TestResultsTellUnmeasuredFromStarved(t *testing.T) {
	ctrl := testController(t, ControllerConfig{Seed: 1}, []string{silentPeer(t), silentPeer(t)})
	starved, err := ctrl.Submit(avgCQL, 1, 1, 20, 4, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	gone, err := ctrl.Submit(avgCQL, 1, 1, 20, 4, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	// The test is Run's first step here, so it shuts the controller down.
	defer ctrl.shutdown()
	for _, step := range []func(time.Time) error{
		ctrl.begin,
		func(time.Time) error { return ctrl.retract(gone) },
		// A second into the run, past the warmup, with no report in.
		func(now time.Time) error { return ctrl.tick(now.Add(time.Second), 0) },
	} {
		if err := ctrl.step(step); err != nil {
			t.Fatal(err)
		}
	}
	res := ctrl.results()
	if res.PerQuery[starved] != 0 || !res.Measured[starved] {
		t.Errorf("starved query: mean %v, measured %v; want 0, true", res.PerQuery[starved], res.Measured[starved])
	}
	if _, listed := res.PerQuery[gone]; !listed || res.Measured[gone] {
		t.Errorf("query retracted before its warmup: listed %v, measured %v; want true, false", listed, res.Measured[gone])
	}
}

// TestClosedControllerReturnsAtOnce: once CloseAll has returned on a
// controller that never ran, every exported method returns at once —
// each verb with an error — and the controller's goroutines, its read
// loops, are gone.
func TestClosedControllerReturnsAtOnce(t *testing.T) {
	addrs, _ := startNodes(t, 2, 1000)
	base := runtime.NumGoroutine()
	ctrl, err := NewController(ControllerConfig{Seed: 1}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctrl.Submit(avgCQL, 1, 1, 20, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctrl.CloseAll()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctrl.CloseAll()
		if _, err := ctrl.AddNode(addrs[0]); err == nil {
			t.Error("AddNode accepted")
		}
		if _, err := ctrl.Submit(avgCQL, 1, 1, 20, 4, nil); err == nil {
			t.Error("Submit accepted")
		}
		if err := ctrl.Retract(q); err == nil {
			t.Error("Retract accepted")
		}
		if _, err := ctrl.AutoPlace(1); err == nil {
			t.Error("AutoPlace accepted")
		}
		if _, err := ctrl.Run(time.Second, 0); err == nil {
			t.Error("Run accepted")
		}
		ctrl.OnSIC(func(stream.QueryID, stream.Time, float64) {})
		ctrl.Shutdown()
		if n := ctrl.NumNodes(); n != len(addrs) {
			t.Errorf("NumNodes %d, want %d", n, len(addrs))
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("a method of a closed controller blocked")
	}
	// The hosts' read loops of the controller's connections end on EOF.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after CloseAll, %d before the controller", runtime.NumGoroutine(), base)
		}
	}
}

// TestDefaultHeartbeatOutlastsWriteStall: a healthy host's loop stalls
// for up to one write timeout on a peer that stopped reading and
// beacons again within an interval after, so the default heartbeat
// timeout must exceed both together, or the controller fails a live
// host for silence.
func TestDefaultHeartbeatOutlastsWriteStall(t *testing.T) {
	for _, iv := range []stream.Duration{1, 50, 250, 1000, control.MaxInterval} {
		c := testController(t, ControllerConfig{STW: iv, Interval: iv}, nil)
		if stall := defaultWriteTimeout + time.Duration(iv)*time.Millisecond; c.hbTimeout <= stall {
			t.Errorf("interval %d ms: default heartbeat timeout %v does not outlast a write stall and an interval, %v", iv, c.hbTimeout, stall)
		}
	}
}
