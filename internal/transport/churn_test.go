package transport

import (
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/node"
	"repro/internal/stream"
)

// TestChurnRecoveryEndToEnd is the acceptance test for node-churn
// survival: a 4-node loopback federation (three founding members plus
// one joined spare) runs a 3-fragment CQL query; the node hosting the
// ROOT fragment is killed mid-run. The controller must detect the
// failure, re-place the root on the spare, rewire the surviving hosts'
// peer routing (their downstream moved — the strongest rewire case),
// reset the query's SIC at the recovery epoch, and finish the run. The
// post-recovery SIC must match the virtual-time engine executing the
// same churn schedule. Tolerance: both federations are underloaded, so
// both sit near SIC 1 in steady state; 0.15 absorbs wall-clock tick
// jitter and the warm-start of the re-placed sources' rate estimators
// (same tolerance as TestDistributedCQLEndToEnd).
func TestChurnRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock federation test in -short mode")
	}
	const (
		cqlText  = "Select Avg(t.v) From AllSrc[Range 1 sec]"
		frags    = 3
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
	}, addrs[:3])
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.CloseAll()
	if idx, err := ctrl.AddNode(addrs[3]); err != nil || idx != 3 {
		t.Fatalf("AddNode: idx %d, err %v", idx, err)
	}

	placement, err := ctrl.AutoPlace(frags)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctrl.Submit(cqlText, frags, dataset, rate, batches, placement)
	if err != nil {
		t.Fatal(err)
	}
	rootHost := placement[0]

	go func() {
		time.Sleep(3 * time.Second)
		srvs[rootHost].Close() // crash the root's host mid-run
	}()
	res, err := ctrl.Run(10*time.Second, 6*time.Second)
	if err != nil {
		t.Fatalf("Run aborted on a recoverable failure: %v", err)
	}
	if len(res.Recoveries) != 1 {
		t.Fatalf("recoveries: %+v, want exactly one", res.Recoveries)
	}
	rec := res.Recoveries[0]
	if rec.Node != addrs[rootHost] {
		t.Errorf("recovery names node %s, want %s", rec.Node, addrs[rootHost])
	}
	if len(rec.Queries) != 1 || rec.Queries[0] != q {
		t.Errorf("recovery re-placed queries %v, want [%d]", rec.Queries, q)
	}
	t.Logf("recovery: detected at %v, re-placement took %v", rec.At, rec.Took)
	if rec.Took > 2*time.Second {
		t.Errorf("re-placement took %v — recovery should be near-instant on loopback", rec.Took)
	}
	if len(res.Nodes) != 3 {
		t.Errorf("final stats from %d nodes, want the 3 survivors: %+v", len(res.Nodes), res.Nodes)
	}
	netSIC := res.PerQuery[q]

	// The deterministic mirror: same statement and source data, same
	// membership, same churn schedule (kill the root's host at the same
	// run offset).
	cfg := federation.Defaults()
	cfg.STW = 3 * stream.Second
	cfg.Interval = 100 * stream.Millisecond
	cfg.Duration = 10 * stream.Second
	cfg.Warmup = 6 * stream.Second
	cfg.SourceRate = rate
	cfg.BatchesPerSec = batches
	cfg.Seed = 1
	eng := federation.NewEngine(cfg)
	eng.AddNodes(4, capacity)
	vq, err := eng.Submit(federation.QuerySubmit{CQL: cqlText, Fragments: frags, Dataset: dataset, Rate: rate, Placement: []stream.NodeID{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(0); tick < int64(cfg.Duration/cfg.Interval); tick++ {
		if tick == 30 {
			eng.KillNode(stream.NodeID(rootHost))
		}
		eng.Step()
	}
	vres := eng.Results()
	virtSIC := vres.Queries[int(vq)].MeanSIC
	t.Logf("networked SIC %.4f, virtual-time SIC %.4f, gap %.4f", netSIC, virtSIC, math.Abs(netSIC-virtSIC))
	if math.Abs(netSIC-virtSIC) > 0.15 {
		t.Errorf("post-recovery networked SIC %.3f vs virtual-time SIC %.3f: disagree beyond tolerance", netSIC, virtSIC)
	}
	if netSIC < 0.85 {
		// A SIC this high is only reachable if the re-placed root receives
		// the surviving fragments' partials — i.e. the rewire actually
		// redirected their batches to the spare.
		t.Errorf("post-recovery SIC %.3f: recovery did not restore the pipeline", netSIC)
	}
}

// fakePeer is a restartable batch sink: a TCP listener that decodes
// frames and delivers binary batches to got.
type fakePeer struct {
	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	got   chan *stream.Batch
}

func newFakePeer(t *testing.T, addr string) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	p := &fakePeer{ln: ln, conns: make(map[net.Conn]struct{}), got: make(chan *stream.Batch, 64)}
	go p.accept(ln)
	t.Cleanup(func() { p.stop() })
	return p
}

func (p *fakePeer) accept(ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		p.conns[nc] = struct{}{}
		p.mu.Unlock()
		go func() {
			fr := newFrameReader(nc)
			for {
				_, b, err := fr.next()
				if err != nil {
					return
				}
				if b != nil {
					p.got <- b
				}
			}
		}()
	}
}

// stop kills the peer: listener and all accepted connections close, as
// on a process crash.
func (p *fakePeer) stop() {
	p.ln.Close()
	p.mu.Lock()
	for nc := range p.conns {
		nc.Close()
	}
	p.conns = make(map[net.Conn]struct{})
	p.mu.Unlock()
}

func testBatch(n int) *stream.Batch {
	b := stream.NewBatch(1, 2, -1, 100, n, 1)
	for i := range b.Tuples {
		b.Tuples[i].TS = 100
		b.Tuples[i].SIC = 0.25
	}
	b.RecomputeSIC()
	return b
}

// TestPeerConnRedial is the regression test for the cached-broken-conn
// bug: after the peer dies and restarts on the same address, batch
// routing must evict the stale connection and re-dial instead of
// failing against the dead socket forever.
func TestPeerConnRedial(t *testing.T) {
	peer := newFakePeer(t, "127.0.0.1:0")
	addr := peer.ln.Addr().String()
	s := queuedServer(t, addr, defaultWriteTimeout, defaultDialCooldown)

	s.routeDownstream(testBatch(3))
	s.flushPeers()
	select {
	case <-peer.got:
	case <-time.After(2 * time.Second):
		t.Fatal("first batch never arrived")
	}

	// Peer restarts on the same address.
	peer.stop()
	peer2 := newFakePeer(t, addr)

	// The cached connection is now broken. Depending on TCP timing the
	// first few sends may land in the kernel buffer before the RST is
	// observed; keep routing until the eviction + re-dial path delivers
	// to the restarted peer.
	deadline := time.After(5 * time.Second)
	for {
		s.routeDownstream(testBatch(3))
		s.flushPeers()
		select {
		case <-peer2.got:
			return // re-dial reached the restarted peer
		case <-deadline:
			t.Fatal("no batch reached the restarted peer: broken conn still cached")
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestDroppedSICAccounting: a batch whose routing fails outright (no
// listener at the peer address) must be counted — tuples and SIC mass —
// in the node's stats instead of vanishing.
func TestDroppedSICAccounting(t *testing.T) {
	// Grab an address with no listener behind it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	s := queuedServer(t, deadAddr, defaultWriteTimeout, defaultDialCooldown)
	b := testBatch(4)
	wantSIC := b.SIC
	s.routeDownstream(b)
	// A batch with no peer entry at all is dropped too.
	s.routeDownstream(&stream.Batch{Query: 9, Frag: 9, Tuples: testBatch(2).Tuples, SIC: 0.5})
	// The dial failure (and the drop accounting for the queued frame)
	// happens at flush time.
	s.flushPeers()

	st := s.nd.Stats()
	if st.DroppedBatches != 2 || st.DroppedTuples != 6 {
		t.Errorf("dropped %d batches / %d tuples, want 2 / 6", st.DroppedBatches, st.DroppedTuples)
	}
	if math.Abs(st.DroppedSIC-(wantSIC+0.5)) > 1e-12 {
		t.Errorf("dropped SIC %g, want %g", st.DroppedSIC, wantSIC+0.5)
	}
}

// TestStatsMsgCarriesDrops: the final stats frame must surface the
// dropped counters to the controller.
func TestStatsMsgCarriesDrops(t *testing.T) {
	var nd node.Stats
	nd.DroppedTuples, nd.DroppedSIC = 7, 0.125
	m := StatsMsg{Node: "x", DroppedTuples: nd.DroppedTuples, DroppedSIC: nd.DroppedSIC}
	if m.DroppedTuples != 7 || m.DroppedSIC != 0.125 {
		t.Fatalf("stats msg lost drop counters: %+v", m)
	}
}

// --- stop-handshake edge cases ---

// stopOver sends a stop on the given connection and waits for the stats
// reply, failing the test on timeout.
func stopOver(t *testing.T, nc net.Conn, c *conn) *StatsMsg {
	t.Helper()
	if err := c.send(&Envelope{Kind: KindStop}); err != nil {
		return nil // connection already torn down by a concurrent stop
	}
	fr := newFrameReader(nc)
	type reply struct{ s *StatsMsg }
	ch := make(chan reply, 1)
	go func() {
		for {
			e, _, err := fr.next()
			if err != nil {
				ch <- reply{nil}
				return
			}
			if e != nil && e.Kind == KindStats {
				ch <- reply{e.Stats}
				return
			}
		}
	}()
	select {
	case r := <-ch:
		return r.s
	case <-time.After(5 * time.Second):
		t.Fatal("stop handshake hung: no stats reply")
		return nil
	}
}

func dialRaw(t *testing.T, addr string) (net.Conn, *conn) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc, newConn(nc)
}

// TestStopBeforeStart: a stop arriving before any deploy or start must
// answer (zero) stats and shut the server down — not hang waiting for a
// tick that never ran.
func TestStopBeforeStart(t *testing.T) {
	srv, err := NewNodeServer(NodeServerConfig{Name: "s", Addr: "127.0.0.1:0", Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	nc, c := dialRaw(t, srv.Addr())
	st := stopOver(t, nc, c)
	if st == nil || st.ArrivedTuples != 0 {
		t.Errorf("want zero stats reply, got %+v", st)
	}
	select {
	case <-srv.Stopped():
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down after pre-start stop")
	}
}

// startedServer announces the test run, deploys one single-fragment AVG
// query and starts the node, returning the server.
func startedServer(t *testing.T) *NodeServer {
	t.Helper()
	srv, err := NewNodeServer(NodeServerConfig{Name: "s", Addr: "127.0.0.1:0", CapacityPerSec: 10_000, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	_, c := dialRaw(t, srv.Addr())
	if err := c.send(&Envelope{Kind: KindHello, Hello: testRun}); err != nil {
		t.Fatal(err)
	}
	if err := c.send(&Envelope{Kind: KindDeploy, Deploy: validDeploy(0)}); err != nil {
		t.Fatal(err)
	}
	if err := c.send(&Envelope{Kind: KindStart, Start: &Start{}}); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestDoubleStop: two stops racing over different connections must both
// terminate — neither may hang on the host loop's exit nor double-close
// anything.
func TestDoubleStop(t *testing.T) {
	srv := startedServer(t)
	time.Sleep(150 * time.Millisecond) // let a few ticks run

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		nc, c := dialRaw(t, srv.Addr())
		wg.Add(1)
		go func() {
			defer wg.Done()
			stopOver(t, nc, c)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("double stop hung")
	}
	select {
	case <-srv.Stopped():
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down after double stop")
	}
}

// TestStopRacesRedeploy: a recovery re-deploy (deploy + start + rewire)
// racing a stop must neither hang nor crash the server, whichever side
// wins.
func TestStopRacesRedeploy(t *testing.T) {
	for round := 0; round < 5; round++ {
		srv := startedServer(t)
		ncD, cD := dialRaw(t, srv.Addr())
		_ = ncD
		ncS, cS := dialRaw(t, srv.Addr())

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			cD.send(&Envelope{Kind: KindDeploy, Deploy: validDeploy(7)})
			cD.send(&Envelope{Kind: KindStart, Start: &Start{}})
			cD.send(&Envelope{Kind: KindRewire, Rewire: &Rewire{Query: 7, Peers: map[stream.FragID]string{}}})
		}()
		go func() {
			defer wg.Done()
			stopOver(t, ncS, cS)
		}()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: stop racing redeploy hung", round)
		}
		srv.Close()
	}
}

// TestHeartbeatDetection: a node whose connection stays open but which
// never sends anything (a partitioned process) must be declared failed
// by the missed-heartbeat detector; with no survivors to re-place onto,
// the run aborts with the heartbeat diagnosis.
func TestHeartbeatDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock federation test in -short mode")
	}
	ctrl, err := NewController(ControllerConfig{
		STW:              2 * stream.Second,
		Interval:         50 * stream.Millisecond,
		HeartbeatTimeout: 400 * time.Millisecond,
		Seed:             1,
	}, []string{silentPeer(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.CloseAll()
	if _, err := ctrl.Submit(avgCQL, 1, 1, 50, 4, []int{0}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = ctrl.Run(30*time.Second, 0)
	if err == nil {
		t.Fatal("silent node went undetected")
	}
	if !strings.Contains(err.Error(), "missed heartbeats") {
		t.Errorf("unexpected diagnosis: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("detection took %v, want well under the run deadline", elapsed)
	}
}

// silentPeer listens on loopback as a partitioned node would look: it
// accepts connections and reads everything, but answers nothing.
func silentPeer(tb testing.TB) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				io.Copy(io.Discard, nc)
			}()
		}
	}()
	return ln.Addr().String()
}

// TestQueuedFramesAreNotSilence: silence is judged only after every
// queued event has been applied, so a host whose frames wait behind a
// slow step of Run is not declared partitioned. Both nodes were last
// heard from before the heartbeat timeout; a heartbeat from node 0 is
// queued but not yet applied when the tick runs. Node 0 stays alive and
// node 1, which queued nothing, is failed.
func TestQueuedFramesAreNotSilence(t *testing.T) {
	ctrl, err := NewController(ControllerConfig{Seed: 1, HeartbeatTimeout: 50 * time.Millisecond},
		[]string{silentPeer(t), silentPeer(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.CloseAll()
	ctrl.mu.Lock()
	stale := time.Now().Add(-time.Second)
	ctrl.lastSeen[0], ctrl.lastSeen[1] = stale, stale
	ctrl.mu.Unlock()
	ctrl.events <- event{node: 0, env: &Envelope{Kind: KindHeartbeat}}
	if err := ctrl.tick(0); err != nil {
		t.Fatal(err)
	}
	ctrl.mu.Lock()
	defer ctrl.mu.Unlock()
	if !ctrl.plane.Alive(0) {
		t.Error("node 0 failed for silence although its heartbeat was queued")
	}
	if ctrl.plane.Alive(1) {
		t.Error("node 1 stayed alive although it was silent past the timeout")
	}
}

// TestWedgedHostFailsAlone: a host that keeps its connection open and
// beacons but stops reading wedges the controller's SIC write to it for
// the whole write timeout, and Run applies nothing while that write
// blocks. The live hosts tick on, checkpoints on, and their frames wait
// in Run's queue meanwhile. The queue must not fill, so no read loop
// blocks and no host's control flush backs up: every live host keeps
// ticking and drops no control frame. Only the wedged host is failed —
// by its write, not for silence — and its fragment moves to a live host.
func TestWedgedHostFailsAlone(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock federation test in -short mode")
	}
	const (
		run     = 5 * time.Second
		wedgeAt = 500 * time.Millisecond
	)
	addrs, srvs := startNodes(t, 3, 50_000)
	wedged := wedgedPeer(t)
	ctrl, err := NewController(ControllerConfig{
		STW:        2 * stream.Second,
		Interval:   50 * stream.Millisecond,
		Seed:       1,
		Checkpoint: 100 * time.Millisecond,
	}, append(addrs, wedged))
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.CloseAll()
	// The wedged host runs q's leaf: no live host ships it batches, and
	// the controller sends it q's result SIC every tick.
	q, err := ctrl.Submit("Select Avg(t.v) From AllSrc[Range 1 sec]", 2, 1, 20, 4, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range [][]int{{0, 1, 2}, {1}, {2}} {
		if _, err := ctrl.Submit("Select Avg(t.v) From AllSrc[Range 1 sec]", len(at), 1, 20, 4, at); err != nil {
			t.Fatal(err)
		}
	}

	// Beside Run: wedge the host, and sample Run's queue depth and the
	// live hosts' tick counters until the run deadline.
	start := time.Now()
	go func() {
		time.Sleep(wedgeAt)
		fillSendBuffer(ctrl.conns()[3])
	}()
	peak, longest := 0, time.Duration(0)
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		last := make([]int64, len(srvs))
		moved := make([]time.Time, len(srvs))
		for i := range moved {
			moved[i] = start
		}
		for time.Since(start) < run-100*time.Millisecond {
			peak = max(peak, len(ctrl.events))
			for i, s := range srvs {
				s.mu.Lock()
				ticks := s.ticks
				s.mu.Unlock()
				// Read the clock after the lock: a stalled step holds it.
				now := time.Now()
				longest = max(longest, now.Sub(moved[i]))
				if ticks != last[i] {
					last[i], moved[i] = ticks, now
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	res, err := ctrl.Run(run, 0)
	<-sampled
	if err != nil {
		t.Fatalf("Run aborted: %v", err)
	}
	t.Logf("peak queue depth %d of %d; longest live-host tick gap %v", peak, cap(ctrl.events), longest)

	if len(res.Recoveries) != 1 || res.Recoveries[0].Node != wedged {
		t.Fatalf("recoveries %+v, want exactly the wedged host %s", res.Recoveries, wedged)
	}
	rec := res.Recoveries[0]
	t.Logf("wedged host failed at %v; re-placement took %v", rec.At, rec.Took)
	if rec.At < wedgeAt+defaultWriteTimeout-100*time.Millisecond {
		t.Errorf("wedged host failed at %v, before its write could time out", rec.At)
	}
	if peak >= cap(ctrl.events) {
		t.Errorf("Run's queue filled (%d events): the read loops blocked", peak)
	}
	if longest >= defaultWriteTimeout/2 {
		t.Errorf("a live host went %v without a tick while Run was wedged", longest)
	}
	if len(res.Nodes) != len(srvs) {
		t.Errorf("stats from %d nodes, want the %d live ones", len(res.Nodes), len(srvs))
	}
	for _, st := range res.Nodes {
		if st.DroppedCtrl != 0 {
			t.Errorf("node %s dropped %d control frames", st.Node, st.DroppedCtrl)
		}
	}
	ctrl.mu.Lock()
	leaf := ctrl.plane.Query(q).Placement[1]
	ctrl.mu.Unlock()
	if leaf == 3 {
		t.Error("q's leaf still placed on the wedged host")
	}
}

// fillSendBuffer is the stand-in for a receive window that has closed:
// it fills cn's socket to a peer that reads nothing down to its last
// byte — the kernel still takes a small write into a buffer that refused
// a large one — holding cn's send lock meanwhile.
func fillSendBuffer(cn *conn) {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	for size := 64 << 10; size > 0; size /= 4 {
		cn.c.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
		junk := make([]byte, size)
		for {
			if _, err := cn.c.Write(junk); err != nil {
				break
			}
		}
	}
}

// wedgedPeer listens on loopback as a wedged node would look: it accepts
// connections and beacons a heartbeat every 50 ms, but reads nothing.
func wedgedPeer(tb testing.TB) string {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				c := newConn(nc)
				for c.send(&Envelope{Kind: KindHeartbeat}) == nil {
					time.Sleep(50 * time.Millisecond)
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestReplacementMatchesEngine: both drivers hand the re-placement choice
// to the control plane, so for the same membership, placements and kill
// the engine and the controller must move the displaced fragments to the
// same hosts under every strategy — however many deploys the controller
// served before (its post-failure placer used to be seeded with a counter
// bumped on every deploy). No Run, no clock: the failure is injected
// straight into handleFailure and the deploy frames land on idle hosts.
func TestReplacementMatchesEngine(t *testing.T) {
	const cqlText = "Select Avg(t.v) From AllSrc[Range 1 sec]"
	placements := [][]int{{1, 2, 3}, {4, 1}, {1}, {0, 5}}
	for _, strategy := range []string{"round-robin", "uniform", "zipf"} {
		for _, warmups := range []int{0, 3} {
			addrs, _ := startNodes(t, 8, 50_000)
			ctrl, err := NewController(ControllerConfig{Seed: 11, Placement: strategy}, addrs)
			if err != nil {
				t.Fatal(err)
			}
			cfg := federation.Defaults()
			cfg.Seed = 11
			cfg.Placement = strategy
			e := federation.NewEngine(cfg)
			e.AddNodes(8, 50_000)
			// Earlier traffic: same query ids on both sides, auto-placed on the
			// controller so its placer state and deploy count advance.
			for i := 0; i < warmups; i++ {
				at, err := ctrl.AutoPlace(2)
				if err != nil {
					t.Fatal(err)
				}
				q, err := ctrl.Submit(cqlText, 2, 1, 20, 4, at)
				if err != nil {
					t.Fatal(err)
				}
				if err := ctrl.Retract(q); err != nil {
					t.Fatal(err)
				}
				eq, err := e.SubmitCQL(cqlText, 2, 1, 20, nil)
				if err != nil || eq != q {
					t.Fatalf("warm-up ids diverged: engine %d (%v), controller %d", eq, err, q)
				}
				e.RemoveQuery(eq)
			}
			var qs []stream.QueryID
			for _, at := range placements {
				q, err := ctrl.Submit(cqlText, len(at), 1, 20, 4, at)
				if err != nil {
					t.Fatal(err)
				}
				eat := make([]stream.NodeID, len(at))
				for i, n := range at {
					eat[i] = stream.NodeID(n)
				}
				if eq, err := e.SubmitCQL(cqlText, len(at), 1, 20, eat); err != nil || eq != q {
					t.Fatalf("query ids diverged: engine %d (%v), controller %d", eq, err, q)
				}
				qs = append(qs, q)
			}
			if err := ctrl.handleFailure(1, errMissedHeartbeat); err != nil {
				t.Fatalf("%s: recovery failed: %v", strategy, err)
			}
			e.KillNode(1)
			for i, q := range qs {
				ctrl.mu.Lock()
				got := append([]stream.NodeID(nil), ctrl.plane.Query(q).Placement...)
				ctrl.mu.Unlock()
				want := e.Placement(q)
				if len(got) != len(want) {
					t.Fatalf("%s: query %d placement %v vs engine %v", strategy, q, got, want)
				}
				for f := range got {
					if got[f] != want[f] {
						t.Errorf("%s, %d warm-ups: query %d re-placed to %v by the controller, %v by the engine", strategy, warmups, q, got, want)
						break
					}
					if got[f] == 1 {
						t.Errorf("%s: query %d fragment %d left on the dead node", strategy, q, f)
					}
				}
				if i == 3 && (got[0] != 0 || got[1] != 5) {
					t.Errorf("%s: untouched query %d moved to %v", strategy, q, got)
				}
			}
			ctrl.Shutdown()
		}
	}
}
