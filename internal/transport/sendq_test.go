package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/stream"
)

// steppedHost builds a host whose loop does not run: the test is the
// host loop, calling the step methods itself, and cleanup tears the host
// down as the loop would.
func steppedHost(t testing.TB, name string, capacity float64, wt, cool time.Duration) *NodeServer {
	t.Helper()
	s, err := newHost(NodeServerConfig{Name: name, Addr: "127.0.0.1:0", CapacityPerSec: capacity, Quiet: true}, wt, cool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.shutdown)
	return s
}

// queuedServer builds a stepped host with explicit write timeout and dial
// cooldown that runs testRun and routes query 1 / fragment 2 to addr.
func queuedServer(t *testing.T, addr string, wt, cool time.Duration) *NodeServer {
	t.Helper()
	s := steppedHost(t, "sender", 1000, wt, cool)
	if err := s.handleHello(testRun); err != nil {
		t.Fatal(err)
	}
	s.peers[peerKey{1, 2}] = addr
	return s
}

// queryBatch builds an n-tuple batch for query q routed to fragment 2.
func queryBatch(q stream.QueryID, n int) *stream.Batch {
	b := stream.NewBatch(q, 2, -1, 100, n, 1)
	for i := range b.Tuples {
		b.Tuples[i].TS = 100
		b.Tuples[i].SIC = 0.25
	}
	b.RecomputeSIC()
	return b
}

// blackholePeer accepts connections and never reads a byte: the
// worst-case stalled peer. Its sockets stay open so the sender's writes
// queue in the kernel until the buffers fill and the write deadline is
// the only way out.
type blackholePeer struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func newBlackholePeer(t *testing.T) *blackholePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &blackholePeer{ln: ln}
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.conns = append(p.conns, nc)
			p.mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		for _, nc := range p.conns {
			nc.Close()
		}
		p.mu.Unlock()
	})
	return p
}

// TestStalledPeerBoundedDrain is the regression test for the
// no-deadlines bug: a peer that accepts and never reads must not wedge
// the host loop. Every flush completes within (a small multiple of)
// the write deadline, the undeliverable batches surface in the node's
// dropped tuple/SIC counters, and the write path neither leaks
// goroutines nor pooled batches while the peer is wedged.
func TestStalledPeerBoundedDrain(t *testing.T) {
	peer := newBlackholePeer(t)
	const wt = 150 * time.Millisecond
	s := queuedServer(t, peer.ln.Addr().String(), wt, 50*time.Millisecond)

	goroutines := runtime.NumGoroutine()
	var st struct {
		DroppedBatches int64
		DroppedTuples  int64
		DroppedSIC     float64
	}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		// ~4.7 MB per round: overruns loopback's socket buffers within a
		// few rounds, after which only the deadline unblocks the write.
		for i := 0; i < 96; i++ {
			s.routeDownstream(queryBatch(1, 2048))
		}
		start := time.Now()
		s.flushPeers()
		if d := time.Since(start); d > 20*wt {
			t.Fatalf("flush with wedged peer took %v, deadline is %v: drain not bounded", d, wt)
		}
		nd := s.nd.Stats()
		st.DroppedBatches, st.DroppedTuples, st.DroppedSIC = nd.DroppedBatches, nd.DroppedTuples, nd.DroppedSIC
		if st.DroppedBatches > 0 {
			break
		}
	}
	if st.DroppedBatches == 0 {
		t.Fatal("stalled peer produced no dropped batches: deadline never fired")
	}
	if st.DroppedTuples < st.DroppedBatches*2048 {
		t.Errorf("dropped %d batches but only %d tuples", st.DroppedBatches, st.DroppedTuples)
	}
	if st.DroppedSIC <= 0 {
		t.Errorf("dropped SIC mass %g, want > 0: pre-credited SIC vanished", st.DroppedSIC)
	}
	if live := s.pool.Live(); live != 0 {
		t.Errorf("pool has %d live batches after wedged flushes, want 0", live)
	}
	// The write path is synchronous: no per-peer flusher goroutines may
	// have been spawned (or leaked) while the peer was wedged.
	if now := runtime.NumGoroutine(); now > goroutines+3 {
		t.Errorf("goroutines grew %d -> %d during wedged flushes", goroutines, now)
	}
}

// TestWedgedPeersShareOneWriteTimeout: two peers that stopped reading
// stall a host's flush for one write timeout together, not one each, so
// its heartbeat leaves within the controller's default heartbeat floor
// however many peers a partition wedges. The first wedged peer takes the
// whole timeout and is evicted; the second's frames are dropped without
// a write, its conn kept, and the next flush writes it and evicts it.
func TestWedgedPeersShareOneWriteTimeout(t *testing.T) {
	const wt = 300 * time.Millisecond
	s := queuedServer(t, newBlackholePeer(t).ln.Addr().String(), wt, time.Minute)
	s.peers[peerKey{2, 2}] = newBlackholePeer(t).ln.Addr().String()
	nc, err := net.Dial("tcp", silentPeer(t))
	if err != nil {
		t.Fatal(err)
	}
	s.ctrl = &conn{c: nc, wt: wt}
	defer nc.Close()
	addrs := []string{s.peers[peerKey{1, 2}], s.peers[peerKey{2, 2}]}
	for _, addr := range addrs {
		cn, err := s.peerConn(addr)
		if err != nil {
			t.Fatal(err)
		}
		fillSendBuffer(cn)
	}
	slices.Sort(addrs)
	for flush, evicted := range [][]string{{addrs[0]}, addrs} {
		s.routeDownstream(queryBatch(1, 64))
		s.routeDownstream(queryBatch(2, 64))
		s.queueResults()
		start := time.Now()
		s.flushPeers()
		if d := time.Since(start); d >= wt+wt/2 {
			t.Errorf("flush %d with two wedged peers took %v, want one write timeout (%v)", flush, d, wt)
		}
		if s.ctrlQ.flushes != flush+1 {
			t.Errorf("flush %d: %d controller writes, want %d", flush, s.ctrlQ.flushes, flush+1)
		}
		for _, addr := range addrs {
			if _, open := s.outs[addr]; open == slices.Contains(evicted, addr) {
				t.Errorf("flush %d: conn to %s open %v, want evicted %v", flush, addr, open, evicted)
			}
		}
		if got := s.nd.Stats().DroppedBatches; got != int64(2*(flush+1)) {
			t.Errorf("flush %d: %d batches dropped, want %d", flush, got, 2*(flush+1))
		}
	}
}

// TestWedgedPeerStallsOnlyItsSender is the host twin of
// TestWedgedHostFailsAlone. Host H ships one query's batches to a peer
// that accepts and never reads; every connection H dials to it is filled
// to its last byte, so each flush to it blocks for H's whole write
// timeout, the address cools down, and H redials and blocks again. H
// also receives a live upstream host's batches, under a live controller
// with checkpoints on. While H's loop is stalled, its read loops queue
// what the controller and the upstream host send: H ticks on across the
// cooldown windows, the controller's SIC writes to H never time out so
// no host is failed, the upstream host drops no batch, and H drops no
// control frame.
func TestWedgedPeerStallsOnlyItsSender(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock federation test in -short mode")
	}
	const (
		run  = 5 * time.Second
		wt   = 500 * time.Millisecond
		cool = 300 * time.Millisecond
	)
	addrs, srvs := startNodes(t, 1, 50_000)
	h, err := newNodeServer(NodeServerConfig{Name: "h", Addr: "127.0.0.1:0", CapacityPerSec: 50_000, Seed: 2, Quiet: true}, wt, cool)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	sink := newBlackholePeer(t)
	sinkAddr := sink.ln.Addr().String()
	ctrl, err := NewController(ControllerConfig{
		STW:        2 * stream.Second,
		Interval:   50 * stream.Millisecond,
		Seed:       1,
		Checkpoint: 100 * time.Millisecond,
	}, append(addrs, h.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.CloseAll()
	// One query's root runs on H, fed by its leaf on the upstream host;
	// another's leaf runs on H, and once H has applied its deploy, the
	// route to its root points at the wedged peer instead.
	if _, err := ctrl.Submit(avgAllCQL, 2, 1, 20, 4, []int{1, 0}); err != nil {
		t.Fatal(err)
	}
	qOut, err := ctrl.Submit(avgAllCQL, 2, 1, 20, 4, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		h.mu.Lock()
		_, routed := h.peers[peerKey{qOut, 0}]
		if routed {
			h.peers[peerKey{qOut, 0}] = sinkAddr
		}
		h.mu.Unlock()
		if routed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("H never applied the deploy")
		}
	}

	// Beside Run: wedge each connection H dials to the peer, and sample
	// H's queue depth and tick counter until the run deadline.
	start := time.Now()
	peak, longest := 0, time.Duration(0)
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		wedged := make(map[*conn]bool)
		var last int64
		moved := start
		for time.Since(start) < run-100*time.Millisecond {
			now := time.Now()
			peak = max(peak, len(h.events))
			// A stalled step holds the lock; the queue depth and the
			// growing tick gap are sampled all the same. A new connection
			// to the peer is filled between H's steps, so H's loop, its
			// one writer, writes nothing to it meanwhile.
			if h.mu.TryLock() {
				ticks, cn := h.ticks, h.outs[sinkAddr]
				if cn != nil && !wedged[cn] {
					wedged[cn] = true
					fillSendBuffer(cn)
				}
				h.mu.Unlock()
				if ticks != last {
					last, moved = ticks, now
				}
			}
			longest = max(longest, now.Sub(moved))
			time.Sleep(time.Millisecond)
		}
	}()
	res, err := ctrl.Run(run, 0)
	<-sampled
	if err != nil {
		t.Fatalf("Run aborted: %v", err)
	}
	sink.mu.Lock()
	dials := len(sink.conns)
	sink.mu.Unlock()
	t.Logf("H's event queue peaked at %d of %d; longest tick gap %v; %d dials to the wedged peer", peak, cap(h.events), longest, dials)

	if len(res.Recoveries) != 0 {
		t.Fatalf("recoveries %+v, want none: only H's peer is wedged", res.Recoveries)
	}
	if dials < 2 {
		t.Errorf("H dialled the wedged peer %d times, want a redial after a cooldown window", dials)
	}
	if longest >= wt+time.Second {
		t.Errorf("H went %v without a tick, stalled for more than one write", longest)
	}
	if peak >= cap(h.events) {
		t.Errorf("H's queue filled (%d events): its read loops blocked", peak)
	}
	if len(res.Nodes) != 2 {
		t.Fatalf("stats from %d nodes, want 2", len(res.Nodes))
	}
	for _, st := range res.Nodes {
		switch st.Node {
		case srvs[0].Name:
			if st.DroppedTuples != 0 {
				t.Errorf("the upstream host dropped %d tuples", st.DroppedTuples)
			}
		case h.Name:
			if st.DroppedCtrl != 0 {
				t.Errorf("H dropped %d control frames", st.DroppedCtrl)
			}
			if st.DroppedTuples == 0 {
				t.Error("H dropped nothing: no flush to the wedged peer failed")
			}
			t.Logf("H ran %d ticks", st.Ticks)
		}
	}
}

// TestFullEventQueueWaitsInSocketBuffers: while H's loop is stalled, an
// upstream peer and the controller send H what a net_wide_8x480 host
// heard in one write timeout (2 s) when every SIC update was a frame of
// its own — about 1,100 batch frames and 1,900 control frames a second,
// so some 6,000 events for 4,096 slots; here the control frames are SIC
// frames of one pair each.
// H's queue fills and its read loops block, including the controller's.
// The rest waits in the socket buffers: no write of either sender times
// out, and once the stall ends H applies every batch and still answers
// the controller's stop.
func TestFullEventQueueWaitsInSocketBuffers(t *testing.T) {
	const (
		batches    = 2200
		perBatch   = 4
		ctrlFrames = 3900
	)
	h, err := newNodeServer(NodeServerConfig{Name: "h", Addr: "127.0.0.1:0", CapacityPerSec: 50_000, Quiet: true}, defaultWriteTimeout, defaultDialCooldown)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	nc, ctrl := dialRaw(t, h.Addr())
	for _, e := range []*Envelope{{Kind: KindHello, Hello: testRun}, {Kind: KindStart, Start: &Start{}}} {
		if err := ctrl.send(e); err != nil {
			t.Fatal(err)
		}
	}
	_, peer := dialRaw(t, h.Addr())
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		h.mu.Lock()
		ready := h.started && len(h.in) == 2
		h.mu.Unlock()
		if ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("H never applied the start and both accepts")
		}
	}

	// Stall H's loop: its next step waits for the lock.
	h.mu.Lock()
	stall := time.Now()
	errs := make(chan error, 2)
	go func() {
		b := queryBatch(1, perBatch)
		frame := appendBatchFrame(nil, b)
		b.Release()
		for range batches {
			if err := peer.writeFrames(&net.Buffers{frame}, time.Now().Add(peer.wt)); err != nil {
				errs <- fmt.Errorf("peer write: %w", err)
				return
			}
		}
		errs <- nil
	}()
	go func() {
		for i := range ctrlFrames {
			if err := sendSIC(ctrl, SICMsg{Query: 1, Value: float64(i) / ctrlFrames}); err != nil {
				errs <- fmt.Errorf("controller write: %w", err)
				return
			}
		}
		errs <- nil
	}()
	for range 2 {
		if err := <-errs; err != nil {
			h.mu.Unlock()
			t.Fatalf("a sender's write failed while H was stalled: %v", err)
		}
	}
	sent := time.Since(stall)
	for len(h.events) < cap(h.events) && time.Since(stall) < defaultWriteTimeout {
		time.Sleep(time.Millisecond)
	}
	depth := len(h.events)
	h.mu.Unlock()
	t.Logf("both senders done %v into the stall; H's queue at %d of %d", sent, depth, cap(h.events))
	if sent >= defaultWriteTimeout {
		t.Errorf("the senders took %v, a whole write timeout", sent)
	}
	if depth < cap(h.events) {
		t.Fatalf("H's queue reached only %d of %d: the stall did not fill it", depth, cap(h.events))
	}

	// The stop travels on the controller's connection, so it can overtake
	// batches still waiting in the peer's socket buffer: stop H only once
	// it has applied them all, or a write timeout after the stall ended.
	want := int64(batches * perBatch)
	for deadline := time.Now().Add(defaultWriteTimeout); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		h.mu.Lock()
		arrived := h.nd.Stats().ArrivedTuples
		h.mu.Unlock()
		if arrived >= want {
			break
		}
	}
	st := stopOver(t, nc, ctrl)
	if st == nil {
		t.Fatal("no stats after the stall")
	}
	if st.ArrivedTuples != want {
		t.Errorf("H applied %d tuples after the stall, want all %d", st.ArrivedTuples, want)
	}
	if st.DroppedCtrl != 0 {
		t.Errorf("H dropped %d control frames", st.DroppedCtrl)
	}
}

// TestCloseDuringStalledFlush: teardown cannot block. H routes two
// queries' partials to two peers that stopped reading, over connections
// it has already dialled. While H's loop is stuck in a flush to the
// first, Close returns at once — twice, from two goroutines — and
// Stopped fires within one write timeout: the flush writes nothing to
// the second peer. The controller's connection and both peers' are
// closed.
func TestCloseDuringStalledFlush(t *testing.T) {
	const wt = time.Second
	h, err := newNodeServer(NodeServerConfig{Name: "h", Addr: "127.0.0.1:0", CapacityPerSec: 50_000, Quiet: true}, wt, defaultDialCooldown)
	if err != nil {
		t.Fatal(err)
	}
	sinks := []*blackholePeer{newBlackholePeer(t), newBlackholePeer(t)}
	nc, c := dialRaw(t, h.Addr())
	frames := []*Envelope{{Kind: KindHello, Hello: testRun}}
	for i, sink := range sinks {
		leaf := validDeploy(stream.QueryID(i + 1))
		leaf.CQL, leaf.Fragments, leaf.Frag = avgAllCQL, 2, 1
		leaf.Peers = map[stream.FragID]string{0: sink.ln.Addr().String(), 1: h.Addr()}
		frames = append(frames, &Envelope{Kind: KindDeploy, Deploy: leaf})
	}
	frames = append(frames, &Envelope{Kind: KindStart, Start: &Start{}})
	for _, e := range frames {
		if err := c.send(e); err != nil {
			t.Fatal(err)
		}
	}
	// Once H has dialled both peers, hold its loop between steps and fill
	// both connections, so the next flush blocks on the first peer with
	// the second still to write.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("H never dialled both peers")
		}
		h.mu.Lock()
		if len(h.outs) == len(sinks) {
			for _, cn := range h.outs {
				fillSendBuffer(cn)
			}
			h.mu.Unlock()
			break
		}
		h.mu.Unlock()
	}
	var held time.Time
	for deadline := time.Now().Add(10 * time.Second); held.IsZero() || time.Since(held) < 100*time.Millisecond; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no flush to the wedged peers ever blocked")
		}
		if h.mu.TryLock() {
			h.mu.Unlock()
			held = time.Time{}
		} else if held.IsZero() {
			held = time.Now()
		}
	}

	start := time.Now()
	done := make(chan struct{})
	go func() { h.Close(); close(done) }()
	h.Close()
	<-done
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("Close took %v while the loop was stalled", d)
	}
	select {
	case <-h.Stopped():
		t.Logf("Stopped %v after Close", time.Since(start))
	case <-time.After(wt + 500*time.Millisecond):
		t.Fatalf("Stopped did not fire within one write timeout (%v)", wt)
	}
	peerEnds := []net.Conn{nc}
	for _, sink := range sinks {
		sink.mu.Lock()
		peerEnds = append(peerEnds, sink.conns...)
		sink.mu.Unlock()
	}
	for _, end := range peerEnds {
		end.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := io.Copy(io.Discard, end); err != nil {
			t.Errorf("a connection of the stopped host is still open: %v", err)
		}
	}
}

// TestCoalescedFlush asserts the tentpole invariant: all batches queued
// for one peer during a tick leave in a single vectored write — one
// flush per peer per tick, not one per batch.
func TestCoalescedFlush(t *testing.T) {
	peerA := newFakePeer(t, "127.0.0.1:0")
	peerB := newFakePeer(t, "127.0.0.1:0")
	addrA := peerA.ln.Addr().String()
	addrB := peerB.ln.Addr().String()
	s := queuedServer(t, addrA, defaultWriteTimeout, defaultDialCooldown)
	s.peers[peerKey{2, 2}] = addrB

	const perTick = 10
	for tick := 1; tick <= 2; tick++ {
		for i := 0; i < perTick; i++ {
			s.routeDownstream(queryBatch(1, 3))
			s.routeDownstream(queryBatch(2, 3))
		}
		s.flushPeers()
		for _, q := range []*peerQueue{s.queueFor(addrA), s.queueFor(addrB)} {
			if q.flushes != tick {
				t.Fatalf("tick %d: %d vectored writes for queue, want %d (one per tick)", tick, q.flushes, tick)
			}
			if len(q.frames) != 0 {
				t.Fatalf("tick %d: %d frames still queued after flush", tick, len(q.frames))
			}
		}
		for name, ch := range map[string]chan *stream.Batch{"A": peerA.got, "B": peerB.got} {
			for i := 0; i < perTick; i++ {
				select {
				case <-ch:
				case <-time.After(2 * time.Second):
					t.Fatalf("tick %d: peer %s got %d batches, want %d", tick, name, i, perTick)
				}
			}
		}
	}
}

// TestDialCooldown is the regression test for the synchronous
// dial-per-batch bug: after a dial to a dead peer fails, further sends
// inside the cooldown window must fail fast without touching the
// network, and the address must be probed again once the window
// expires.
func TestDialCooldown(t *testing.T) {
	const cool = 400 * time.Millisecond
	s := queuedServer(t, "", defaultWriteTimeout, cool)
	// The dead address is chosen only after the sender holds its own
	// listening port, and nothing in this test listens again: a port
	// freed before the sender started could be handed straight back to
	// the sender's ":0" listen, and the dial would then succeed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	s.peers[peerKey{1, 2}] = deadAddr

	s.routeDownstream(queryBatch(1, 4))
	s.flushPeers() // dial fails, drops the frame, opens the window
	dropped := s.nd.Stats().DroppedBatches
	if dropped != 1 {
		t.Fatalf("dropped %d batches after failed dial, want 1", dropped)
	}

	if _, err := s.peerConn(deadAddr); !errors.Is(err, errPeerCooling) {
		t.Fatalf("inside the cooldown window: err %v, want errPeerCooling", err)
	}
	// Queued sends inside the window fail fast — bounded well under a
	// dial timeout — and still account their drops.
	s.routeDownstream(queryBatch(1, 4))
	start := time.Now()
	s.flushPeers()
	if d := time.Since(start); d > cool/2 {
		t.Fatalf("cooling-peer flush took %v, want fail-fast", d)
	}
	dropped = s.nd.Stats().DroppedBatches
	if dropped != 2 {
		t.Fatalf("dropped %d batches, want 2", dropped)
	}

	time.Sleep(cool + 100*time.Millisecond)
	if _, err := s.peerConn(deadAddr); errors.Is(err, errPeerCooling) {
		t.Fatal("cooldown window never expired: peer would be negative-cached forever")
	}
}

// discardPeer listens on loopback and reads whatever one connection
// sends into one fixed buffer, allocating nothing per read; accepted
// closes once it holds the connection.
func discardPeer(t *testing.T) (addr string, accepted <-chan struct{}) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	acc := make(chan struct{})
	go func() {
		buf := make([]byte, 64<<10)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		close(acc)
		for {
			if _, err := nc.Read(buf); err != nil {
				return // the sender's Close ends the test
			}
		}
	}()
	return ln.Addr().String(), acc
}

// TestSteadyStateSendZeroAlloc gates the pooled write path: once the
// buffer free list, queue slices and vectored-write scratch are warm,
// routing a batch and flushing it to a live peer performs zero heap
// allocations. testing.AllocsPerRun counts mallocs process-wide, so the
// receiving end must not allocate either: it reads the socket into one
// fixed buffer instead of decoding frames (discardPeer), and the
// measurement starts only after it has accepted the connection.
func TestSteadyStateSendZeroAlloc(t *testing.T) {
	addr, accepted := discardPeer(t)
	s := queuedServer(t, addr, defaultWriteTimeout, defaultDialCooldown)
	b := queryBatch(1, 64)
	for i := 0; i < 50; i++ { // warm: conn, free list, spare slices, iovec cache
		s.routeDownstream(b)
		s.flushPeers()
	}
	<-accepted
	avg := testing.AllocsPerRun(200, func() {
		s.routeDownstream(b)
		s.flushPeers()
	})
	if avg != 0 {
		t.Fatalf("steady-state route+flush allocates %.2f objects/op, want 0", avg)
	}
}

// TestSteadyStateTickFrameZeroAlloc is TestSteadyStateSendZeroAlloc for
// the control path, serial for the same reason. Once warm, a host tick's
// control work — draining 36 results into the tick's pairs, encoding
// them as the tick frame and flushing it to the controller — allocates
// nothing, and neither does the controller's encoding of its per-host
// SIC frame.
func TestSteadyStateTickFrameZeroAlloc(t *testing.T) {
	addr, accepted := discardPeer(t)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	s := steppedHost(t, "n", 1000, defaultWriteTimeout, defaultDialCooldown)
	s.ctrl = &conn{c: nc, wt: defaultWriteTimeout}
	var out node.Outbox
	tick := func() {
		for q := range 36 {
			b := s.pool.Get(stream.QueryID(q), 0, -1, 0, 0, 0)
			b.SIC = 0.01
			out.Results = append(out.Results, b)
		}
		s.drainOutbox(&out)
		s.queueResults()
		s.flushCtrl()
	}
	for range 50 {
		tick()
	}
	<-accepted
	if avg := testing.AllocsPerRun(200, tick); avg != 0 {
		t.Fatalf("steady-state tick frame drain+encode+flush allocates %.2f objects/op, want 0", avg)
	}
	if s.ctrlQ.flushes < 250 || s.ctrlDropped != 0 {
		t.Fatalf("%d controller writes, %d frames dropped: want one a tick and none", s.ctrlQ.flushes, s.ctrlDropped)
	}

	o := nodeOut{sic: make([]SICMsg, 36)}
	o.sicFrame()
	if avg := testing.AllocsPerRun(200, func() { o.sicFrame() }); avg != 0 {
		t.Fatalf("the controller's per-host SIC frame encode allocates %.2f objects/op, want 0", avg)
	}
}

// TestPeerQueueBackpressure: a queue refuses a push that would take it
// past its byte bound, and the refused frame's ownership stays with the
// caller.
func TestPeerQueueBackpressure(t *testing.T) {
	var q peerQueue
	if !q.push(make([]byte, maxQueueBytes-1), 1, 0) {
		t.Fatal("first large push refused")
	}
	if q.push(make([]byte, 2), 1, 0) {
		t.Fatal("push beyond maxQueueBytes accepted: queue is unbounded")
	}
}

// TestCtrlQueueOverflowCounted: control frames refused by a full
// controller queue — here checkpoints of a megabyte, so the byte bound is
// what fills, and then the tick frame — are counted, the first refusal
// of a run is logged exactly once, and the count travels in the stats
// frame only when nonzero (frames of healthy runs stay byte-identical).
func TestCtrlQueueOverflowCounted(t *testing.T) {
	s := steppedHost(t, "n", 1000, defaultWriteTimeout, defaultDialCooldown)
	var logged []string
	s.logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	ckpt := &Envelope{Kind: KindCheckpoint, Checkpoint: &CheckpointMsg{State: make([]byte, 1<<20)}}
	p, err := json.Marshal(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	fit := maxQueueBytes / (frameHeaderLen + len(p))
	const extra = 3
	for i := 0; i < fit+extra; i++ {
		s.queueCtrl(appendFrame(s.wbufs.get(), frameJSON, p))
	}
	if got := s.ctrlDropped; got != extra {
		t.Fatalf("dropped %d control frames, want %d", got, extra)
	}
	// Filled to the last byte, the queue refuses the tick frame too, and
	// all of the tick's results with it.
	if !s.ctrlQ.push(make([]byte, maxQueueBytes-s.ctrlQ.bytes), 0, 0) {
		t.Fatal("the queue refused a push up to its bound")
	}
	s.results = append(s.results, SICMsg{Query: 1, Value: 0.5}, SICMsg{Query: 2, Value: 0.5})
	s.queueResults()
	if got := s.ctrlDropped; got != extra+1 || len(s.results) != 0 {
		t.Fatalf("dropped %d control frames, %d results left, want %d and none", got, len(s.results), extra+1)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "control queue full") {
		t.Fatalf("overflow logged %d times, want once: %q", len(logged), logged)
	}
	// The flush empties the queue; later frames fit again and the count
	// keeps its total.
	s.flushCtrl()
	s.queueResults()
	if got := s.ctrlDropped; got != extra+1 {
		t.Fatalf("dropped count moved to %d after the queue drained", got)
	}
	healthy, _ := json.Marshal(&StatsMsg{Node: "n"})
	if strings.Contains(string(healthy), "dropped_ctrl_frames") || strings.Contains(string(healthy), "refused_restores") {
		t.Fatalf("zero counts change the stats frame: %s", healthy)
	}
	lossy, _ := json.Marshal(&StatsMsg{Node: "n", DroppedCtrl: s.ctrlDropped, RefusedRestores: 2})
	var back StatsMsg
	if err := json.Unmarshal(lossy, &back); err != nil || back.DroppedCtrl != extra+1 || back.RefusedRestores != 2 {
		t.Fatalf("stats frame round trip: %v, %+v", err, back)
	}
}

// TestCatchUpTickSendsEveryFrame: a send queue's one bound is bytes, so
// one tick that queues many small frames — the catch-up tick of a host
// whose loop stalled — writes every one. Here 1,024 three-tuple batches
// for one peer and 600 results for the controller, far below the byte
// bound, all arrive — the results as the 600 pairs of one tick frame —
// and none is counted as dropped.
func TestCatchUpTickSendsEveryFrame(t *testing.T) {
	const batches, reports = 1024, 600
	peer := newFakePeer(t, "127.0.0.1:0")
	s := queuedServer(t, peer.ln.Addr().String(), defaultWriteTimeout, defaultDialCooldown)
	ctrl, fr := ctrlLink(t)
	s.ctrl = ctrl
	gotBatches := make(chan struct{}, batches)
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		for i := 0; i < batches; i++ {
			select {
			case <-peer.got:
				gotBatches <- struct{}{}
			case <-stop:
				return
			}
		}
	}()
	gotReports := make(chan struct{}, reports)
	go func() {
		for {
			_, _, pairs, err := fr.next()
			if err != nil {
				return
			}
			for i, m := range pairs {
				if m != (SICMsg{Query: stream.QueryID(i), Value: 0.001}) {
					return
				}
				gotReports <- struct{}{}
			}
		}
	}()
	for i := 0; i < batches; i++ {
		s.routeDownstream(queryBatch(1, 3))
	}
	for i := 0; i < reports; i++ {
		s.results = append(s.results, SICMsg{Query: stream.QueryID(i), Value: 0.001})
	}
	s.queueResults()
	s.flushPeers()
	if st := s.nd.Stats(); st.DroppedBatches != 0 {
		t.Errorf("dropped %d batches (%d tuples) of one tick, want none", st.DroppedBatches, st.DroppedTuples)
	}
	if s.ctrlDropped != 0 {
		t.Errorf("dropped %d control frames of one tick, want none", s.ctrlDropped)
	}
	for _, want := range []struct {
		what string
		got  chan struct{}
		n    int
	}{{"peer batches", gotBatches, batches}, {"controller reports", gotReports, reports}} {
		for i := 0; i < want.n; i++ {
			select {
			case <-want.got:
			case <-time.After(5 * time.Second):
				t.Fatalf("%d %s arrived, want %d", i, want.what, want.n)
			}
		}
	}
}

// ctrlLink connects a loopback socket as a host's controller connection.
// It returns the host's end and a frame reader on the controller's.
func ctrlLink(t *testing.T) (*conn, *frameReader) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ctrlEnd, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	hostEnd, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrlEnd.Close(); hostEnd.Close() })
	return &conn{c: hostEnd, wt: defaultWriteTimeout}, newFrameReader(ctrlEnd)
}

// TestHostReportsOnlyResults drives the host's own interval step, tick,
// on virtual time. What a tick writes to the controller is exactly one
// frame, a SIC frame whose pairs are the tick's results in order, and
// nothing else: a mirror node deployed and ticked over the same spans
// says which results those are. A batch queued before a tick is applied in it. A tick whose
// flush fails leaves every send queue empty, with the frames it could
// not deliver counted as dropped.
func TestHostReportsOnlyResults(t *testing.T) {
	const hosted = 6
	t0 := time.Unix(1_000_000, 0)
	at := func(tick int) time.Time { return t0.Add(time.Duration(tick) * 100 * time.Millisecond) }
	run := &Hello{STWMs: 2000, IntervalMs: 100}

	t.Run("queued batch joins the tick", func(t *testing.T) {
		s := steppedHost(t, "n", 50_000, defaultWriteTimeout, defaultDialCooldown)
		if err := s.handleHello(run); err != nil {
			t.Fatal(err)
		}
		ctrl, _ := ctrlLink(t)
		s.handle(t0, hostEvent{c: ctrl, env: &Envelope{Kind: KindStart, Start: &Start{}}})
		live := s.pool.Live()
		s.events <- hostEvent{c: ctrl, b: s.pool.Get(1, 2, -1, 0, 5, 1)}
		if got := s.nd.Stats().ArrivedTuples; got != 0 {
			t.Fatalf("%d tuples arrived before the tick applied the queued batch", got)
		}
		s.tick(at(1))
		if got := s.nd.Stats().ArrivedTuples; got != 5 {
			t.Fatalf("tick applied %d arrived tuples, want the queued batch's 5", got)
		}
		if len(s.events) != 0 {
			t.Fatalf("%d events still queued after the tick", len(s.events))
		}
		if got := s.pool.Live(); got != live {
			t.Fatalf("pool live %d -> %d: the tick did not consume the queued batch", live, got)
		}
	})

	// The leaf of a two-fragment query whose root sits at an address
	// nothing listens on: every tick's partials fail to flush.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()
	deploy := func(s *NodeServer) {
		t.Helper()
		if err := s.handleHello(run); err != nil {
			t.Fatal(err)
		}
		for q := 0; q < hosted; q++ {
			if err := s.handleDeploy(&Deploy{
				Query: stream.QueryID(q), CQL: "Select Avg(t.v) From Src[Range 1 sec]", Fragments: 1, Dataset: 1,
				Rate: 200, Batches: 10, SourceSeed: int64(q + 1),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.handleDeploy(&Deploy{
			Query: hosted, Frag: 1, CQL: avgAllCQL, Fragments: 2, Dataset: 1,
			Rate: 200, Batches: 10, SourceSeed: hosted + 1,
			Peers: map[stream.FragID]string{0: deadAddr, 1: s.Addr()},
		}); err != nil {
			t.Fatal(err)
		}
	}
	s := steppedHost(t, "n", 50_000, defaultWriteTimeout, defaultDialCooldown)
	deploy(s)
	ctrl, fr := ctrlLink(t)
	s.handle(t0, hostEvent{c: ctrl, env: &Envelope{Kind: KindStart, Start: &Start{}}})
	mirror := steppedHost(t, "mirror", 50_000, defaultWriteTimeout, defaultDialCooldown)
	deploy(mirror)

	type report struct {
		q   stream.QueryID
		sic float64
	}
	var results int
	for tick := 1; tick <= 40; tick++ {
		s.tick(at(tick))
		var want []report
		mirror.nd.TickSpan(stream.Time(100*(tick-1)), stream.Time(100*tick))
		out := mirror.nd.TakeOutbox()
		for _, b := range out.Results {
			want = append(want, report{b.Query, b.SIC})
			b.Release()
		}
		for _, b := range out.Downstream {
			b.Release()
		}
		out.Reset()
		// Each tick's one frame is read before the next tick writes: a
		// second frame of a tick would be read as the next tick's.
		e, b, pairs, err := fr.next()
		if err != nil || e != nil || b != nil || pairs == nil {
			t.Fatalf("tick %d: wrote envelope %+v, batch %v, err %v; want one SIC frame", tick, e, b, err)
		}
		var got []report
		for _, m := range pairs {
			got = append(got, report{m.Query, m.Value})
		}
		if !slices.Equal(got, want) {
			t.Fatalf("tick %d: reported %v, want one report per result %v", tick, got, want)
		}
		results += len(want)
		for addr, q := range s.wq {
			if len(q.frames) != 0 {
				t.Fatalf("tick %d: %d frames still queued for %s after the flush", tick, len(q.frames), addr)
			}
		}
	}
	// The 1 s windows must have closed several times.
	if results < hosted*2 {
		t.Fatalf("degenerate run: %d results over 40 ticks", results)
	}
	if st := s.nd.Stats(); st.DroppedBatches == 0 || st.DroppedSIC <= 0 {
		t.Errorf("undeliverable partials not counted as dropped: %+v", st)
	}
}
