package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/stream"
)

// queuedServer builds a started-enough NodeServer with explicit write
// timeout and dial cooldown, routing query 1 / fragment 2 to addr.
func queuedServer(t *testing.T, addr string, wt, cool time.Duration) *NodeServer {
	t.Helper()
	s, err := NewNodeServer(NodeServerConfig{
		Name: "sender", Addr: "127.0.0.1:0", CapacityPerSec: 1000, Quiet: true,
		WriteTimeout: wt, DialCooldown: cool,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.handleHello(testRun); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.peers[peerKey{1, 2}] = addr
	s.mu.Unlock()
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
// the tick drain. Every flush completes within (a small multiple of)
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
			s.RouteDownstream(queryBatch(1, 2048))
		}
		start := time.Now()
		s.flushPeers()
		if d := time.Since(start); d > 20*wt {
			t.Fatalf("flush with wedged peer took %v, deadline is %v: drain not bounded", d, wt)
		}
		s.mu.Lock()
		nd := s.nd.Stats()
		s.mu.Unlock()
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

// TestCoalescedFlush asserts the tentpole invariant: all batches queued
// for one peer during a tick leave in a single vectored write — one
// flush per peer per tick, not one per batch.
func TestCoalescedFlush(t *testing.T) {
	peerA := newFakePeer(t, "127.0.0.1:0")
	peerB := newFakePeer(t, "127.0.0.1:0")
	addrA := peerA.ln.Addr().String()
	addrB := peerB.ln.Addr().String()
	s := queuedServer(t, addrA, 0, 0)
	s.mu.Lock()
	s.peers[peerKey{2, 2}] = addrB
	s.mu.Unlock()

	const perTick = 10
	for tick := 1; tick <= 2; tick++ {
		for i := 0; i < perTick; i++ {
			s.RouteDownstream(queryBatch(1, 3))
			s.RouteDownstream(queryBatch(2, 3))
		}
		s.flushPeers()
		for _, q := range []*peerQueue{s.queueFor(addrA), s.queueFor(addrB)} {
			if got := q.flushes.Load(); got != int64(tick) {
				t.Fatalf("tick %d: %d vectored writes for queue, want %d (one per tick)", tick, got, tick)
			}
			if q.pending() != 0 {
				t.Fatalf("tick %d: %d frames still queued after flush", tick, q.pending())
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
	s := queuedServer(t, "", 0, cool)
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
	s.mu.Lock()
	s.peers[peerKey{1, 2}] = deadAddr
	s.mu.Unlock()

	s.RouteDownstream(queryBatch(1, 4))
	s.flushPeers() // dial fails, drops the frame, opens the window
	s.mu.Lock()
	dropped := s.nd.Stats().DroppedBatches
	s.mu.Unlock()
	if dropped != 1 {
		t.Fatalf("dropped %d batches after failed dial, want 1", dropped)
	}

	if _, err := s.peerConn(deadAddr); !errors.Is(err, errPeerCooling) {
		t.Fatalf("inside the cooldown window: err %v, want errPeerCooling", err)
	}
	// Queued sends inside the window fail fast — bounded well under a
	// dial timeout — and still account their drops.
	s.RouteDownstream(queryBatch(1, 4))
	start := time.Now()
	s.flushPeers()
	if d := time.Since(start); d > cool/2 {
		t.Fatalf("cooling-peer flush took %v, want fail-fast", d)
	}
	s.mu.Lock()
	dropped = s.nd.Stats().DroppedBatches
	s.mu.Unlock()
	if dropped != 2 {
		t.Fatalf("dropped %d batches, want 2", dropped)
	}

	time.Sleep(cool + 100*time.Millisecond)
	if _, err := s.peerConn(deadAddr); errors.Is(err, errPeerCooling) {
		t.Fatal("cooldown window never expired: peer would be negative-cached forever")
	}
}

// TestSteadyStateSendZeroAlloc gates the pooled write path: once the
// buffer free list, queue slices and vectored-write scratch are warm,
// routing a batch and flushing it to a live peer performs zero heap
// allocations. testing.AllocsPerRun counts mallocs process-wide, so the
// receiving end must not allocate either: it reads the socket into one
// fixed buffer instead of decoding frames, and the measurement starts
// only after it has accepted the connection.
func TestSteadyStateSendZeroAlloc(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan struct{})
	go func() {
		buf := make([]byte, 64<<10)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		close(accepted)
		for {
			if _, err := nc.Read(buf); err != nil {
				return // the sender's Close ends the test
			}
		}
	}()
	s := queuedServer(t, ln.Addr().String(), 0, 0)
	b := queryBatch(1, 64)
	for i := 0; i < 50; i++ { // warm: conn, free list, spare slices, iovec cache
		s.RouteDownstream(b)
		s.flushPeers()
	}
	<-accepted
	avg := testing.AllocsPerRun(200, func() {
		s.RouteDownstream(b)
		s.flushPeers()
	})
	if avg != 0 {
		t.Fatalf("steady-state route+flush allocates %.2f objects/op, want 0", avg)
	}
}

// TestPeerQueueBackpressure: a queue refuses pushes past its frame
// bound, and the refused frame's ownership stays with the caller.
func TestPeerQueueBackpressure(t *testing.T) {
	var q peerQueue
	for i := 0; i < maxQueueFrames; i++ {
		if !q.push([]byte{1}, 1, 0.5) {
			t.Fatalf("push %d refused below the frame bound", i)
		}
	}
	if q.push([]byte{1}, 1, 0.5) {
		t.Fatal("push beyond maxQueueFrames accepted: queue is unbounded")
	}
	var big peerQueue
	if !big.push(make([]byte, maxQueueBytes-1), 1, 0) {
		t.Fatal("first large push refused")
	}
	if big.push(make([]byte, 2), 1, 0) {
		t.Fatal("push beyond maxQueueBytes accepted: queue is unbounded")
	}
}

// TestCtrlQueueOverflowCounted: control frames refused by a full
// controller queue are counted, the first refusal of a run is logged
// exactly once, and the count travels in the stats frame only when
// nonzero (frames of healthy runs stay byte-identical).
func TestCtrlQueueOverflowCounted(t *testing.T) {
	s, err := NewNodeServer(NodeServerConfig{Name: "n", Addr: "127.0.0.1:0", CapacityPerSec: 1000, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var logged []string
	s.logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	const extra = 3
	for i := 0; i < maxQueueFrames+extra; i++ {
		s.queueCtrl(&Envelope{Kind: KindReport, Report: &ReportMsg{Query: stream.QueryID(i), Result: 0.5, Tuples: 1}})
	}
	if got := s.ctrlDropped.Load(); got != extra {
		t.Fatalf("dropped %d control frames, want %d", got, extra)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "control queue full") {
		t.Fatalf("overflow logged %d times, want once: %q", len(logged), logged)
	}
	// The flush empties the queue; later frames fit again and the count
	// keeps its total.
	s.flushCtrl()
	s.queueCtrl(&Envelope{Kind: KindHeartbeat})
	if got := s.ctrlDropped.Load(); got != extra {
		t.Fatalf("dropped count moved to %d after the queue drained", got)
	}
	healthy, _ := json.Marshal(&StatsMsg{Node: "n"})
	if strings.Contains(string(healthy), "dropped_ctrl_frames") {
		t.Fatalf("zero count changes the stats frame: %s", healthy)
	}
	lossy, _ := json.Marshal(&StatsMsg{Node: "n", DroppedCtrl: s.ctrlDropped.Load()})
	var back StatsMsg
	if err := json.Unmarshal(lossy, &back); err != nil || back.DroppedCtrl != extra {
		t.Fatalf("stats frame round trip: %v, %+v", err, back)
	}
}

// TestHostReportsOnlyResults: what a host queues for the controller per
// tick is its result reports plus the tick loop's one heartbeat, and
// nothing else. The tick body is driven by hand, on virtual time, so the
// frame count is exact.
func TestHostReportsOnlyResults(t *testing.T) {
	const hosted = 6
	s, err := NewNodeServer(NodeServerConfig{Name: "n", Addr: "127.0.0.1:0", CapacityPerSec: 50_000, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.handleHello(&Hello{From: "controller", STWMs: 2000, IntervalMs: 100}); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < hosted; q++ {
		if err := s.handleDeploy(&Deploy{
			Query: stream.QueryID(q), CQL: "Select Avg(t.v) From Src[Range 1 sec]", Fragments: 1, Dataset: 1,
			Rate: 200, Batches: 10, FirstSourceID: stream.SourceID(1000 * q), SourceSeed: int64(q + 1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.ctrl = &conn{} // never written: the test reads the queue instead of flushing it
	var results, reports int
	for tick := 1; tick <= 40; tick++ {
		s.nd.TickSpan(stream.Time(100*(tick-1)), stream.Time(100*tick))
		out := s.nd.TakeOutbox()
		want := len(out.Results)
		s.drainOutbox(out)
		s.queueCtrl(&Envelope{Kind: KindHeartbeat})
		frames := s.ctrlQ.take()
		if len(frames) != want+1 {
			t.Fatalf("tick %d: %d control frames queued, want %d result reports + 1 heartbeat", tick, len(frames), want)
		}
		for _, f := range frames[:want] {
			var e Envelope
			if err := json.Unmarshal(f.buf[frameHeaderLen:], &e); err != nil || e.Kind != KindReport || e.Report.Tuples < 1 {
				t.Fatalf("tick %d: queued %s, want a result report (%v)", tick, f.buf[frameHeaderLen:], err)
			}
		}
		results += want
		reports += len(frames) - 1
		s.recycleFrames(&s.ctrlQ, frames)
	}
	// The 1 s windows must have closed several times.
	if results < hosted*2 {
		t.Fatalf("degenerate run: %d results over 40 ticks", results)
	}
	if reports != results {
		t.Errorf("%d report frames for %d results", reports, results)
	}
}
