package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/node"
	"repro/internal/sources"
	"repro/internal/stream"
)

// NodeServer exposes one THEMIS node over TCP. It owns the node runtime,
// ticks it with a wall-clock timer, routes derived batches to peer nodes,
// and reports results to the controller.
type NodeServer struct {
	Name string

	ln      net.Listener
	mu      sync.Mutex // guards nd, peers, started, ctrl
	nd      *node.Node
	peers   map[peerKey]string
	started bool
	stop    chan struct{}
	done    chan struct{}

	// plans memoises the deploy path's re-planning of travelling CQL
	// text. Under multi-query sharing the same shape arrives once per
	// subscriber, and only the first deploy should pay the parse+plan;
	// attach-style deploys need the plan only for downstream wiring.
	plans *cql.PlanCache

	// ticks/tickNanos count tick-loop iterations and the wall-clock time
	// spent inside TickSpan, reported in the final stats frame. Guarded
	// by mu (written where TickSpan runs, under the node mutex).
	ticks     int64
	tickNanos int64

	capacity float64
	seed     int64
	policy   string

	// run is the run the controller's hello announced, From left empty
	// (see handleHello); set with nd, guarded by mu. The tick loop
	// checkpoints on its cadence: after every CheckpointTicks-th tick it
	// snapshots each hosted fragment and sends the sealed blobs to the
	// controller, which keeps the newest per fragment for the
	// failure-recovery restore path — the ticks the engine snapshots on.
	run Hello

	// ckptTick counts the checkpoint rounds shipped; ckptEnc is their one
	// reused encoder. Both are guarded by mu (collectCheckpoints holds it
	// while the encoder is in use).
	ckptTick int64
	ckptEnc  stream.SnapEncoder

	ctrl  *conn
	outMu sync.Mutex
	outs  map[string]*conn      // peer address → connection
	wq    map[string]*peerQueue // peer address → this tick's pending frames
	cool  map[string]time.Time  // peer address → dial-cooldown deadline

	// Flush scratch, owned by the single flusher (the tick loop): the
	// parallel addr/queue snapshot flushPeers takes under outMu each
	// tick, reused so steady-state flushes allocate nothing.
	flushAddrs []string
	flushQs    []*peerQueue

	// wbufs recycles encoded-frame buffers between the enqueue side
	// (RouteDownstream, queueCtrl) and the flush side; ctrlQ coalesces
	// the tick's control frames (reports, heartbeat, checkpoints) bound
	// for the controller the same way the per-peer queues coalesce
	// batches.
	wbufs bufPool
	ctrlQ peerQueue
	// ctrlDropped counts control frames refused by a full ctrlQ: reports
	// the controller never saw, so the result SIC it shows reads low.
	ctrlDropped atomic.Int64

	wtimeout time.Duration // per-write deadline on every outbound conn
	dialCool time.Duration // negative-cache window after a dial/write timeout

	// pool recycles the node's batches: the wire decoder draws inbound
	// batches from it and the node releases them after the tick that
	// consumes them, so a steady-state batch receive allocates nothing.
	pool *stream.Pool

	connMu sync.Mutex
	conns  map[net.Conn]struct{} // open inbound connections

	stopOnce  sync.Once
	closeOnce sync.Once
	closed    chan struct{}

	epoch time.Time
	logf  func(format string, args ...any)
}

type peerKey struct {
	q stream.QueryID
	f stream.FragID
}

// NodeServerConfig parameterises a served node.
type NodeServerConfig struct {
	// Name labels the node in stats and logs.
	Name string
	// Addr is the TCP listen address (e.g. "127.0.0.1:0").
	Addr string
	// CapacityPerSec is the node's processing speed in tuples/sec.
	CapacityPerSec float64
	// Policy is "balance-sic" (the default, also "") or "random";
	// NewNodeServer refuses any other.
	Policy string
	// Seed drives shedding randomness.
	Seed int64
	// Quiet suppresses logging.
	Quiet bool
}

// NewNodeServer starts listening (processing begins on Start).
func NewNodeServer(cfg NodeServerConfig) (*NodeServer, error) {
	return newNodeServer(cfg, defaultWriteTimeout, defaultDialCooldown)
}

// newNodeServer is NewNodeServer with the write timeout wt, which bounds
// every outbound frame write (a peer that accepts but never reads
// surfaces as a conn error within it instead of wedging the tick drain),
// and the dial cooldown, the negative-cache window after a failed dial or
// a timed-out write (sends to the address fail fast until it expires).
func newNodeServer(cfg NodeServerConfig, wt, cool time.Duration) (*NodeServer, error) {
	switch cfg.Policy {
	case "", "balance-sic", "random":
	default:
		return nil, fmt.Errorf("transport: unknown shedding policy %q (want balance-sic or random)", cfg.Policy)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s := &NodeServer{
		Name:     cfg.Name,
		ln:       ln,
		pool:     stream.NewPool(),
		plans:    cql.NewPlanCache(),
		peers:    make(map[peerKey]string),
		capacity: cfg.CapacityPerSec,
		seed:     cfg.Seed,
		policy:   cfg.Policy,
		outs:     make(map[string]*conn),
		wq:       make(map[string]*peerQueue),
		cool:     make(map[string]time.Time),
		conns:    make(map[net.Conn]struct{}),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		closed:   make(chan struct{}),
		wtimeout: wt,
		dialCool: cool,
		logf:     log.Printf,
	}
	if cfg.Quiet {
		s.logf = func(string, ...any) {}
	}
	go s.acceptLoop()
	return s, nil
}

// Addr reports the bound listen address.
func (s *NodeServer) Addr() string { return s.ln.Addr().String() }

// Stopped returns a channel closed once the server has fully shut down —
// after a controller-initiated stop has delivered the final stats, or
// after Close. It is safe for a host process to exit when it fires.
func (s *NodeServer) Stopped() <-chan struct{} { return s.closed }

// signalStop closes the stop channel exactly once; Close and the stop
// handshake may race from different goroutines (e.g. SIGINT against a
// controller stop).
func (s *NodeServer) signalStop() {
	s.stopOnce.Do(func() { close(s.stop) })
}

// Close shuts the server down: the listener, outbound peer connections
// and every open inbound connection, so peers and the controller observe
// the shutdown exactly as they would a node crash.
func (s *NodeServer) Close() error {
	s.signalStop()
	err := s.ln.Close()
	s.outMu.Lock()
	for _, c := range s.outs {
		c.Close()
	}
	s.outMu.Unlock()
	s.connMu.Lock()
	for nc := range s.conns {
		nc.Close()
	}
	s.connMu.Unlock()
	s.closeOnce.Do(func() { close(s.closed) })
	return err
}

func (s *NodeServer) acceptLoop() {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.connMu.Lock()
		s.conns[nc] = struct{}{}
		s.connMu.Unlock()
		go s.serveConn(nc)
	}
}

// serveConn handles one inbound connection (controller or peer node).
func (s *NodeServer) serveConn(nc net.Conn) {
	defer func() {
		nc.Close()
		s.connMu.Lock()
		delete(s.conns, nc)
		s.connMu.Unlock()
	}()
	fr := newPooledFrameReader(nc, s.pool)
	out := newConnTimeout(nc, s.wtimeout)
	for {
		e, b, err := fr.next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("themis-node %s: decode: %v", s.Name, err)
			}
			return
		}
		if b != nil {
			// Binary batch frame — the peer-to-peer hot path.
			s.enqueue(b)
			continue
		}
		if s.handle(e, out) {
			return
		}
	}
}

// handle dispatches one control envelope and reports whether it was the
// stop that ends the connection. Every byte of e comes from a peer: a
// missing payload or an unknown kind is a malformed frame to ignore, and
// a rejected deploy is logged — neither may take the node down.
func (s *NodeServer) handle(e *Envelope, out *conn) (stopped bool) {
	switch e.Kind {
	case KindHello:
		if err := s.handleHello(e.Hello); err != nil {
			s.logf("themis-node %s: hello: %v", s.Name, err)
		}
	case KindDeploy:
		if err := s.handleDeploy(e.Deploy); err != nil {
			s.logf("themis-node %s: deploy: %v", s.Name, err)
		}
	case KindStart:
		s.handleStart(e.Start, out)
	case KindSIC:
		if e.SIC == nil {
			break
		}
		s.mu.Lock()
		if s.nd != nil {
			s.nd.SetResultSIC(e.SIC.Query, e.SIC.Value)
		}
		s.mu.Unlock()
	case KindRewire:
		s.handleRewire(e.Rewire)
	case KindRetract:
		s.handleRetract(e.Retract)
	case KindShareEmit:
		s.handleShareEmit(e.ShareEmit)
	case KindRestoreState:
		s.handleRestore(e.Restore)
	case KindStop:
		s.handleStop(out)
		return true
	}
	return false
}

func (s *NodeServer) enqueue(b *stream.Batch) {
	s.mu.Lock()
	if s.nd != nil {
		s.nd.Enqueue(b, s.now())
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	// No runtime yet (batch racing a deploy): recycle instead of leak.
	b.Release()
}

// Bounds on what a deploy frame may ask of a host; anything beyond them
// is a corrupt or hostile frame, rejected before it costs anything.
const (
	// maxDeployFragments bounds the fragment count a frame may name: the
	// planner allocates per fragment, and fragments of one query sit on
	// distinct nodes, so this is a large federation's size.
	maxDeployFragments = 1024
	// maxHostedFragments bounds the fragments one host runs or rides,
	// the per-host state no single frame bounds.
	maxHostedFragments = 1 << 16
)

// handleDeploy hosts one fragment of a query. The travelling CQL text is
// re-parsed and re-planned (deterministically, so every host node derives
// the same fragment layout) through the server's plan cache: under
// multi-query sharing the same statement shape arrives once per
// subscriber, and only the first pays the parse.
func (s *NodeServer) handleDeploy(d *Deploy) error {
	if d == nil {
		return errors.New("empty deploy")
	}
	if d.CQL == "" {
		return errors.New("deploy carries no CQL text")
	}
	if d.Fragments < 1 || d.Fragments > maxDeployFragments {
		return fmt.Errorf("fragment count %d outside [1, %d]", d.Fragments, maxDeployFragments)
	}
	if !(d.Rate > 0 && d.Rate <= control.MaxRate && d.Batches > 0 && d.Batches <= control.MaxRate) {
		return fmt.Errorf("source rate %g tuples/s in %g batches/s: both must be in (0, %g]", d.Rate, d.Batches, float64(control.MaxRate))
	}
	ds := sources.Dataset(d.Dataset)
	plan, _, err := s.plans.PlanDistributed(d.CQL, cql.DefaultCatalog(ds), ds.String(), d.Fragments)
	if err != nil {
		return err
	}
	if d.Frag < 0 || int(d.Frag) >= plan.NumFragments() {
		return fmt.Errorf("fragment %d out of range", d.Frag)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nd == nil {
		return errNoRun
	}
	if ss := s.nd.StateSize(); ss.Fragments+ss.Subscriptions >= maxHostedFragments {
		return fmt.Errorf("host is at its cap of %d hosted fragments", maxHostedFragments)
	}
	// An attaching fragment rides an instance this node already executes
	// — no executor, no sources; a hosting one becomes the registered
	// dedup target for later same-key deploys. Either way the peer routes
	// go in, so the instance's fan-out views find this query's downstream
	// host.
	s.nd.Deploy(node.FragmentSpec{
		Query: d.Query, Frag: d.Frag, Plan: plan,
		Rate: d.Rate, Batches: d.Batches, FirstSource: d.FirstSourceID, Seed: d.SourceSeed,
		ShareKey: d.ShareKey, Emit: d.ShareEmit,
	})
	for f, addr := range d.Peers {
		s.peers[peerKey{d.Query, f}] = addr
	}
	return nil
}

// handleRewire installs a query's post-recovery peer map and evicts
// outbound connections to addresses no longer referenced by any query,
// so batches stop targeting a dead node as soon as the controller has
// re-placed its fragments. Connections to re-used addresses survive;
// new ones are dialled lazily on the next send.
func (s *NodeServer) handleRewire(r *Rewire) {
	if r == nil {
		return
	}
	s.mu.Lock()
	for k := range s.peers {
		if k.q == r.Query {
			delete(s.peers, k)
		}
	}
	for f, addr := range r.Peers {
		s.peers[peerKey{r.Query, f}] = addr
	}
	live := make(map[string]bool, len(s.peers))
	for _, addr := range s.peers {
		live[addr] = true
	}
	s.mu.Unlock()
	s.evictStalePeers(live)
}

// handleRetract tears a query down on this host: every fragment the
// node runs for it is removed (executors, sources, rate estimators,
// buffered batches, the known result-SIC entry all go with it), the
// query's peer-routing entries disappear, and outbound connections no
// surviving query references are evicted. Other queries keep ticking
// throughout — teardown holds the node mutex only as long as a deploy
// does.
func (s *NodeServer) handleRetract(r *Retract) {
	if r == nil {
		return
	}
	s.mu.Lock()
	if s.nd != nil {
		s.nd.RemoveQuery(r.Query)
		// Ownership hand-offs are mirrored by the controller (it derives
		// the same promotion from its share index); the node-local log
		// just needs draining so it cannot grow across retracts.
		s.nd.TakePromotions()
	}
	for k := range s.peers {
		if k.q == r.Query {
			delete(s.peers, k)
		}
	}
	live := make(map[string]bool, len(s.peers))
	for _, addr := range s.peers {
		live[addr] = true
	}
	s.mu.Unlock()
	s.evictStalePeers(live)
}

// handleShareEmit flips one subscription's fan-out emission. The
// controller derives the bit from its share-index mirror after a retract
// or recovery changed whether the subscriber's downstream fragment
// executes privately; SetSubEmit ignores unknown subscriptions, which
// absorbs the benign races (promotion to primary, concurrent retract).
func (s *NodeServer) handleShareEmit(m *ShareEmitMsg) {
	if m == nil {
		return
	}
	s.mu.Lock()
	if s.nd != nil {
		s.nd.SetSubEmit(m.Query, m.Frag, m.Emit)
	}
	s.mu.Unlock()
}

// evictStalePeers closes and forgets outbound peer connections whose
// address no query references any more; live holds the addresses still
// in use. Rewire and retract share this so a torn-down route never
// keeps feeding a dead or departed peer. The address's send queue and
// cooldown entry go with the connection — frames already queued for a
// departed peer are dropped with their tuples and SIC mass accounted,
// exactly as an undeliverable send would be.
func (s *NodeServer) evictStalePeers(live map[string]bool) {
	s.outMu.Lock()
	var stale []*conn
	var staleQ []*peerQueue
	for addr, c := range s.outs {
		if !live[addr] {
			delete(s.outs, addr)
			stale = append(stale, c)
		}
	}
	for addr, q := range s.wq {
		if !live[addr] {
			delete(s.wq, addr)
			staleQ = append(staleQ, q)
		}
	}
	for addr := range s.cool {
		if !live[addr] {
			delete(s.cool, addr)
		}
	}
	s.outMu.Unlock()
	for _, c := range stale {
		c.Close()
	}
	for _, q := range staleQ {
		if frames := q.take(); frames != nil {
			s.noteDroppedFrames(frames)
			s.recycleFrames(q, frames)
		}
	}
}

// errNoRun refuses a deploy or start that arrives before any hello has
// announced a run: the host has no node to put it on.
var errNoRun = errors.New("no run announced yet: refused")

// handleHello builds the node runtime from the first hello that
// announces a run, once control.CheckRun admits it. A hello without a
// run (a peer's) is a no-op; a run outside the bounds is refused and the
// host keeps waiting for a valid one; a later run is ignored, and
// refused if it differs from the one the node runs.
func (s *NodeServer) handleHello(h *Hello) error {
	if h == nil {
		return nil
	}
	run := Hello{STWMs: h.STWMs, IntervalMs: h.IntervalMs, CheckpointTicks: h.CheckpointTicks}
	if run == (Hello{}) {
		return nil
	}
	if err := control.CheckRun(stream.Duration(run.STWMs), stream.Duration(run.IntervalMs), run.CheckpointTicks); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nd != nil {
		if run != s.run {
			return fmt.Errorf("a second run %+v differs from the one this host runs, %+v: refused", run, s.run)
		}
		return nil
	}
	var shedder core.Shedder
	if s.policy == "random" {
		shedder = core.NewRandom(s.seed)
	} else {
		shedder = core.NewBalanceSIC(s.seed)
	}
	s.nd = node.New(0, node.Config{
		STW:            stream.Duration(run.STWMs),
		Interval:       stream.Duration(run.IntervalMs),
		CapacityPerSec: s.capacity,
		CostNoise:      node.DefaultCostNoise,
		Pool:           s.pool,
		Seed:           s.seed,
	}, shedder)
	s.run = run
	return nil
}

// now maps wall clock to the node's logical milliseconds.
func (s *NodeServer) now() stream.Time {
	if s.epoch.IsZero() {
		return 0
	}
	return stream.Time(time.Since(s.epoch).Milliseconds())
}

// handleStart begins ticking at the run's interval. A spare — a member
// with no fragment yet — starts like any other host, so it heartbeats
// and can adopt re-placed fragments. A start before any run is refused.
func (s *NodeServer) handleStart(st *Start, ctrl *conn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	if s.nd == nil {
		s.logf("themis-node %s: start: %v", s.Name, errNoRun)
		return
	}
	s.ctrl = ctrl
	s.started = true
	s.epoch = time.Now()
	if st != nil && st.RunOffsetMs > 0 {
		// A mid-run joiner backdates its epoch so its logical clock lines
		// up with the founding members'. Restored snapshots then carry
		// window edges the local clock has already reached, and upstream
		// batches' timestamps fall inside the local windows immediately.
		s.epoch = s.epoch.Add(-time.Duration(st.RunOffsetMs) * time.Millisecond)
	}
	go s.tickLoop(time.Duration(s.run.IntervalMs) * time.Millisecond)
}

func (s *NodeServer) tickLoop(interval time.Duration) {
	defer close(s.done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	// Start spans from the current logical clock: for founding members
	// that is ~0, for mid-run joiners the backdated epoch already places
	// it at the federation's run offset — the joiner must not replay the
	// whole pre-join span as one giant source burst.
	s.mu.Lock()
	last := s.now()
	s.mu.Unlock()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			// Re-check stop: once it closes, both select cases are ready
			// and a random pick could otherwise squeeze in extra ticks
			// while the stop handshake is waiting on done.
			select {
			case <-s.stop:
				return
			default:
			}
			s.mu.Lock()
			now := s.now()
			// Tick covers [last, now): the node emits its sources over
			// that span and sheds/processes.
			t0 := time.Now()
			s.nd.TickSpan(last, now)
			s.tickNanos += time.Since(t0).Nanoseconds()
			s.ticks++
			ckpt := s.run.CheckpointTicks > 0 && s.ticks%s.run.CheckpointTicks == 0
			out := s.nd.TakeOutbox()
			last = now
			s.mu.Unlock()
			// Drain the outbox outside the node mutex: the drain *encodes
			// and queues* rather than sends, so it never blocks on the
			// network — and inbound Enqueue/SetResultSIC handlers are
			// never behind a send. tickLoop is the only goroutine ticking
			// the node, so the outbox stays valid until the next
			// iteration.
			s.drainOutbox(out)
			// Liveness beacon: a node hosting no (or only displaced-away)
			// fragments may otherwise stay silent for whole intervals,
			// which the controller's missed-heartbeat detector would
			// mistake for a partition.
			s.mu.Lock()
			ctrl := s.ctrl
			s.mu.Unlock()
			if ctrl != nil {
				s.queueCtrl(&Envelope{Kind: KindHeartbeat})
			}
			// Ship operator-state checkpoints on the run's cadence, the
			// engine's rule: after every CheckpointTicks-th tick.
			// Snapshots are collected under the node mutex but queued and
			// flushed outside it, like the outbox drain above.
			if ctrl != nil && ckpt {
				for _, env := range s.collectCheckpoints() {
					s.queueCtrl(env)
				}
			}
			// One vectored write per destination for everything this tick
			// produced: batches to each peer, reports + heartbeat +
			// checkpoints to the controller.
			s.flushPeers()
		}
	}
}

// collectCheckpoints snapshots every hosted fragment into ready-to-send
// checkpoint envelopes. The node mutex is held for the duration so each
// snapshot captures a consistent between-ticks state; the shared encoder
// is reused across fragments and the sealed bytes are copied out, since
// Seal's return aliases the encoder buffer.
func (s *NodeServer) collectCheckpoints() []*Envelope {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nd == nil {
		return nil
	}
	var msgs []*Envelope
	s.nd.ForEachFragment(func(q stream.QueryID, f stream.FragID) {
		s.ckptEnc.Reset()
		if err := s.nd.StateSnapshot(q, f, &s.ckptEnc); err != nil {
			return
		}
		sealed := s.ckptEnc.Seal()
		state := make([]byte, len(sealed))
		copy(state, sealed)
		msgs = append(msgs, &Envelope{Kind: KindCheckpoint, Checkpoint: &CheckpointMsg{
			Query: q, Frag: f, Tick: s.ckptTick, State: state,
		}})
	})
	s.ckptTick++
	return msgs
}

// handleRestore applies a checkpointed snapshot to a re-deployed
// fragment. Failures are logged and dropped — the blob is versioned and
// checksummed, so a stale or corrupt snapshot is rejected cleanly and
// the fragment recovers the legacy way, by refilling its windows.
func (s *NodeServer) handleRestore(r *RestoreStateMsg) {
	if r == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.nd == nil {
		return
	}
	if err := s.nd.RestoreState(r.Query, r.Frag, r.State); err != nil {
		s.logf("themis-node %s: restore q%d/f%d: %v", s.Name, r.Query, r.Frag, err)
	}
}

// handleStop freezes the node and replies with its final stats. The
// order matters for the stop handshake: the tick loop must have fully
// exited before the counters are read, otherwise a tick racing the stop
// can mutate them after the "final" stats left — or worse, ship batches
// to peers that are already gone. Only after the stats frame is on the
// wire does the server tear down its listener and peer connections.
func (s *NodeServer) handleStop(out *conn) {
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	s.signalStop()
	if started {
		<-s.done
	}
	s.mu.Lock()
	var stats node.Stats
	var sz node.StateSize
	if s.nd != nil {
		stats = s.nd.Stats()
		sz = s.nd.StateSize()
	}
	ticks, tickNanos := s.ticks, s.tickNanos
	s.mu.Unlock()
	out.send(&Envelope{Kind: KindStats, Stats: &StatsMsg{
		Node:            s.Name,
		ArrivedTuples:   stats.ArrivedTuples,
		KeptTuples:      stats.KeptTuples,
		ShedTuples:      stats.ShedTuples,
		ShedInvocations: stats.ShedInvocations,
		DroppedTuples:   stats.DroppedTuples,
		DroppedSIC:      stats.DroppedSIC,
		SharedInstances: sz.SharedInstances,
		Subscriptions:   sz.Subscriptions,
		Ticks:           ticks,
		TickNanos:       tickNanos,
		DroppedCtrl:     s.ctrlDropped.Load(),
	}})
	s.Close()
}

// errPeerCooling reports a send refused because the peer's address is
// inside its dial-cooldown window.
var errPeerCooling = errors.New("transport: peer in dial cooldown")

// peerConn returns (dialling if needed) the connection to a peer
// address. A dead peer fails fast: a failed dial (and a timed-out
// write, via coolDown) opens a cooldown window during which sends to
// the address are refused without touching the network, so an outage
// costs one bounded dial per probe window rather than one per tick.
func (s *NodeServer) peerConn(addr string) (*conn, error) {
	s.outMu.Lock()
	defer s.outMu.Unlock()
	if c, ok := s.outs[addr]; ok {
		return c, nil
	}
	if until, ok := s.cool[addr]; ok {
		if time.Now().Before(until) {
			return nil, errPeerCooling
		}
		delete(s.cool, addr)
	}
	c, err := dial(addr, Hello{From: s.Name}, s.wtimeout)
	if err != nil {
		s.cool[addr] = time.Now().Add(s.dialCool)
		return nil, err
	}
	s.outs[addr] = c
	return c, nil
}

// coolDown opens the dial-cooldown window for addr: the next sends fail
// fast until the window expires and the peer is probed again.
func (s *NodeServer) coolDown(addr string) {
	s.outMu.Lock()
	s.cool[addr] = time.Now().Add(s.dialCool)
	s.outMu.Unlock()
}

// dropPeerConn evicts a broken outbound connection so the next send to
// the address re-dials instead of failing forever. The cache entry is
// removed only if it still holds the same connection — a concurrent
// sender may already have replaced it with a fresh dial.
func (s *NodeServer) dropPeerConn(addr string, c *conn) {
	s.outMu.Lock()
	if cur, ok := s.outs[addr]; ok && cur == c {
		delete(s.outs, addr)
	}
	s.outMu.Unlock()
	c.Close()
}

// noteDropped records a derived batch lost to a routing failure.
func (s *NodeServer) noteDropped(b *stream.Batch) {
	s.mu.Lock()
	if s.nd != nil {
		s.nd.NoteDropped(b.Len(), b.SIC)
	}
	s.mu.Unlock()
}

// noteDroppedFrames records a queue's worth of encoded batch frames lost
// to an undeliverable flush: each frame's tuple count and pre-credited
// SIC mass land in the node's dropped counters under one mutex hold.
func (s *NodeServer) noteDroppedFrames(frames []qframe) {
	s.mu.Lock()
	if s.nd != nil {
		for i := range frames {
			s.nd.NoteDropped(frames[i].tuples, frames[i].sic)
		}
	}
	s.mu.Unlock()
}

// --- outbox drain (wall-clock federation) ---
//
// These methods are not called mid-tick: tickLoop drains the node's
// outbox after releasing the node mutex, so they run concurrently with
// inbound Enqueue/SetResultSIC handlers and must take s.mu themselves
// where they touch the node. They encode into per-destination queues
// rather than send: the network is touched once per destination per
// tick, by flushPeers.

// drainOutbox hands one tick's effects to the send queues — result
// reports first, then derived batches, as federation.drainOutbox applies
// them — releasing each batch after use.
func (s *NodeServer) drainOutbox(out *node.Outbox) {
	for _, re := range out.Results {
		s.DeliverResult(re.Query, len(re.Batch.Tuples), re.Batch.SIC)
		re.Batch.Release()
	}
	for _, b := range out.Downstream {
		s.RouteDownstream(b)
		b.Release()
	}
	out.Reset()
}

// RouteDownstream encodes the batch as a wire frame (into a pooled
// buffer — the batch itself is borrowed and released by the drain) and
// queues it for the peer hosting the destination fragment. A full queue
// means the peer is not draining: the batch is dropped with its tuples
// and pre-credited SIC mass accounted, never buffered unboundedly.
func (s *NodeServer) RouteDownstream(b *stream.Batch) {
	s.mu.Lock()
	addr, ok := s.peers[peerKey{b.Query, b.Frag}]
	s.mu.Unlock()
	if !ok {
		s.noteDropped(b)
		return
	}
	buf := appendBatchFrame(s.wbufs.get(), b)
	if !s.queueFor(addr).push(buf, b.Len(), b.SIC) {
		s.wbufs.put(buf)
		s.noteDropped(b)
	}
}

// queueFor returns (creating if needed) the send queue for a peer
// address.
func (s *NodeServer) queueFor(addr string) *peerQueue {
	s.outMu.Lock()
	q, ok := s.wq[addr]
	if !ok {
		q = &peerQueue{}
		s.wq[addr] = q
	}
	s.outMu.Unlock()
	return q
}

// flushPeers writes every non-empty send queue — one vectored write per
// destination — in deterministic address order, then flushes the
// controller queue. Called once per tick by the tick loop (and directly
// by tests).
func (s *NodeServer) flushPeers() {
	s.outMu.Lock()
	s.flushAddrs = s.flushAddrs[:0]
	s.flushQs = s.flushQs[:0]
	for addr, q := range s.wq {
		s.flushAddrs = append(s.flushAddrs, addr)
		s.flushQs = append(s.flushQs, q)
	}
	s.outMu.Unlock()
	sortFlush(s.flushAddrs, s.flushQs)
	for i, addr := range s.flushAddrs {
		s.flushQueue(addr, s.flushQs[i])
	}
	s.flushCtrl()
}

// flushQueue drains one peer's queue onto the wire. Undeliverable frames
// are dropped with accounting; the encode buffers are recycled either
// way.
func (s *NodeServer) flushQueue(addr string, q *peerQueue) {
	frames := q.take()
	if frames == nil {
		return
	}
	if err := s.writeQueued(addr, q, frames); err != nil {
		s.logf("themis-node %s: flush %s: %v", s.Name, addr, err)
		s.noteDroppedFrames(frames)
	}
	s.recycleFrames(q, frames)
}

// writeQueued performs the vectored write for one taken queue, deciding
// the failure policy by error kind. A deadline expiry means the peer
// accepted but stopped reading: retrying immediately would eat another
// full deadline mid-tick, so the conn is evicted and the address put in
// cooldown until its next probe window. Any other error gets the classic
// evict + one re-dial retry — a peer that restarted is reached again
// without poisoning every future tick.
func (s *NodeServer) writeQueued(addr string, q *peerQueue, frames []qframe) error {
	c, err := s.peerConn(addr)
	if err != nil {
		return err
	}
	q.flushes.Add(1)
	err = c.writeFrames(q.buffers(frames))
	if err == nil {
		return nil
	}
	s.dropPeerConn(addr, c)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		s.coolDown(addr)
		return err
	}
	c, rerr := s.peerConn(addr)
	if rerr != nil {
		return fmt.Errorf("%w (re-dial: %w)", err, rerr)
	}
	q.flushes.Add(1)
	// WriteTo consumed the first attempt's buffer view; rebuild it from
	// the retained frames.
	if rerr := c.writeFrames(q.buffers(frames)); rerr != nil {
		s.dropPeerConn(addr, c)
		return fmt.Errorf("%w (retry: %w)", err, rerr)
	}
	return nil
}

// recycleFrames returns a drained queue's encode buffers to the free
// list and the frame slice to the queue for the next tick.
func (s *NodeServer) recycleFrames(q *peerQueue, frames []qframe) {
	for i := range frames {
		s.wbufs.put(frames[i].buf)
	}
	q.giveBack(frames)
}

// queueCtrl encodes one control envelope and appends it to the
// controller send queue; overflow drops the frame (the controller's
// report stream is advisory — heartbeats resume next tick). Drops are
// counted into the node's final stats and the first one of a run is
// logged: a node hosting more queries than the queue holds reports per
// tick would otherwise show result SIC near zero with no trace.
func (s *NodeServer) queueCtrl(e *Envelope) {
	p, err := json.Marshal(e)
	if err != nil {
		return
	}
	buf := appendFrame(s.wbufs.get(), frameJSON, p)
	if !s.ctrlQ.push(buf, 0, 0) {
		s.wbufs.put(buf)
		if s.ctrlDropped.Add(1) == 1 {
			s.logf("themis-node %s: control queue full (%d frames per tick): dropping reports, result SIC will read low", s.Name, maxQueueFrames)
		}
	}
}

// flushCtrl writes the tick's queued control frames to the controller
// with one vectored write. Errors are logged, not retried: the
// controller declares this node failed through its own missed-heartbeat
// and read-error detection, and re-places its fragments.
func (s *NodeServer) flushCtrl() {
	frames := s.ctrlQ.take()
	if frames == nil {
		return
	}
	s.mu.Lock()
	ctrl := s.ctrl
	s.mu.Unlock()
	if ctrl != nil {
		s.ctrlQ.flushes.Add(1)
		if err := ctrl.writeFrames(s.ctrlQ.buffers(frames)); err != nil {
			s.logf("themis-node %s: ctrl flush: %v", s.Name, err)
		}
	}
	s.recycleFrames(&s.ctrlQ, frames)
}

// DeliverResult queues one result delivery — its tuple count and SIC
// mass — for the controller; the tick-end flush coalesces it with the
// heartbeat and any checkpoints into one write. sicMass is the
// batch-header SIC total, summed once where the batch was made, so the
// tuples are not summed again here.
func (s *NodeServer) DeliverResult(q stream.QueryID, tuples int, sicMass float64) {
	s.mu.Lock()
	ctrl := s.ctrl
	s.mu.Unlock()
	if ctrl == nil {
		return
	}
	s.queueCtrl(&Envelope{Kind: KindReport, Report: &ReportMsg{Query: q, Result: sicMass, Tuples: tuples}})
}
