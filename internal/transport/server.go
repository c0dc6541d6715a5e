package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"slices"
	"sync"
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
//
// One goroutine, the host loop (loop), changes a NodeServer in response
// to anything: it applies every frame, batch and connection end the read
// loops decode (handle) and runs every interval step (tick), one at a
// time. Every field below that is not a channel, the wait group or the
// Once belongs to it.
type NodeServer struct {
	Name string

	ln net.Listener
	// mu is held by the host loop while it applies one step, so tests can
	// read the node and its counters between steps.
	mu      sync.Mutex
	nd      *node.Node
	peers   map[peerKey]string
	started bool
	// epoch maps wall time to the node's logical milliseconds (at); last
	// is the logical time the next tick's span starts from.
	epoch time.Time
	last  stream.Time

	// plans memoises the deploy path's re-planning of travelling CQL
	// text. Under multi-query sharing the same shape arrives once per
	// subscriber, and only the first deploy should pay the parse+plan;
	// attach-style deploys need the plan only for downstream wiring.
	plans *cql.PlanCache

	// ticks/tickNanos count ticks and the wall-clock time spent inside
	// TickSpan, reported in the final stats frame.
	ticks     int64
	tickNanos int64

	capacity float64
	seed     int64
	policy   string

	// run is the run the controller's hello announced, From left empty
	// (see handleHello); set with nd. Every CheckpointTicks-th tick
	// snapshots each hosted fragment and sends the sealed blobs to the
	// controller, which keeps the newest per fragment for the
	// failure-recovery restore path — the ticks the engine snapshots on.
	run Hello

	// ckptTick counts the checkpoint rounds shipped; ckptEnc is their one
	// reused encoder.
	ckptTick int64
	ckptEnc  stream.SnapEncoder

	ctrl *conn                 // the connection the start arrived on
	in   map[*conn]struct{}    // open inbound connections
	outs map[string]*conn      // peer address → connection
	wq   map[string]*peerQueue // peer address → this tick's pending frames
	cool map[string]time.Time  // peer address → dial-cooldown deadline

	// flushAddrs is the flush's sorted address scratch, reused so
	// steady-state flushes allocate nothing.
	flushAddrs []string

	// wbufs recycles encoded-frame buffers between the enqueue side
	// (routeDownstream, queueCtrl) and the flush side; ctrlQ coalesces
	// the tick's control frames (reports, heartbeat, checkpoints) bound
	// for the controller the same way the per-peer queues coalesce
	// batches.
	wbufs bufPool
	ctrlQ peerQueue
	// ctrlDropped counts control frames refused by a full ctrlQ: reports
	// the controller never saw, so the result SIC it shows reads low.
	ctrlDropped int64

	wtimeout time.Duration // per-write deadline on every outbound conn
	dialCool time.Duration // negative-cache window after a dial/write timeout

	// pool recycles the node's batches: the wire decoder draws inbound
	// batches from it and the node releases them after the tick that
	// consumes them, so a steady-state batch receive allocates nothing.
	pool *stream.Pool

	// events carries what acceptLoop and the read loops hand the host
	// loop, eventQueue deep. A full queue blocks only the read loops,
	// whose frames then wait in the socket buffers.
	events chan hostEvent
	// quit is closed once, by Close or by the stop handshake: the read
	// loops then offer nothing more, and the host loop tears down.
	quit      chan struct{}
	closeOnce sync.Once
	// wg counts acceptLoop and the read loops; the host loop waits for
	// them before it closes closed.
	wg     sync.WaitGroup
	closed chan struct{}

	logf func(format string, args ...any)
}

type peerKey struct {
	q stream.QueryID
	f stream.FragID
}

// hostEvent is what one inbound connection told the host: a control
// frame, a batch, or the error that ended it. With all three nil, c has
// just been accepted.
type hostEvent struct {
	c   *conn
	env *Envelope
	b   *stream.Batch
	err error
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
// surfaces as a conn error within it instead of wedging the host loop),
// and the dial cooldown, the negative-cache window after a failed dial or
// a timed-out write (sends to the address fail fast until it expires).
func newNodeServer(cfg NodeServerConfig, wt, cool time.Duration) (*NodeServer, error) {
	s, err := newHost(cfg, wt, cool)
	if err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.acceptLoop()
	go s.loop()
	return s, nil
}

// newHost builds a listening server whose host loop is not running: the
// caller is the loop, and must call shutdown to tear it down. Tests drive
// the step methods this way.
func newHost(cfg NodeServerConfig, wt, cool time.Duration) (*NodeServer, error) {
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
		in:       make(map[*conn]struct{}),
		outs:     make(map[string]*conn),
		wq:       make(map[string]*peerQueue),
		cool:     make(map[string]time.Time),
		events:   make(chan hostEvent, eventQueue),
		quit:     make(chan struct{}),
		closed:   make(chan struct{}),
		wtimeout: wt,
		dialCool: cool,
		logf:     log.Printf,
	}
	if cfg.Quiet {
		s.logf = func(string, ...any) {}
	}
	return s, nil
}

// Addr reports the bound listen address.
func (s *NodeServer) Addr() string { return s.ln.Addr().String() }

// Stopped returns a channel closed once the server has fully shut down —
// after a controller-initiated stop has delivered the final stats, or
// after Close — with every connection closed. It is safe for a host
// process to exit when it fires.
func (s *NodeServer) Stopped() <-chan struct{} { return s.closed }

// Close shuts the server down from any goroutine and returns at once: the
// listener closes now, and the host loop closes the outbound peer
// connections and every open inbound connection once its current step
// ends, so peers and the controller observe the shutdown exactly as they
// would a node crash. A flush in progress gives up after its current
// write, so Stopped fires within one write timeout. Safe to call twice.
func (s *NodeServer) Close() error {
	s.closeOnce.Do(func() { close(s.quit) })
	return s.ln.Close()
}

// quitting reports whether Close or the stop handshake has begun the
// teardown.
func (s *NodeServer) quitting() bool {
	select {
	case <-s.quit:
		return true
	default:
		return false
	}
}

// acceptLoop hands each accepted connection to the host loop, which
// starts its read loop.
func (s *NodeServer) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		select {
		case s.events <- hostEvent{c: newConnTimeout(nc, s.wtimeout)}:
		case <-s.quit:
			nc.Close()
			return
		}
	}
}

// readLoop decodes one inbound connection (controller or peer node) and
// offers each control frame and batch to the host loop, then the error
// that ends the connection. It touches no host state. Once the server
// quits it offers nothing more and releases the batch it holds.
func (s *NodeServer) readLoop(c *conn) {
	defer s.wg.Done()
	fr := newPooledFrameReader(c.c, s.pool)
	for {
		e, b, err := fr.next()
		select {
		case s.events <- hostEvent{c: c, env: e, b: b, err: err}:
		case <-s.quit:
			if b != nil {
				b.Release()
			}
			return
		}
		if err != nil {
			return
		}
	}
}

// loop is the host loop. It reads the clock and hands the time to each
// step it applies, holding mu for the step; it starts ticking once a
// start is applied, and tears the server down once quit closes or a stop
// frame is applied.
func (s *NodeServer) loop() {
	var ticks <-chan time.Time
	for stopped := false; !stopped; {
		select {
		case <-s.quit:
			stopped = true
		case ev := <-s.events:
			s.mu.Lock()
			stopped = s.handle(time.Now(), ev)
			s.mu.Unlock()
		case <-ticks:
			s.mu.Lock()
			stopped = s.tick(time.Now())
			s.mu.Unlock()
		}
		if ticks == nil && s.started {
			ticker := time.NewTicker(time.Duration(s.run.IntervalMs) * time.Millisecond)
			defer ticker.Stop()
			ticks = ticker.C
		}
	}
	s.shutdown()
}

// shutdown tears the server down: the listener and every connection
// close, then — once acceptLoop and every read loop have returned — the
// batches still queued go back to the pool and Stopped fires. It runs on
// the host loop, after its last step.
func (s *NodeServer) shutdown() {
	s.closeOnce.Do(func() { close(s.quit) })
	s.ln.Close()
	for c := range s.in {
		c.Close()
	}
	for _, c := range s.outs {
		c.Close()
	}
	s.wg.Wait()
	for len(s.events) > 0 {
		ev := <-s.events
		ev.c.Close()
		if ev.b != nil {
			ev.b.Release()
		}
	}
	close(s.closed)
}

// handle applies one event from an inbound connection and reports
// whether it was the stop that ends the server. Every byte of a frame
// comes from a peer: a missing payload or an unknown kind is a malformed
// frame to ignore, and a rejected deploy is logged — neither may take the
// node down.
func (s *NodeServer) handle(now time.Time, ev hostEvent) (stopped bool) {
	switch {
	case ev.b != nil:
		// Binary batch frame — the peer-to-peer hot path.
		s.enqueue(now, ev.b)
		return false
	case ev.err != nil:
		if !errors.Is(ev.err, io.EOF) && !errors.Is(ev.err, net.ErrClosed) {
			s.logf("themis-node %s: decode: %v", s.Name, ev.err)
		}
		delete(s.in, ev.c)
		ev.c.Close()
		return false
	case ev.env == nil:
		s.in[ev.c] = struct{}{}
		s.wg.Add(1)
		go s.readLoop(ev.c)
		return false
	}
	switch e := ev.env; e.Kind {
	case KindHello:
		if err := s.handleHello(e.Hello); err != nil {
			s.logf("themis-node %s: hello: %v", s.Name, err)
		}
	case KindDeploy:
		if err := s.handleDeploy(e.Deploy); err != nil {
			s.logf("themis-node %s: deploy: %v", s.Name, err)
		}
	case KindStart:
		s.handleStart(now, e.Start, ev.c)
	case KindSIC:
		if e.SIC != nil && s.nd != nil {
			s.nd.SetResultSIC(e.SIC.Query, e.SIC.Value)
		}
	case KindRewire:
		s.handleRewire(e.Rewire)
	case KindRetract:
		s.handleRetract(e.Retract)
	case KindShareEmit:
		if m := e.ShareEmit; m != nil && s.nd != nil {
			// The controller derives the bit from its share-index mirror
			// after a retract or recovery changed whether the subscriber's
			// downstream fragment executes privately; SetSubEmit ignores
			// unknown subscriptions, which absorbs the benign races
			// (promotion to primary, concurrent retract).
			s.nd.SetSubEmit(m.Query, m.Frag, m.Emit)
		}
	case KindRestoreState:
		s.handleRestore(e.Restore)
	case KindStop:
		s.handleStop(ev.c)
		return true
	}
	return false
}

// enqueue applies one inbound batch, stamped with the time it is applied.
// With no runtime yet (a batch racing a deploy) it is recycled instead of
// leaked.
func (s *NodeServer) enqueue(now time.Time, b *stream.Batch) {
	if s.nd == nil {
		b.Release()
		return
	}
	s.nd.Enqueue(b, s.at(now))
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
	s.dropRoutes(r.Query)
	for f, addr := range r.Peers {
		s.peers[peerKey{r.Query, f}] = addr
	}
	s.evictStalePeers()
}

// handleRetract tears a query down on this host: every fragment the
// node runs for it is removed (executors, sources, rate estimators,
// buffered batches, the known result-SIC entry all go with it), the
// query's peer-routing entries disappear, and outbound connections no
// surviving query references are evicted. Other queries keep ticking
// from the next step on.
func (s *NodeServer) handleRetract(r *Retract) {
	if r == nil {
		return
	}
	if s.nd != nil {
		s.nd.RemoveQuery(r.Query)
		// Ownership hand-offs are mirrored by the controller (it derives
		// the same promotion from its share index); the node-local log
		// just needs draining so it cannot grow across retracts.
		s.nd.TakePromotions()
	}
	s.dropRoutes(r.Query)
	s.evictStalePeers()
}

// dropRoutes forgets every peer-routing entry of query q.
func (s *NodeServer) dropRoutes(q stream.QueryID) {
	for k := range s.peers {
		if k.q == q {
			delete(s.peers, k)
		}
	}
}

// evictStalePeers closes and forgets the outbound peer connections, send
// queues and cooldown entries of addresses no query routes to any more,
// so a torn-down route never keeps feeding a dead or departed peer.
// Every send queue is empty here: rewires and retracts are applied
// between ticks, and each tick flushes every queue.
func (s *NodeServer) evictStalePeers() {
	live := make(map[string]bool, len(s.peers))
	for _, addr := range s.peers {
		live[addr] = true
	}
	for addr, c := range s.outs {
		if !live[addr] {
			delete(s.outs, addr)
			c.Close()
		}
	}
	for addr := range s.wq {
		if !live[addr] {
			delete(s.wq, addr)
		}
	}
	for addr := range s.cool {
		if !live[addr] {
			delete(s.cool, addr)
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

// at maps wall time t to the node's logical milliseconds: zero before the
// start.
func (s *NodeServer) at(t time.Time) stream.Time {
	if s.epoch.IsZero() {
		return 0
	}
	return stream.Time(t.Sub(s.epoch).Milliseconds())
}

// handleStart begins ticking at the run's interval: the host loop starts
// its ticker once this step is applied. A spare — a member with no
// fragment yet — starts like any other host, so it heartbeats and can
// adopt re-placed fragments. A start before any run is refused.
func (s *NodeServer) handleStart(now time.Time, st *Start, ctrl *conn) {
	if s.started {
		return
	}
	if s.nd == nil {
		s.logf("themis-node %s: start: %v", s.Name, errNoRun)
		return
	}
	s.ctrl = ctrl
	s.started = true
	s.epoch = now
	if st != nil && st.RunOffsetMs > 0 {
		// A mid-run joiner backdates its epoch so its logical clock lines
		// up with the founding members'. Restored snapshots then carry
		// window edges the local clock has already reached, and upstream
		// batches' timestamps fall inside the local windows immediately.
		s.epoch = s.epoch.Add(-time.Duration(st.RunOffsetMs) * time.Millisecond)
	}
	// Spans start from the current logical clock: for founding members
	// that is 0, for mid-run joiners the backdated epoch already places
	// it at the federation's run offset — the joiner must not replay the
	// whole pre-join span as one giant source burst.
	s.last = s.at(now)
}

// tick is the interval step, and reports whether a queued stop ended the
// server instead. It applies every queued event first — frames and
// batches that arrived before the tick join it — then ticks the node
// over [last, now) (sources emit over the span, the node sheds and
// processes), drains its outbox into the send queues, queues the
// heartbeat and, on the run's cadence, the checkpoints, and flushes:
// one vectored write per destination for everything this tick produced.
// It reads the clock only to time TickSpan for the stats frame.
func (s *NodeServer) tick(now time.Time) (stopped bool) {
	// Only the host loop receives from s.events, so a receive of what is
	// already queued never blocks.
	for n := len(s.events); n > 0; n-- {
		if s.handle(now, <-s.events) {
			return true
		}
	}
	t := s.at(now)
	t0 := time.Now()
	s.nd.TickSpan(s.last, t)
	s.tickNanos += time.Since(t0).Nanoseconds()
	s.ticks++
	s.last = t
	s.drainOutbox(s.nd.TakeOutbox())
	if s.ctrl != nil {
		// Liveness beacon: a node hosting no (or only displaced-away)
		// fragments may otherwise stay silent for whole intervals, which
		// the controller's missed-heartbeat detector would mistake for a
		// partition.
		s.queueCtrl(&Envelope{Kind: KindHeartbeat})
		// Operator-state checkpoints on the run's cadence, the engine's
		// rule: after every CheckpointTicks-th tick.
		if s.run.CheckpointTicks > 0 && s.ticks%s.run.CheckpointTicks == 0 {
			s.queueCheckpoints()
		}
	}
	s.flushPeers()
	return false
}

// queueCheckpoints snapshots every hosted fragment, between ticks, into
// checkpoint frames for the controller. The shared encoder is reused
// across fragments: each sealed blob is encoded into its frame before
// the next snapshot overwrites it.
func (s *NodeServer) queueCheckpoints() {
	s.nd.ForEachFragment(func(q stream.QueryID, f stream.FragID) {
		s.ckptEnc.Reset()
		if err := s.nd.StateSnapshot(q, f, &s.ckptEnc); err != nil {
			return
		}
		s.queueCtrl(&Envelope{Kind: KindCheckpoint, Checkpoint: &CheckpointMsg{
			Query: q, Frag: f, Tick: s.ckptTick, State: s.ckptEnc.Seal(),
		}})
	})
	s.ckptTick++
}

// handleRestore applies a checkpointed snapshot to a re-deployed
// fragment. Failures are logged and dropped — the blob is versioned and
// checksummed, so a stale or corrupt snapshot is rejected cleanly and
// the fragment recovers the legacy way, by refilling its windows.
func (s *NodeServer) handleRestore(r *RestoreStateMsg) {
	if r == nil || s.nd == nil {
		return
	}
	if err := s.nd.RestoreState(r.Query, r.Frag, r.State); err != nil {
		s.logf("themis-node %s: restore q%d/f%d: %v", s.Name, r.Query, r.Frag, err)
	}
}

// handleStop replies to a stop with the node's final stats; the host loop
// then tears the server down. Ticks run on the same goroutine, so no
// tick can move the counters after they are read or ship batches to
// peers that are already gone.
func (s *NodeServer) handleStop(out *conn) {
	var stats node.Stats
	var sz node.StateSize
	if s.nd != nil {
		stats = s.nd.Stats()
		sz = s.nd.StateSize()
	}
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
		Ticks:           s.ticks,
		TickNanos:       s.tickNanos,
		DroppedCtrl:     s.ctrlDropped,
	}})
}

// errPeerCooling reports a send refused because the peer's address is
// inside its dial-cooldown window.
var errPeerCooling = errors.New("transport: peer in dial cooldown")

// peerConn returns (dialling if needed) the connection to a peer
// address. A dead peer fails fast: a failed dial (and a timed-out
// write, via coolDown) opens a cooldown window during which sends to
// the address are refused without touching the network, so an outage
// costs one bounded dial per probe window rather than one per tick.
// Once the server quits it refuses every address, so a flush under way
// when Close runs neither dials nor writes to another peer. The cooldown
// is wall-clock time, read when it is checked and when it opens: a write
// that timed out has made the step's own time stale by a whole write
// timeout.
func (s *NodeServer) peerConn(addr string) (*conn, error) {
	if s.quitting() {
		return nil, net.ErrClosed
	}
	if c, ok := s.outs[addr]; ok {
		return c, nil
	}
	if time.Now().Before(s.cool[addr]) {
		return nil, errPeerCooling
	}
	delete(s.cool, addr)
	c, err := dial(addr, Hello{From: s.Name}, s.wtimeout)
	if err != nil {
		s.coolDown(addr)
		return nil, err
	}
	s.outs[addr] = c
	return c, nil
}

// coolDown opens the dial-cooldown window for addr: the next sends fail
// fast until the window expires and the peer is probed again.
func (s *NodeServer) coolDown(addr string) {
	s.cool[addr] = time.Now().Add(s.dialCool)
}

// dropPeerConn evicts a broken outbound connection so the next send to
// the address re-dials instead of failing forever.
func (s *NodeServer) dropPeerConn(addr string, c *conn) {
	delete(s.outs, addr)
	c.Close()
}

// noteDropped records tuples and pre-credited SIC mass lost to a routing
// failure in the node's dropped counters.
func (s *NodeServer) noteDropped(tuples int, sicMass float64) {
	if s.nd != nil {
		s.nd.NoteDropped(tuples, sicMass)
	}
}

// --- outbox drain and send queues (wall-clock federation) ---
//
// The drain encodes into per-destination queues rather than sending: the
// network is touched once per destination per tick, by flushPeers.

// drainOutbox hands one tick's effects to the send queues — result
// reports first, then derived batches, as federation.drainOutbox applies
// them — releasing each batch after use. A report carries the result's
// tuple count and its batch-header SIC mass, summed once where the batch
// was made; the tick-end flush coalesces it with the heartbeat and any
// checkpoints into one write.
func (s *NodeServer) drainOutbox(out *node.Outbox) {
	for _, re := range out.Results {
		if s.ctrl != nil {
			s.queueCtrl(&Envelope{Kind: KindReport, Report: &ReportMsg{Query: re.Query, Result: re.Batch.SIC, Tuples: len(re.Batch.Tuples)}})
		}
		re.Batch.Release()
	}
	for _, b := range out.Downstream {
		s.routeDownstream(b)
		b.Release()
	}
	out.Reset()
}

// routeDownstream encodes the batch as a wire frame (into a pooled
// buffer — the batch itself is borrowed and released by the drain) and
// queues it for the peer hosting the destination fragment. A full queue
// means the peer is not draining: the batch is dropped with its tuples
// and pre-credited SIC mass accounted, never buffered unboundedly.
func (s *NodeServer) routeDownstream(b *stream.Batch) {
	addr, ok := s.peers[peerKey{b.Query, b.Frag}]
	if !ok {
		s.noteDropped(b.Len(), b.SIC)
		return
	}
	buf := appendBatchFrame(s.wbufs.get(), b)
	if !s.queueFor(addr).push(buf, b.Len(), b.SIC) {
		s.wbufs.put(buf)
		s.noteDropped(b.Len(), b.SIC)
	}
}

// queueFor returns (creating if needed) the send queue for a peer
// address.
func (s *NodeServer) queueFor(addr string) *peerQueue {
	q, ok := s.wq[addr]
	if !ok {
		q = &peerQueue{}
		s.wq[addr] = q
	}
	return q
}

// flushPeers writes every non-empty send queue — one vectored write per
// destination — in deterministic address order, then flushes the
// controller queue. Every queue is empty afterwards. Called once per
// tick (and directly by tests).
func (s *NodeServer) flushPeers() {
	s.flushAddrs = s.flushAddrs[:0]
	for addr := range s.wq {
		s.flushAddrs = append(s.flushAddrs, addr)
	}
	slices.Sort(s.flushAddrs)
	for _, addr := range s.flushAddrs {
		s.flushQueue(addr, s.wq[addr])
	}
	s.flushCtrl()
}

// flushQueue drains one peer's queue onto the wire. Undeliverable frames
// are dropped with accounting; the encode buffers are recycled either
// way.
func (s *NodeServer) flushQueue(addr string, q *peerQueue) {
	if len(q.frames) == 0 {
		return
	}
	if err := s.writeQueued(addr, q); err != nil {
		s.logf("themis-node %s: flush %s: %v", s.Name, addr, err)
		for i := range q.frames {
			s.noteDropped(q.frames[i].tuples, q.frames[i].sic)
		}
	}
	q.reset(&s.wbufs)
}

// writeQueued performs the vectored write for one queue, deciding the
// failure policy by error kind. A deadline expiry means the peer
// accepted but stopped reading: retrying immediately would eat another
// full deadline mid-tick, so the conn is evicted and the address put in
// cooldown until its next probe window. Any other error gets the classic
// evict + one re-dial retry — a peer that restarted is reached again
// without poisoning every future tick.
func (s *NodeServer) writeQueued(addr string, q *peerQueue) error {
	c, err := s.peerConn(addr)
	if err != nil {
		return err
	}
	q.flushes++
	err = c.writeFrames(q.buffers())
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
	q.flushes++
	// WriteTo consumed the first attempt's buffer view; rebuild it from
	// the queued frames.
	if rerr := c.writeFrames(q.buffers()); rerr != nil {
		s.dropPeerConn(addr, c)
		return fmt.Errorf("%w (retry: %w)", err, rerr)
	}
	return nil
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
		if s.ctrlDropped++; s.ctrlDropped == 1 {
			s.logf("themis-node %s: control queue full (%d frames per tick): dropping reports, result SIC will read low", s.Name, maxQueueFrames)
		}
	}
}

// flushCtrl writes the tick's queued control frames to the controller
// with one vectored write. Errors are logged, not retried: the
// controller declares this node failed through its own missed-heartbeat
// and read-error detection, and re-places its fragments. Once the server
// quits the frames are dropped instead.
func (s *NodeServer) flushCtrl() {
	if len(s.ctrlQ.frames) == 0 {
		return
	}
	if s.ctrl != nil && !s.quitting() {
		s.ctrlQ.flushes++
		if err := s.ctrl.writeFrames(s.ctrlQ.buffers()); err != nil {
			s.logf("themis-node %s: ctrl flush: %v", s.Name, err)
		}
	}
	s.ctrlQ.reset(&s.wbufs)
}
