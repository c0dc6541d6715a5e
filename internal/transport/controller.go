package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/control"
	"repro/internal/coordinator"
	"repro/internal/sources"
	"repro/internal/stream"
)

// Controller plays the query-submission node and the per-query
// coordinators of a networked THEMIS federation: it deploys query
// fragments across node servers (placement, re-placement and sharing are
// the control plane's decisions, shared with the virtual-time engine —
// internal/control), starts them, ingests result reports into its
// ledger (coordinator.Ledger — the result-SIC bookkeeping it likewise
// shares with the engine), broadcasts result-SIC updates every interval,
// and summarises per-query SIC at the end. Derived batches never pass
// through the controller — hosts ship them to each other directly.
//
// Membership churn is the normal case, not a fatal one: a node that dies
// mid-run (connection error or missed heartbeat) has its fragments
// re-placed over the surviving membership, peers are rewired, and the
// affected queries' SIC accounting restarts at a recovery epoch. Only a
// failure that cannot be re-placed — too few survivors for the query's
// fragments — aborts the run.
type Controller struct {
	mu    sync.Mutex
	nodes []*conn
	addrs []string
	// plane is the control plane (guarded by mu): membership, the
	// auto-placer, the plan cache, every query's placement and share
	// facts, and the share index. Its index is an exact mirror of every
	// host's: per-connection sends are ordered and a host's
	// attach/host/promote decisions are deterministic functions of arrival
	// order — the rules the plane itself applies — so the controller
	// predicts every host-side outcome without a round trip. Host nodes
	// re-plan the travelling CQL text themselves through their own caches.
	plane *control.Plane
	// ledger is every query's result-SIC bookkeeping (guarded by mu) — the
	// per-query coordinators, epochs and sample sums, shared with the
	// engine (coordinator.Ledger) and clocked by the run clock (at).
	ledger *coordinator.Ledger
	// deps remembers each live query's travelling descriptor (per-fragment
	// fields unset), from which recovery re-issues deploy frames.
	deps map[stream.QueryID]Deploy
	// epoch is the wall time Run started, zero before. Run sets it under
	// mu together with running, and nothing writes it again.
	epoch time.Time
	// running is set once Run has started (guarded by mu): a node joined
	// before that gets its Start from Run, one joined after from AddNode.
	running bool
	// hello announces the run — STW, interval, checkpoint cadence in
	// ticks — on every connection this controller dials; immutable.
	hello Hello

	hbTimeout time.Duration
	// lastSeen is, per node, when Run last applied a frame from it
	// (guarded by mu).
	lastSeen   []time.Time
	recoveries []RecoveryEvent

	sicFn func(q stream.QueryID, now stream.Time, v float64)

	// shareEpoch pins share keys in time: every pre-Run submission shares
	// pin 0 (instances are cold until Start, so attaching is exact), while
	// each post-Start submission and each recovery mints a fresh one so
	// nothing attaches to an instance already mid-stream.
	shareEpoch int64

	// stats holds each node's first stats frame by node index, nil until
	// it arrives (guarded by mu).
	stats []*StatsMsg

	// events carries what the read loops decode — each control frame and
	// the error that ends a connection — to Run, the one goroutine that
	// applies them (handle).
	events chan event
	// closed is closed by CloseAll; read loops then stop offering events.
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// event is what one node's connection told the controller: a control
// frame, or (env nil) the error that ended the connection.
type event struct {
	node int
	env  *Envelope
	err  error
}

// stopTimeout bounds the stop handshake's wait for node stats.
const stopTimeout = 5 * time.Second

// eventQueue bounds the events waiting for the one goroutine that
// applies them: the controller's Run, and each host's loop. Each stalls
// up to one write timeout per peer that stops reading. A 2 s stall
// injected into Run peaked at 1,051 queued frames on the benchmark's
// net_overload_24x48 with a checkpoint every tick and at 1,699 on
// net_churn_8x96. One injected into a host's loop peaked at 32–42 queued
// events on net_overload_24x48 (unstalled hosts: at most 8) and filled
// all 4,096 on net_wide_8x480 (5,734–6,000 with 16,384 slots; unstalled
// hosts: 382–749), which dropped the same tuples with either size
// (2 vCPUs; DESIGN.md §5). A full queue blocks only the read loops,
// whose frames then wait in the socket buffers.
const eventQueue = 4096

// RecoveryEvent records one survived node failure.
type RecoveryEvent struct {
	// Node is the address of the failed node.
	Node string
	// At is the run offset at which the failure was detected.
	At time.Duration
	// Queries lists the queries whose fragments were re-placed.
	Queries []stream.QueryID
	// Took measures detection → last recovery deploy on the wire.
	Took time.Duration
	// Restored reports whether every re-placed fragment was restored
	// from a banked checkpoint (warm recovery, SIC accounting carried
	// through) rather than restarted with an empty window.
	Restored bool
}

// ControllerConfig parameterises the controller.
type ControllerConfig struct {
	// STW and Interval are the run every host builds its node from
	// (defaults 10 s / 250 ms), announced in the hello; NewController
	// refuses a run outside control.CheckRun's bounds.
	STW      stream.Duration
	Interval stream.Duration
	// Seed derives per-deployment source seeds and drives placement
	// randomness.
	Seed int64
	// Placement selects the automatic site-assignment strategy used by
	// AutoPlace and by failure recovery when choosing replacement hosts:
	// "round-robin" (default), "uniform" or "zipf".
	Placement string
	// HeartbeatTimeout is how long a node may stay silent before it is
	// declared failed even though its connection looks healthy (e.g. a
	// partition with no FIN). Zero defaults to max(2 s, 8×Interval);
	// negative disables missed-heartbeat detection — connection errors
	// still detect failure.
	HeartbeatTimeout time.Duration
	// Sharing selects, as federation.Config.Sharing does in virtual time,
	// whether same-shape, same-rate fragments placed on one host collapse
	// onto one executing instance with refcounted fan-out views
	// (SharingFull) or run privately (SharingOff, the default). Their
	// source streams are the same either way.
	Sharing control.Sharing
	// Checkpoint is the operator-state checkpoint cadence, rounded down
	// to whole intervals and at least one (control.CheckpointTicks): on
	// that many ticks each host snapshots its fragments and ships the
	// sealed blobs here; failure recovery then restores a
	// displaced fragment's newest blob on its replacement host instead
	// of refilling its windows over a full STW, and — when every
	// displaced fragment of a query has a blob — keeps the query's SIC
	// accounting running through the failure. Zero disables
	// checkpointing (the legacy recovery-epoch behaviour).
	Checkpoint time.Duration
}

// NewController connects to the given node addresses.
func NewController(cfg ControllerConfig, nodeAddrs []string) (*Controller, error) {
	if cfg.STW <= 0 {
		cfg.STW = 10 * stream.Second
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * stream.Millisecond
	}
	hb := cfg.HeartbeatTimeout
	if hb == 0 {
		hb = 8 * time.Duration(cfg.Interval) * time.Millisecond
		if hb < 2*time.Second {
			hb = 2 * time.Second
		}
	}
	ckptTicks := control.CheckpointTicks(stream.Duration(cfg.Checkpoint.Milliseconds()), cfg.Interval)
	if err := control.CheckRun(cfg.STW, cfg.Interval, ckptTicks); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	if _, err := control.NewPlacer(cfg.Placement, 1, cfg.Seed); err != nil {
		return nil, err
	}
	c := &Controller{
		plane:  control.New(control.Config{Placement: cfg.Placement, Seed: cfg.Seed, Sharing: cfg.Sharing}),
		ledger: coordinator.NewLedger(cfg.STW, cfg.Interval, false),
		deps:   make(map[stream.QueryID]Deploy),
		hello: Hello{
			From: "controller", STWMs: int64(cfg.STW), IntervalMs: int64(cfg.Interval), CheckpointTicks: ckptTicks,
		},
		hbTimeout: hb,
		events:    make(chan event, eventQueue),
		closed:    make(chan struct{}),
	}
	for _, addr := range nodeAddrs {
		if _, err := c.AddNode(addr); err != nil {
			c.CloseAll()
			return nil, err
		}
	}
	return c, nil
}

// AddNode dials a freshly started node server and joins it to the
// membership, returning its node index. Joined nodes become re-placement
// targets for failure recovery and enter the automatic placement pool
// for subsequent deploys. Joining is legal mid-run: the node is started
// and its reports are ingested immediately.
func (c *Controller) AddNode(addr string) (int, error) {
	cn, err := dial(addr, c.hello, defaultWriteTimeout)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	idx := int(c.plane.Join())
	c.nodes = append(c.nodes, cn)
	c.addrs = append(c.addrs, addr)
	c.lastSeen = append(c.lastSeen, time.Now())
	c.stats = append(c.stats, nil)
	// Run sends Start to the nodes joined when it sets running under
	// c.mu; a node joined after that is started here, so exactly once.
	running := c.running
	c.mu.Unlock()
	c.wg.Add(1)
	go c.readLoop(idx, cn)
	if running {
		cn.send(c.start())
	}
	return idx, nil
}

// NumNodes reports the number of connected node servers (dead ones
// included — indices are stable for the lifetime of the controller).
func (c *Controller) NumNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// conns snapshots the current connection slice under the lock, so
// broadcast paths never race a mid-run join.
func (c *Controller) conns() []*conn {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*conn(nil), c.nodes...)
}

// liveConnsLocked snapshots the connections for sends made outside c.mu,
// with nil in every dead node's slot: a host that cannot be reached is
// dead or dying, and failure detection owns that path.
func (c *Controller) liveConnsLocked() []*conn {
	conns := append([]*conn(nil), c.nodes...)
	for i := range conns {
		if !c.plane.Alive(stream.NodeID(i)) {
			conns[i] = nil
		}
	}
	return conns
}

// CloseAll closes all node connections, after which the read loops offer
// Run nothing more. Safe to call twice.
func (c *Controller) CloseAll() {
	c.closeOnce.Do(func() { close(c.closed) })
	for _, n := range c.conns() {
		n.Close()
	}
}

// Shutdown stops the federation without running: a best-effort stop to
// every node followed by connection teardown. Run ends an aborted run the
// same way; CLI front-ends use it on error paths so background
// themis-node processes exit rather than leaking.
func (c *Controller) Shutdown() {
	for _, n := range c.conns() {
		n.send(&Envelope{Kind: KindStop})
	}
	c.CloseAll()
}

// OnSIC registers a callback invoked once per query per broadcast
// interval with the coordinator's current result-SIC value. Register
// before Run; the callback runs on Run's goroutine.
func (c *Controller) OnSIC(fn func(q stream.QueryID, now stream.Time, v float64)) {
	c.sicFn = fn
}

// AutoPlace assigns the given number of fragments to distinct live node
// indices using the configured placement strategy. The placer draws
// over the alive membership only; dead nodes never receive fragments.
func (c *Controller) AutoPlace(fragments int) ([]int, error) {
	// Place under the lock: the strategy is stateful (round-robin cursor,
	// rng), and concurrent mid-run Submits must not race on it.
	c.mu.Lock()
	ids, err := c.plane.Place(fragments)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = int(id)
	}
	return out, nil
}

// Submit makes a query a first-class runtime citizen: it plans the CQL
// statement, places its fragments (explicitly, or with the configured
// placement strategy over the live membership when placement is nil)
// and deploys it — legal both before Run and onto a running federation,
// where the new fragments start ticking without pausing any other
// query. The query's measurement epoch starts now: its samples count
// toward its mean only after its own warmup, and its coordinator
// registers for result-SIC dissemination immediately. With sharing
// enabled attach-vs-host is settled here, by the plane, and travels to
// the host as an opaque ShareKey. A rate or batches/s no host would run
// is refused here, before it costs a query id.
func (c *Controller) Submit(cqlText string, fragments, dataset int, rate, batchesPerSec float64, placement []int) (stream.QueryID, error) {
	if !(batchesPerSec > 0 && batchesPerSec <= control.MaxRate) {
		return 0, fmt.Errorf("transport: %g batches/s outside (0, %g]", batchesPerSec, float64(control.MaxRate))
	}
	var at []stream.NodeID
	if placement != nil {
		at = make([]stream.NodeID, len(placement))
		for i, ni := range placement {
			if at[i] = stream.NodeID(ni); int(at[i]) != ni {
				at[i] = -1 // beyond the id type: the plane refuses it as missing
			}
		}
	}
	c.mu.Lock()
	// Plan locally first: reject malformed statements before any node
	// sees them. The plan cache makes repeat submissions of the same (or
	// same-shaped) text skip the parse and planning work entirely.
	plan, shape, err := c.plane.Plan(cqlText, fragments, sources.Dataset(dataset))
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	pin := int64(0)
	if c.running {
		c.shareEpoch++
		pin = c.shareEpoch
	}
	// Every networked query reads feed 0: same-shape queries monitor one
	// logical stream, as their engine twins submitted on feed 0 do.
	cq, cmds, err := c.plane.Submit(plan, shape, 0, rate, at, pin)
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	q := cq.ID
	c.ledger.Open(q, c.now())
	c.deps[q] = Deploy{
		CQL: cqlText, Fragments: plan.NumFragments(), Dataset: dataset,
		Rate: rate, Batches: batchesPerSec,
	}
	peers := c.peersLocked(cq.Placement)
	outs := make([]Deploy, len(cmds))
	for i, cmd := range cmds {
		outs[i] = c.frameLocked(cmd, peers)
	}
	conns := append([]*conn(nil), c.nodes...)
	c.mu.Unlock()

	for i, cmd := range cmds {
		if err := conns[cmd.Node].send(&Envelope{Kind: KindDeploy, Deploy: &outs[i]}); err != nil {
			return 0, err
		}
	}
	return q, nil
}

// Retract tears a running query down mid-run: its hosts drop the
// fragments (and all per-query state) without pausing other queries,
// its coordinator deregisters from the dissemination loop, and every
// per-query controller record is freed. The query's mean SIC freezes at
// its current post-epoch value and still appears in the final results.
// Surviving queries' accounting is untouched — their SIC climbs as the
// freed capacity reaches them, which is the fairness dynamic under
// study, not pollution. Safe to call while failure recovery is in
// flight: whichever side loses the race observes the other's outcome
// and stands down.
func (c *Controller) Retract(q stream.QueryID) error {
	c.mu.Lock()
	// The plane replays the hosts' teardown before the retract frames go
	// out: group membership shifts (including promotion of the next
	// subscriber to executing) and the emit invariant is re-derived over
	// what remains.
	placement, _, flips, ok := c.plane.Retract(q)
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("transport: retract: unknown query %d", q)
	}
	c.ledger.Close(q)
	delete(c.deps, q)
	conns := c.liveConnsLocked()
	c.mu.Unlock()
	// Network sends happen outside c.mu; errors are ignored, as for a dead
	// host.
	for _, ni := range placement {
		if cn := conns[ni]; cn != nil {
			cn.send(&Envelope{Kind: KindRetract, Retract: &Retract{Query: q}})
		}
	}
	// Emit flips ship after the retracts: per-connection ordering then
	// guarantees a host sees the promotion (retract) before any flip that
	// depends on it, and flips to other hosts converge within a tick.
	sendEmitFlips(conns, flips)
	return nil
}

// peersLocked renders a placement as the fragment → address map hosts
// route derived batches by.
func (c *Controller) peersLocked(placement []stream.NodeID) map[stream.FragID]string {
	peers := make(map[stream.FragID]string, len(placement))
	for f, ni := range placement {
		peers[stream.FragID(f)] = c.addrs[ni]
	}
	return peers
}

// frameLocked builds the Deploy frame for one of the plane's deploy
// commands: the query's recorded descriptor specialised for the fragment,
// with the plane's seed and share terms. The initial deploy and every
// recovery re-deploy build their frames here and nowhere else, so a
// re-placed fragment is described to its new host by the same rules that
// described it to the old one. Source seeds and source ids are pure
// functions of (query, fragment): a re-deploy reconstructs the displaced
// fragment's sources exactly. Callers hold c.mu.
func (c *Controller) frameLocked(cmd control.Deploy, peers map[stream.FragID]string) Deploy {
	d := c.deps[cmd.Query]
	d.Query = cmd.Query
	d.Frag = stream.FragID(cmd.Frag)
	d.Peers = peers
	d.SourceSeed = cmd.Seed
	d.FirstSourceID = stream.SourceID(int(cmd.Query)*1000 + 100*cmd.Frag)
	d.ShareKey, d.ShareEmit = cmd.ShareKey, cmd.Emit
	return d
}

// sendEmitFlips delivers the plane's emit flips as KindShareEmit frames;
// dead hosts are skipped — recovery re-derives the bits.
func sendEmitFlips(conns []*conn, flips []control.EmitFlip) {
	for _, fl := range flips {
		if cn := conns[fl.Node]; cn != nil {
			cn.send(&Envelope{Kind: KindShareEmit, ShareEmit: &ShareEmitMsg{
				Query: fl.Query, Frag: stream.FragID(fl.Frag), Emit: fl.Emit,
			}})
		}
	}
}

// start is the Start frame for a host joining now. It carries the run
// offset a mid-run joiner aligns its logical clock by; Run's own hosts
// start at the run epoch.
func (c *Controller) start() *Envelope {
	return &Envelope{Kind: KindStart, Start: &Start{RunOffsetMs: int64(c.now())}}
}

// now is the current time on the run clock (at).
func (c *Controller) now() stream.Time { return c.at(time.Now()) }

// at is wall time t on the run clock: zero before Run begins, so a query
// submitted before Run opens at time zero and warms up from the run epoch.
func (c *Controller) at(t time.Time) stream.Time {
	if c.epoch.IsZero() {
		return 0
	}
	return stream.Time(t.Sub(c.epoch).Milliseconds())
}

// Run starts all nodes, processes reports for the given wall-clock
// duration (samples are recorded after warmup), stops the nodes and
// returns the per-query mean SIC plus fairness metrics. A node failing
// mid-run — connection error, failed write or missed heartbeat —
// triggers recovery: its fragments are re-placed over the surviving
// membership, peers are rewired, and the affected queries' SIC sampling
// restarts at the recovery epoch, so their reported means describe the
// post-recovery pipeline. Only an unrecoverable failure (not enough
// survivors to host a query's fragments on distinct nodes) aborts the
// run.
//
// Run's goroutine is the only one that changes controller state in
// response to hosts: it applies every event the read loops decode
// (handle) and runs every interval step (tick), one at a time.
func (c *Controller) Run(duration, warmup time.Duration) (*NetResults, error) {
	c.mu.Lock()
	// Set the epoch where running is set: a concurrent Submit reads it
	// under c.mu, and an AddNode that sees running starts its node at the
	// run's offset.
	c.epoch = time.Now()
	for i := range c.lastSeen {
		c.lastSeen[i] = c.epoch
	}
	c.running = true
	conns := append([]*conn(nil), c.nodes...)
	c.mu.Unlock()
	for _, n := range conns {
		if err := n.send(c.start()); err != nil {
			c.CloseAll()
			return nil, err
		}
	}

	ticker := time.NewTicker(time.Duration(c.hello.IntervalMs) * time.Millisecond)
	defer ticker.Stop()
	deadline := time.After(duration)
	warm := stream.Duration(warmup.Milliseconds())
	for over := false; !over; {
		var err error
		select {
		case <-deadline:
			// Failures that raced the deadline are still handled: a
			// recoverable one re-places fragments (the summary then reflects
			// the recovery), an unrecoverable one aborts rather than folding
			// a dead node's absence into a successful-looking summary.
			err, over = c.drain(), true
		case ev := <-c.events:
			err = c.handle(ev)
		case <-ticker.C:
			err = c.tick(warm)
		}
		if err != nil {
			c.Shutdown()
			c.wg.Wait()
			return nil, fmt.Errorf("transport: run aborted: %w", err)
		}
	}

	// Stop handshake: announce stop, then wait for every surviving
	// node's final stats frame (or a timeout) before tearing connections
	// down, so the summary deterministically includes all node counters.
	for _, n := range c.conns() {
		n.send(&Envelope{Kind: KindStop})
	}
	stopDeadline := time.After(stopTimeout)
wait:
	for c.awaitingStats() {
		select {
		case ev := <-c.events:
			if ev.err == nil { // a connection ending now is teardown
				c.handle(ev)
			}
		case <-stopDeadline:
			break wait
		}
	}
	c.CloseAll()
	c.wg.Wait()
	return c.results(), nil
}

// handle applies one event from a node's connection. The error that
// ended the connection is a node failure. A frame refreshes the node's
// liveness at the moment it is applied, and applies only if the node
// serves what it speaks for: a report only from the host of the query's
// root, stamped with the same moment on the ledger; a checkpoint only
// from the fragment's current host; and a node's first stats frame only.
func (c *Controller) handle(ev event) error {
	if ev.err != nil {
		err := ev.err
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
			err = fmt.Errorf("connection closed: %w", err)
		}
		return c.handleFailure(ev.node, err)
	}
	now := time.Now()
	e := ev.env
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lastSeen[ev.node] = now
	switch e.Kind {
	case KindReport:
		if r := e.Report; r != nil && c.hosts(ev.node, r.Query, 0) { // fragment 0 is the root (query.Plan)
			c.ledger.Result(r.Query, c.at(now), r.Result)
		}
	case KindCheckpoint:
		if ck := e.Checkpoint; ck != nil && c.hosts(ev.node, ck.Query, int(ck.Frag)) {
			c.plane.Checkpoint(ck.Query, int(ck.Frag), ck.State)
		}
	case KindStats:
		// A second frame would also count toward the stop wait, ending it
		// before another node's stats arrive.
		if e.Stats != nil && c.stats[ev.node] == nil {
			c.stats[ev.node] = e.Stats
		}
	}
	return nil
}

// drain applies every event already queued. Only Run's goroutine
// receives from c.events, so a non-empty queue never blocks the receive.
func (c *Controller) drain() error {
	for len(c.events) > 0 {
		if err := c.handle(<-c.events); err != nil {
			return err
		}
	}
	return nil
}

// tick is Run's interval step. It applies every queued event first —
// frames waiting behind a slow recovery are not silence — then fails the
// nodes silent past the heartbeat timeout, and broadcasts every live
// query's result SIC to its hosts, sampling it after warmup. A host
// whose SIC write fails is failed too.
func (c *Controller) tick(warmup stream.Duration) error {
	if err := c.drain(); err != nil {
		return err
	}
	for _, i := range c.silent(time.Now()) {
		if err := c.handleFailure(i, errMissedHeartbeat); err != nil {
			return err
		}
	}
	now := c.now()
	// The ledger walks the live queries in ascending id; every query's
	// update to the same host is coalesced into one vectored write — at
	// 48 queries over 24 nodes this interval costs one syscall per host,
	// not one per (query, host) pair.
	var sent []*SICMsg
	c.mu.Lock()
	conns := c.liveConnsLocked()
	perNode := make([][]*Envelope, len(conns))
	c.ledger.Tick(now, warmup, func(q stream.QueryID, v float64) int {
		m := &SICMsg{Query: q, Value: v}
		sent = append(sent, m)
		hosts := c.plane.Query(q).Placement
		for _, ni := range hosts {
			if conns[ni] != nil {
				perNode[ni] = append(perNode[ni], &Envelope{Kind: KindSIC, SIC: m})
			}
		}
		return len(hosts)
	})
	c.mu.Unlock()
	// The user's callback and the network writes happen outside c.mu.
	if c.sicFn != nil {
		for _, m := range sent {
			c.sicFn(m.Query, now, m.Value)
		}
	}
	for ni, es := range perNode {
		if len(es) == 0 {
			continue
		}
		// A write deadline expiry or a broken conn is a failure like a
		// read error: the node's fragments are re-placed instead of
		// silently starving of SIC updates.
		if err := conns[ni].sendMany(es); err != nil {
			if err := c.handleFailure(ni, err); err != nil {
				return err
			}
		}
	}
	return nil
}

// errMissedHeartbeat marks a node declared dead for silence rather than
// a connection error.
var errMissedHeartbeat = errors.New("missed heartbeats")

// silent lists the live nodes no frame has been applied from since the
// heartbeat timeout before now. Started nodes beacon every tick, so a
// healthy connection is never this quiet; a partitioned node's
// connection can look healthy indefinitely without this check.
func (c *Controller) silent(now time.Time) []int {
	if c.hbTimeout <= 0 {
		return nil
	}
	cutoff := now.Add(-c.hbTimeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	var late []int
	for i, seen := range c.lastSeen {
		if c.plane.Alive(stream.NodeID(i)) && seen.Before(cutoff) {
			late = append(late, i)
		}
	}
	return late
}

// handleFailure processes one detected node death on Run's goroutine,
// from any of its three sources: a read error (handle), a failed SIC
// write or heartbeat silence (tick). It returns nil when the membership
// absorbed the failure (fragments re-placed, peers rewired) and an error
// when the run cannot continue. A failure of an already-dead node is
// ignored — the sources overlap, and closing the dead node's connection
// ends its read loop with one more error.
func (c *Controller) handleFailure(idx int, cause error) error {
	c.mu.Lock()
	// The plane drops the node from the membership and clears its share
	// groups; the queries it names get their displaced fragments re-keyed
	// under a fresh recovery pin below.
	affected, ok := c.plane.Fail(stream.NodeID(idx))
	if !ok {
		c.mu.Unlock()
		return nil
	}
	deadAddr := c.addrs[idx]
	cn := c.nodes[idx]
	c.shareEpoch++
	pin := c.shareEpoch
	c.mu.Unlock()
	cn.Close() // sever, so a half-dead node stops feeding us reports
	start := time.Now()
	restored := len(affected) > 0
	for _, q := range affected {
		warm, err := c.replaceFragments(q, pin)
		if err != nil {
			return fmt.Errorf("node %s: %v: %w", deadAddr, cause, err)
		}
		restored = restored && warm
	}
	ev := RecoveryEvent{
		Node: deadAddr, At: time.Since(c.epoch), Queries: affected,
		Took: time.Since(start), Restored: restored,
	}
	c.mu.Lock()
	c.recoveries = append(c.recoveries, ev)
	// Re-placement may have turned riders into private executors (or new
	// primaries into attach targets); restore the emit invariant over the
	// surviving topology.
	flips := c.plane.Sweep()
	conns := c.liveConnsLocked()
	c.mu.Unlock()
	sendEmitFlips(conns, flips)
	return nil
}

// replaceFragments re-places query q's fragments that were hosted on the
// dead node: the plane picks replacement hosts (DESIGN.md §7) and settles
// their share terms under the recovery pin, the displaced fragments are
// re-deployed there — each host re-plans the travelling CQL text
// deterministically, so the new host derives the exact fragment the dead
// one ran — and every surviving host is rewired to the new peer map.
// Unless the plane's verdict is warm, the query's SIC accounting resets
// at this recovery epoch (Ledger.ResetEpoch), so the reported mean
// describes the post-recovery pipeline instead of blending two
// incomparable regimes.
func (c *Controller) replaceFragments(q stream.QueryID, pin int64) (restored bool, err error) {
	c.mu.Lock()
	cq := c.plane.Query(q)
	if cq == nil {
		// The query was retracted between failure detection and this
		// re-placement — nothing left to recover. Not an error: retract
		// racing recovery is a legal interleaving and whichever side
		// runs second stands down.
		c.mu.Unlock()
		return true, nil
	}
	// With a blob banked for every displaced fragment the plane's verdict
	// is warm and its commands carry the state to restore: the blobs ship
	// to the new hosts after their deploys below, and the query's SIC
	// accounting carries straight through the failure — no recovery epoch.
	// A node-side restore failure (stale or corrupt blob) degrades that
	// query's dip to roughly the cold one; the blob's checksum and plan
	// tags make the failure clean either way.
	cmds, warm, err := c.plane.Replace(q, pin)
	if err != nil {
		c.mu.Unlock()
		return false, fmt.Errorf("transport: %w", err)
	}
	peers := c.peersLocked(cq.Placement)
	frames := make([]Deploy, len(cmds))
	restores := make([]*RestoreStateMsg, len(cmds))
	for i, cmd := range cmds {
		frames[i] = c.frameLocked(cmd, peers)
		if cmd.Restore != nil {
			// Copied under the lock: the bank reuses its buffers, and the
			// send below happens outside it.
			restores[i] = &RestoreStateMsg{Query: q, Frag: stream.FragID(cmd.Frag), State: append([]byte(nil), cmd.Restore...)}
		}
	}
	if !warm {
		// Recovery epoch: wipe pre-failure SIC state so post-recovery
		// values are measured cleanly.
		c.ledger.ResetEpoch(q)
	}
	conns := c.liveConnsLocked()
	placement := append([]stream.NodeID(nil), cq.Placement...)
	c.mu.Unlock()

	// Re-deploy the displaced fragments. Their hosts already tick: every
	// member, spares included, got its Start from Run or AddNode.
	for i, cmd := range cmds {
		cn := conns[cmd.Node]
		if err := cn.send(&Envelope{Kind: KindDeploy, Deploy: &frames[i]}); err != nil {
			return false, fmt.Errorf("transport: re-deploy fragment %d on %s: %w", cmd.Frag, peers[stream.FragID(cmd.Frag)], err)
		}
		if restores[i] != nil {
			// Per-connection sends are ordered, so the restore lands
			// after the deploy that builds its target executor. Attaching
			// fragments get no blob — the live instance is their state.
			cn.send(&Envelope{Kind: KindRestoreState, Restore: restores[i]})
		}
	}
	// Rewire every surviving host of the query. The new hosts' deploys
	// already carried the updated peer map; the redundant rewire is
	// harmless and keeps the fan-out simple.
	for _, ni := range placement {
		if cn := conns[ni]; cn != nil {
			cn.send(&Envelope{Kind: KindRewire, Rewire: &Rewire{Query: q, Peers: peers}})
		}
	}
	// A retract that slipped in while the re-deploys were on the wire
	// would leave the fresh fragments as zombies on their new hosts:
	// per-connection sends are ordered, so a retract issued now is
	// guaranteed to land after the deploys above and undo them.
	c.mu.Lock()
	stillDeployed := c.plane.Query(q) != nil
	c.mu.Unlock()
	if !stillDeployed {
		for _, ni := range placement {
			if cn := conns[ni]; cn != nil {
				cn.send(&Envelope{Kind: KindRetract, Retract: &Retract{Query: q}})
			}
		}
	}
	return warm, nil
}

// readLoop decodes node idx's frames and offers each control frame to
// Run, then the error that ends the connection. It touches no controller
// state, and once CloseAll runs it offers nothing more. Batches are never
// routed through the controller and are dropped here.
func (c *Controller) readLoop(idx int, n *conn) {
	defer c.wg.Done()
	fr := newFrameReader(n.c)
	for {
		e, _, err := fr.next()
		if e == nil && err == nil {
			continue
		}
		select {
		case c.events <- event{idx, e, err}:
		case <-c.closed:
			return
		}
		if err != nil {
			return
		}
	}
}

// awaitingStats reports whether a live node's stats frame is still due.
func (c *Controller) awaitingStats() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, st := range c.stats {
		if st == nil && c.plane.Alive(stream.NodeID(i)) {
			return true
		}
	}
	return false
}

// hosts reports whether node idx currently hosts fragment f of query q.
// The caller holds c.mu.
func (c *Controller) hosts(idx int, q stream.QueryID, f int) bool {
	cq := c.plane.Query(q)
	return cq != nil && f >= 0 && f < len(cq.Placement) && cq.Placement[f] == stream.NodeID(idx)
}

// NetResults summarises a networked run.
type NetResults struct {
	// PerQuery maps query id → time-averaged result SIC. For a query
	// re-placed by failure recovery, the average covers only the
	// post-recovery epoch; for a query retracted mid-run, the mean is
	// frozen at retract time; a query submitted mid-run averages from
	// its own epoch plus warmup.
	PerQuery map[stream.QueryID]float64
	MeanSIC  float64
	Jain     float64
	// Nodes holds the stats frame of every node that sent one, in node
	// index order.
	Nodes []StatsMsg
	// Recoveries lists the node failures the run survived, in detection
	// order. Empty for an undisturbed run.
	Recoveries []RecoveryEvent
}

func (c *Controller) results() *NetResults {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Retracted queries report the mean frozen at retract time; fairness
	// metrics cover the whole workload the run served, live or departed.
	sum := c.ledger.Summary()
	res := &NetResults{PerQuery: make(map[stream.QueryID]float64, len(sum.Queries)), MeanSIC: sum.Mean, Jain: sum.Jain}
	for i, q := range sum.Queries {
		res.PerQuery[q] = sum.Means[i]
	}
	for _, st := range c.stats {
		if st != nil {
			res.Nodes = append(res.Nodes, *st)
		}
	}
	res.Recoveries = append(res.Recoveries, c.recoveries...)
	return res
}
