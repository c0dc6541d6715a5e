package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
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
	// engine (coordinator.Ledger) and clocked by c.now().
	ledger *coordinator.Ledger
	// deps remembers each live query's travelling descriptor (per-fragment
	// fields unset), from which recovery re-issues deploy frames.
	deps  map[stream.QueryID]Deploy
	epoch time.Time
	stw   stream.Duration
	ival  stream.Duration
	ckpt  time.Duration

	hbTimeout time.Duration
	// lastSeen holds per-node atomic unix-nano receive timestamps;
	// entries are pointers so membership growth never moves them.
	lastSeen []*atomic.Int64
	// running flips while Run is active so AddNode can start read loops
	// for mid-run joiners.
	running    atomic.Bool
	wg         sync.WaitGroup
	recoveries []RecoveryEvent

	sicFn func(q stream.QueryID, now stream.Time, v float64)

	// shareEpoch pins share keys in time: every pre-Run submission shares
	// pin 0 (instances are cold until Start, so attaching is exact), while
	// each post-Start submission and each recovery mints a fresh one so
	// nothing attaches to an instance already mid-stream.
	shareEpoch int64

	// stopping flips before the stop handshake; read-loop errors after
	// that are expected connection teardown, errors before it are node
	// failures surfaced from Run.
	stopping atomic.Bool
	fail     chan nodeFailure
	statsCh  chan struct{}
	stats    []StatsMsg
}

// nodeFailure is one detected node death, reported to Run.
type nodeFailure struct {
	idx int
	err error
}

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
	// STW and Interval mirror the node settings (defaults 10 s / 250 ms).
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
	// Checkpoint is the operator-state checkpoint cadence: every
	// Checkpoint of wall clock each host snapshots its fragments and
	// ships the sealed blobs here; failure recovery then restores a
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
	if _, err := control.NewPlacer(cfg.Placement, 1, cfg.Seed); err != nil {
		return nil, err
	}
	c := &Controller{
		plane:     control.New(control.Config{Placement: cfg.Placement, Seed: cfg.Seed, Sharing: cfg.Sharing}),
		ledger:    coordinator.NewLedger(cfg.STW, cfg.Interval, false),
		deps:      make(map[stream.QueryID]Deploy),
		stw:       cfg.STW,
		ival:      cfg.Interval,
		ckpt:      cfg.Checkpoint,
		hbTimeout: hb,
		fail:      make(chan nodeFailure, 64),
		statsCh:   make(chan struct{}, 256),
	}
	for _, addr := range nodeAddrs {
		cn, err := dial(addr, "controller", defaultWriteTimeout)
		if err != nil {
			c.CloseAll()
			return nil, err
		}
		c.nodes = append(c.nodes, cn)
		c.addrs = append(c.addrs, addr)
		c.plane.Join()
		c.lastSeen = append(c.lastSeen, &atomic.Int64{})
	}
	return c, nil
}

// AddNode dials a freshly started node server and joins it to the
// membership, returning its node index. Joined nodes become re-placement
// targets for failure recovery and enter the automatic placement pool
// for subsequent deploys. Joining is legal mid-run: the node is started
// and its reports are ingested immediately.
func (c *Controller) AddNode(addr string) (int, error) {
	cn, err := dial(addr, "controller", defaultWriteTimeout)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	idx := int(c.plane.Join())
	c.nodes = append(c.nodes, cn)
	c.addrs = append(c.addrs, addr)
	ls := &atomic.Int64{}
	ls.Store(time.Now().UnixNano())
	c.lastSeen = append(c.lastSeen, ls)
	// Read running under the same lock Run holds while it snapshots the
	// connection list and flips running: exactly one of Run and AddNode
	// starts this connection's read loop, never both and never neither.
	running := c.running.Load()
	if running {
		c.wg.Add(1)
	}
	c.mu.Unlock()
	if running {
		cn.send(&Envelope{Kind: KindStart, Start: &Start{
			IntervalMs: int64(c.ival), STWMs: int64(c.stw), CheckpointMs: c.ckptMs(),
			RunOffsetMs: c.runOffsetMs(),
		}})
		go func() {
			defer c.wg.Done()
			c.readLoop(idx, cn)
		}()
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

// CloseAll closes all node connections.
func (c *Controller) CloseAll() {
	for _, n := range c.conns() {
		n.Close()
	}
}

// abort ends a run after an unrecoverable failure: surviving nodes get a
// best-effort stop (so their processes wind down instead of ticking
// forever against dead peers), then every connection closes.
func (c *Controller) abort() {
	c.stopping.Store(true)
	for _, n := range c.conns() {
		n.send(&Envelope{Kind: KindStop})
	}
	c.CloseAll()
}

// Shutdown stops the federation without running: a best-effort stop to
// every node followed by connection teardown. CLI front-ends use it on
// error paths so background themis-node processes exit rather than
// leaking.
func (c *Controller) Shutdown() {
	c.abort()
}

// OnSIC registers a callback invoked once per query per broadcast
// interval with the coordinator's current result-SIC value. Register
// before Run; the callback runs on the controller's ticker goroutine.
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
	if c.running.Load() {
		c.shareEpoch++
		pin = c.shareEpoch
	}
	cq, cmds, err := c.plane.Submit(plan, shape, rate, at, pin)
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
	d.STWMs = int64(c.stw)
	d.IntervalMs = int64(c.ival)
	d.CheckpointMs = c.ckptMs()
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

// ckptMs is the checkpoint cadence in wall-clock milliseconds (zero when
// checkpointing is off). c.ckpt is immutable after construction.
func (c *Controller) ckptMs() int64 { return int64(c.ckpt / time.Millisecond) }

// runOffsetMs is the run clock carried on Start messages so mid-run
// joiners align their logical clocks with the founding members. Zero
// before Run begins.
func (c *Controller) runOffsetMs() int64 {
	if c.epoch.IsZero() {
		return 0
	}
	return time.Since(c.epoch).Milliseconds()
}

// now is the run clock as the ledger's time: a query submitted before Run
// opens at time zero and so warms up from the run epoch.
func (c *Controller) now() stream.Time { return stream.Time(c.runOffsetMs()) }

// Run starts all nodes, processes reports for the given wall-clock
// duration (samples are recorded after warmup), stops the nodes and
// returns the per-query mean SIC plus fairness metrics. A node failing
// mid-run — connection error or missed heartbeat — triggers recovery:
// its fragments are re-placed over the surviving membership, peers are
// rewired, and the affected queries' SIC sampling restarts at the
// recovery epoch, so their reported means describe the post-recovery
// pipeline. Only an unrecoverable failure (not enough survivors to host
// a query's fragments on distinct nodes) aborts the run.
func (c *Controller) Run(duration, warmup time.Duration) (*NetResults, error) {
	c.epoch = time.Now()
	startNanos := time.Now().UnixNano()
	c.mu.Lock()
	for _, ls := range c.lastSeen {
		ls.Store(startNanos)
	}
	conns := append([]*conn(nil), c.nodes...)
	// Flip running inside the same critical section that snapshots the
	// connections: a concurrent AddNode either lands in the snapshot
	// (running still false — Run starts its read loop) or observes
	// running true and starts it itself. Never both, never neither.
	c.running.Store(true)
	c.mu.Unlock()
	defer c.running.Store(false)
	for _, n := range conns {
		if err := n.send(&Envelope{Kind: KindStart, Start: &Start{
			IntervalMs: int64(c.ival), STWMs: int64(c.stw), CheckpointMs: c.ckptMs(),
			RunOffsetMs: c.runOffsetMs(),
		}}); err != nil {
			c.CloseAll()
			return nil, err
		}
	}

	for i, n := range conns {
		c.wg.Add(1)
		go func(i int, n *conn) {
			defer c.wg.Done()
			c.readLoop(i, n)
		}(i, n)
	}

	// Broadcast result-SIC updates every interval, sample after warmup.
	ticker := time.NewTicker(time.Duration(c.ival) * time.Millisecond)
	deadline := time.After(duration)
	defer ticker.Stop()
loop:
	for {
		select {
		case <-deadline:
			break loop
		case f := <-c.fail:
			if err := c.handleFailure(f); err != nil {
				c.abort()
				c.wg.Wait()
				return nil, fmt.Errorf("transport: run aborted: %w", err)
			}
		case <-ticker.C:
			c.checkHeartbeats()
			now := c.now()
			// The ledger walks the live queries in ascending id; every
			// query's update to the same host is coalesced into one
			// vectored write — at 48 queries over 24 nodes this interval
			// costs one syscall per host, not one per (query, host) pair.
			var sent []*SICMsg
			c.mu.Lock()
			conns := c.liveConnsLocked()
			perNode := make([][]*Envelope, len(conns))
			c.ledger.Tick(now, stream.Duration(warmup.Milliseconds()), func(q stream.QueryID, v float64) int {
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
			// The user's callback and the network writes happen outside
			// c.mu: a node with a full TCP send buffer must not stall
			// readLoop's report ingestion.
			if c.sicFn != nil {
				for _, m := range sent {
					c.sicFn(m.Query, now, m.Value)
				}
			}
			for ni, es := range perNode {
				if len(es) == 0 {
					continue
				}
				if err := conns[ni].sendMany(es); err != nil {
					// A write deadline expiry or a broken conn is a failure
					// signal like any read error: surface it (non-blocking —
					// heartbeat detection is the backstop) so the node is
					// declared dead and its fragments re-placed instead of
					// silently starving of SIC updates.
					select {
					case c.fail <- nodeFailure{ni, err}:
					default:
					}
				}
			}
		}
	}

	// Failures that raced the deadline are still handled — all of them,
	// since several nodes can die within the final interval: recoverable
	// ones re-place fragments (the summary then reflects the recovery),
	// an unrecoverable one aborts rather than folding a dead node's
	// absence into a successful-looking summary.
drain:
	for {
		select {
		case f := <-c.fail:
			if err := c.handleFailure(f); err != nil {
				c.abort()
				c.wg.Wait()
				return nil, fmt.Errorf("transport: run aborted: %w", err)
			}
		default:
			break drain
		}
	}

	// Stop handshake: announce stop, then wait for every surviving
	// node's final stats frame (or a timeout) before tearing connections
	// down, so the summary deterministically includes all node counters.
	c.stopping.Store(true)
	c.mu.Lock()
	alive := 0
	for i := range c.nodes {
		if c.plane.Alive(stream.NodeID(i)) {
			alive++
		}
	}
	conns = append(conns[:0], c.nodes...)
	c.mu.Unlock()
	for _, n := range conns {
		n.send(&Envelope{Kind: KindStop})
	}
	stopDeadline := time.After(stopTimeout)
wait:
	for got := 0; got < alive; got++ {
		select {
		case <-c.statsCh:
		case <-stopDeadline:
			break wait
		}
	}
	c.CloseAll()
	c.wg.Wait()
	return c.results(), nil
}

// errMissedHeartbeat marks a node declared dead for silence rather than
// a connection error.
var errMissedHeartbeat = errors.New("missed heartbeats")

// checkHeartbeats declares nodes dead that have sent nothing for longer
// than the heartbeat timeout. Started nodes beacon every tick, so a
// healthy connection is never this quiet; a partitioned node's
// connection can look healthy indefinitely without this check.
func (c *Controller) checkHeartbeats() {
	if c.hbTimeout <= 0 {
		return
	}
	cutoff := time.Now().Add(-c.hbTimeout).UnixNano()
	c.mu.Lock()
	var late []nodeFailure
	for i := range c.nodes {
		if c.plane.Alive(stream.NodeID(i)) && c.lastSeen[i].Load() < cutoff {
			late = append(late, nodeFailure{i, errMissedHeartbeat})
		}
	}
	c.mu.Unlock()
	for _, f := range late {
		select {
		case c.fail <- f:
		default:
		}
	}
}

// handleFailure processes one detected node death. It returns nil when
// the membership absorbed the failure (fragments re-placed, peers
// rewired) and an error when the run cannot continue. Duplicate reports
// for an already-dead node are ignored — conn-error and heartbeat
// detection race benignly.
func (c *Controller) handleFailure(f nodeFailure) error {
	c.mu.Lock()
	// The plane drops the node from the membership and clears its share
	// groups; the queries it names get their displaced fragments re-keyed
	// under a fresh recovery pin below.
	affected, ok := c.plane.Fail(stream.NodeID(f.idx))
	if !ok {
		c.mu.Unlock()
		return nil
	}
	deadAddr := c.addrs[f.idx]
	cn := c.nodes[f.idx]
	c.shareEpoch++
	pin := c.shareEpoch
	c.mu.Unlock()
	cn.Close() // sever, so a half-dead node stops feeding us reports
	start := time.Now()
	restored := len(affected) > 0
	for _, q := range affected {
		warm, err := c.replaceFragments(q, pin)
		if err != nil {
			return fmt.Errorf("node %s: %v: %w", deadAddr, f.err, err)
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

	// Re-deploy the displaced fragments and (re-)start their hosts — an
	// idle spare begins ticking here; handleStart is idempotent on nodes
	// already running.
	for i, cmd := range cmds {
		cn := conns[cmd.Node]
		if err := cn.send(&Envelope{Kind: KindDeploy, Deploy: &frames[i]}); err != nil {
			return false, fmt.Errorf("transport: re-deploy fragment %d on %s: %w", cmd.Frag, peers[stream.FragID(cmd.Frag)], err)
		}
		cn.send(&Envelope{Kind: KindStart, Start: &Start{
			IntervalMs: int64(c.ival), STWMs: int64(c.stw), CheckpointMs: c.ckptMs(),
			RunOffsetMs: c.runOffsetMs(),
		}})
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

// stopTimeout bounds the stop handshake's wait for node stats.
const stopTimeout = 5 * time.Second

// readLoop ingests reports from one node until its connection closes.
// Abnormal closes before the stop handshake are surfaced to Run as node
// failures; every received frame — heartbeats included — refreshes the
// node's liveness timestamp.
func (c *Controller) readLoop(idx int, n *conn) {
	fr := newFrameReader(n.c)
	c.mu.Lock()
	ls := c.lastSeen[idx]
	c.mu.Unlock()
	for {
		e, _, err := fr.next()
		if err != nil {
			if c.stopping.Load() {
				return // teardown at stop time is expected
			}
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				err = fmt.Errorf("connection closed: %w", err)
			}
			select {
			case c.fail <- nodeFailure{idx, err}:
			default:
			}
			return
		}
		ls.Store(time.Now().UnixNano())
		if e == nil {
			continue // batches are never routed through the controller
		}
		switch e.Kind {
		case KindReport:
			r := e.Report
			if r == nil {
				continue // malformed control frame; drop, don't crash
			}
			now := c.now()
			c.mu.Lock()
			c.ledger.Result(r.Query, now, r.Result)
			c.mu.Unlock()
		case KindCheckpoint:
			ck := e.Checkpoint
			if ck == nil {
				continue
			}
			c.mu.Lock()
			c.plane.Checkpoint(ck.Query, int(ck.Frag), ck.State)
			c.mu.Unlock()
		case KindStats:
			if e.Stats == nil {
				continue
			}
			c.mu.Lock()
			c.stats = append(c.stats, *e.Stats)
			c.mu.Unlock()
			select {
			case c.statsCh <- struct{}{}:
			default:
			}
		}
	}
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
	Nodes    []StatsMsg
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
	res.Nodes = append(res.Nodes, c.stats...)
	res.Recoveries = append(res.Recoveries, c.recoveries...)
	return res
}
