package transport

import (
	"cmp"
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
//
// A Controller applies one step at a time, under mu (step): each verb's
// step on its caller's goroutine, and on Run's goroutine, the run loop,
// every frame and connection end the read loops decode (handle) and
// every interval step (tick). A step only queues the frames it sends
// (queue); the step ends by writing each node's queue (flush), and a
// write that fails fails its node, whatever the frames were. Every field
// below that is not a channel, the wait group or the Once is guarded by
// mu.
type Controller struct {
	// mu is held by whoever applies a step, for the whole step.
	mu    sync.Mutex
	nodes []*conn
	addrs []string
	// plane is the control plane: membership, the auto-placer, the plan
	// cache, every query's placement and share facts, and the share
	// index. It decides every sharing outcome, and the frames say it: a
	// rider's deploy names its primary, a retract names each heir. A host
	// that cannot obey refuses and counts it (StatsMsg.RefusedShares).
	plane *control.Plane
	// ledger is every query's result-SIC bookkeeping — the per-query
	// coordinators, epochs and sample sums, shared with the engine
	// (coordinator.Ledger) and clocked by the run clock (at).
	ledger *coordinator.Ledger
	// deps remembers each live query's travelling descriptor (per-fragment
	// fields unset), from which recovery re-issues deploy frames.
	deps map[stream.QueryID]Deploy
	// epoch is the wall time the run began, zero before: the run's first
	// step sets it (begin), and nothing writes it again.
	epoch time.Time
	// hello announces the run — STW, interval, checkpoint cadence in
	// ticks — on every connection this controller dials; immutable.
	hello Hello

	hbTimeout time.Duration
	// lastSeen is, per node, when a step last applied a frame from it.
	lastSeen   []time.Time
	recoveries []RecoveryEvent
	// out holds, per node, the frames the current step sends it; detected
	// holds when each of the last len(detected) recoveries began. The
	// step's flush writes the first and stamps the second.
	out      []nodeOut
	detected []time.Time

	sicFn func(q stream.QueryID, now stream.Time, v float64)

	// shareEpoch pins share keys in time: every pre-Run submission shares
	// pin 0 (instances are cold until Start, so attaching is exact), while
	// each post-Start submission and each recovery mints a fresh one so
	// nothing attaches to an instance already mid-stream.
	shareEpoch int64

	// stats holds each node's first stats frame by node index, nil until
	// it arrives.
	stats []*StatsMsg

	// abort is the first failure the membership could not absorb: the
	// run ends with it, at once if it has begun, else when Run begins it.
	abort error
	// ended is set once CloseAll has run or the run has begun its stop
	// handshake. From then on, as once an abort ends a run that has begun,
	// every step is refused (step).
	ended bool

	// events carries what the read loops decode — each control frame and
	// the error that ends a connection — to the run loop, which applies
	// them once the run has begun (handle).
	events chan event
	// quit is closed once, by CloseAll or by shutdown: the read loops then
	// offer nothing more, and the run loop aborts the run. closed is closed
	// once the controller has shut down.
	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
	closed    chan struct{}
}

// event is what one node's connection told the controller: a control
// frame, a tick frame's pairs, or the error that ended the connection.
type event struct {
	node int
	env  *Envelope
	sic  []SICMsg
	err  error
}

// nodeOut is what the current step sends one node: JSON frames in queue
// order, then one SIC frame of the pairs, encoded into buf (nil if none).
type nodeOut struct {
	envs []*Envelope
	sic  []SICMsg
	buf  []byte
}

func (o *nodeOut) sicFrame() []byte {
	if len(o.sic) == 0 {
		return nil
	}
	o.buf = appendSICFrame(o.buf[:0], o.sic)
	return o.buf
}

// errClosed refuses a step once CloseAll has run, or once the run has
// ended or begun its stop handshake.
var errClosed = errors.New("transport: controller closed")

// stopTimeout bounds the stop handshake's wait for node stats.
const stopTimeout = 5 * time.Second

// eventQueue bounds the events waiting for the one goroutine that
// applies them: the controller's run loop, and each host's loop. The first
// stalls up to one write timeout per host that stops reading, a host's
// loop up to one per flush however many peers stop. A 2 s stall
// injected into the controller's run peaked at 1,051 queued frames on
// the benchmark's net_overload_24x48 with a checkpoint every tick and at
// 1,699 on net_churn_8x96. One injected into a host's loop peaked at
// 32–42 queued events on net_overload_24x48 (unstalled hosts: at most 8)
// and filled all 4,096 on net_wide_8x480 (5,734–6,000 with 16,384 slots;
// unstalled hosts: 382–749), which dropped the same tuples with either
// size (2 vCPUs; DESIGN.md §5), counting each result and SIC update as a
// frame before tick frames carried them. A full queue blocks only the
// read loops, whose frames then wait in the socket buffers.
const eventQueue = 4096

// RecoveryEvent records one survived node failure.
type RecoveryEvent struct {
	// Node is the address of the failed node.
	Node string
	// At is the run offset at which the failure was detected.
	At time.Duration
	// Queries lists the queries whose fragments were re-placed.
	Queries []stream.QueryID
	// Took measures the recovery from its start until its frames are
	// written: the end of the first flush pass that begins after it.
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
	// partition with no FIN). Zero defaults to max(2 × the write timeout,
	// 8×Interval), past a healthy host's stall on a peer that stopped
	// reading; negative disables it — connection errors still count.
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

// NewController connects to the given node addresses. It starts no
// goroutine but each connection's read loop: a verb applies its step on
// its caller's goroutine, and Run's goroutine is the run loop.
func NewController(cfg ControllerConfig, nodeAddrs []string) (*Controller, error) {
	if cfg.STW <= 0 {
		cfg.STW = 10 * stream.Second
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * stream.Millisecond
	}
	hb := cfg.HeartbeatTimeout
	if hb == 0 {
		hb = max(2*defaultWriteTimeout, 8*time.Duration(cfg.Interval)*time.Millisecond)
	}
	cadence := control.CheckpointTicks(stream.Duration(cfg.Checkpoint.Milliseconds()), cfg.Interval)
	if err := control.CheckRun(cfg.STW, cfg.Interval, cadence); err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	if _, err := control.NewPlacer(cfg.Placement, 1, cfg.Seed); err != nil {
		return nil, err
	}
	c := &Controller{
		plane:     control.New(control.Config{Placement: cfg.Placement, Seed: cfg.Seed, Sharing: cfg.Sharing}),
		ledger:    coordinator.NewLedger(cfg.STW, cfg.Interval, false),
		deps:      make(map[stream.QueryID]Deploy),
		hello:     Hello{STWMs: int64(cfg.STW), IntervalMs: int64(cfg.Interval), CheckpointTicks: cadence},
		hbTimeout: hb,
		events:    make(chan event, eventQueue),
		quit:      make(chan struct{}),
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

// step applies one step under mu at the clock reading of that moment and
// flushes the frames it queued. It returns the step's error, else the
// flush's. Once CloseAll has run, or the run has ended — an abort ends
// it — or begun its stop handshake, it refuses every step with errClosed.
func (c *Controller) step(apply func(now time.Time) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ended || (c.abort != nil && !c.epoch.IsZero()) {
		return errClosed
	}
	return cmp.Or(apply(time.Now()), c.flush())
}

// shutdown tears the controller down after its last step: every
// connection closes, and once every read loop has returned, closed does.
// Run calls it once the run has begun; before that, the first CloseAll.
func (c *Controller) shutdown() {
	c.closeOnce.Do(func() { close(c.quit) })
	for _, n := range c.nodes {
		n.Close()
	}
	c.wg.Wait()
	close(c.closed)
}

// AddNode dials a freshly started node server and joins it to the
// membership, returning its node index. Joined nodes become re-placement
// targets for failure recovery and enter the automatic placement pool
// for subsequent deploys. Joining is legal mid-run: the node is started
// and its reports are ingested immediately.
func (c *Controller) AddNode(addr string) (int, error) {
	// Once steps are refused, dial nothing: a fresh host builds its node
	// from the first hello that announces a run.
	if err := c.step(func(time.Time) error { return nil }); err != nil {
		return 0, err
	}
	cn, err := dial(addr, defaultWriteTimeout)
	if err != nil {
		return 0, err
	}
	if err := cn.send(&Envelope{Kind: KindHello, Hello: &c.hello}); err != nil {
		cn.Close()
		return 0, err
	}
	var idx int
	if err := c.step(func(now time.Time) error { idx = c.join(now, addr, cn); return nil }); err != nil {
		cn.Close()
		return 0, err
	}
	return idx, nil
}

// join is AddNode's step: the dialled node joins the membership and its
// read loop starts. A node joining a run that has begun is started now,
// at the run offset it aligns its logical clock by.
func (c *Controller) join(now time.Time, addr string, cn *conn) int {
	id := c.plane.Join()
	c.nodes = append(c.nodes, cn)
	c.addrs = append(c.addrs, addr)
	c.lastSeen = append(c.lastSeen, now)
	c.stats = append(c.stats, nil)
	c.out = append(c.out, nodeOut{})
	c.wg.Add(1)
	go c.readLoop(int(id), cn)
	if !c.epoch.IsZero() {
		c.queue(&Envelope{Kind: KindStart, Start: &Start{RunOffsetMs: int64(c.at(now))}}, id)
	}
	return int(id)
}

// NumNodes reports the number of connected node servers (dead ones
// included — indices are stable for the lifetime of the controller).
func (c *Controller) NumNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.nodes)
}

// CloseAll closes all node connections and waits until the controller
// has shut down, aborting a run in progress; every verb is refused from
// then on. Safe to call twice.
func (c *Controller) CloseAll() {
	c.mu.Lock()
	c.ended = true
	shut := false
	c.closeOnce.Do(func() { close(c.quit); shut = c.epoch.IsZero() })
	c.mu.Unlock()
	if shut { // no run loop to shut the controller down
		c.shutdown()
	}
	<-c.closed
}

// Shutdown stops the federation without running: a best-effort stop to
// every node followed by connection teardown. Run ends an aborted run the
// same way; CLI front-ends use it on error paths so background
// themis-node processes exit rather than leaking.
func (c *Controller) Shutdown() {
	c.step(func(time.Time) error { c.sendStops(); return nil })
	c.CloseAll()
}

// sendStops writes every node a stop, best effort: a node whose stop
// cannot be written is only cut off.
func (c *Controller) sendStops() {
	for _, n := range c.nodes {
		if n.send(&Envelope{Kind: KindStop}) != nil {
			n.Close()
		}
	}
}

// OnSIC registers a callback invoked once per query per broadcast
// interval with the coordinator's current result-SIC value. The callback
// runs on the run loop, inside a step: it must not call the controller's
// methods, which would wait for the mutex the step holds.
func (c *Controller) OnSIC(fn func(q stream.QueryID, now stream.Time, v float64)) {
	c.step(func(time.Time) error { c.sicFn = fn; return nil })
}

// AutoPlace assigns the given number of fragments to distinct live node
// indices using the configured placement strategy. The placer draws
// over the alive membership only; dead nodes never receive fragments.
func (c *Controller) AutoPlace(fragments int) ([]int, error) {
	var out []int
	err := c.step(func(time.Time) error {
		ids, err := c.plane.Place(fragments)
		for _, id := range ids {
			out = append(out, int(id))
		}
		return err
	})
	return out, err
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
// the host as a ride's primary. A rate or batches/s no host would run
// is refused here, before it costs a query id. A host whose deploy
// cannot be written is failed, and its fragment re-placed, before Submit
// returns.
func (c *Controller) Submit(cqlText string, fragments, dataset int, rate, batchesPerSec float64, placement []int) (q stream.QueryID, err error) {
	err = c.step(func(now time.Time) error {
		q, err = c.submit(now, cqlText, fragments, dataset, rate, batchesPerSec, placement)
		return err
	})
	return q, err
}

// submit is Submit's step.
func (c *Controller) submit(now time.Time, cqlText string, fragments, dataset int, rate, batchesPerSec float64, placement []int) (stream.QueryID, error) {
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
	// Plan locally first: reject malformed statements before any node
	// sees them. The plan cache makes repeat submissions of the same (or
	// same-shaped) text skip the parse and planning work entirely.
	plan, shape, err := c.plane.Plan(cqlText, fragments, sources.Dataset(dataset))
	if err != nil {
		return 0, err
	}
	pin := int64(0)
	if !c.epoch.IsZero() {
		c.shareEpoch++
		pin = c.shareEpoch
	}
	// Every networked query reads feed 0: same-shape queries monitor one
	// logical stream, as their engine twins submitted on feed 0 do.
	cq, cmds, err := c.plane.Submit(plan, shape, 0, rate, at, pin)
	if err != nil {
		return 0, err
	}
	q := cq.ID
	c.ledger.Open(q, c.at(now))
	c.deps[q] = Deploy{
		CQL: cqlText, Fragments: plan.NumFragments(), Dataset: dataset,
		Rate: rate, Batches: batchesPerSec,
	}
	peers := c.peers(cq.Placement)
	for _, cmd := range cmds {
		d := c.frame(cmd, peers)
		c.queue(&Envelope{Kind: KindDeploy, Deploy: &d}, cmd.Node)
	}
	return q, nil
}

// Retract tears a running query down mid-run: its hosts drop the
// fragments (and all per-query state) without pausing other queries,
// its coordinator deregisters from the dissemination loop, and every
// per-query controller record is freed. The query's mean SIC freezes at
// its current post-epoch value and still appears in the final results;
// surviving queries' accounting is untouched. A retract and a failure
// recovery are two steps, in one order or the other.
func (c *Controller) Retract(q stream.QueryID) error {
	return c.step(func(time.Time) error { return c.retract(q) })
}

// retract is Retract's step.
func (c *Controller) retract(q stream.QueryID) error {
	// The plane settles the teardown before the retract frames go out:
	// group membership shifts (including promotion of the next subscriber
	// to executing, which the frame names as the instance's heir) and the
	// emit invariant is re-derived over what remains.
	placement, promos, flips, ok := c.plane.Retract(q)
	if !ok {
		return fmt.Errorf("transport: retract: unknown query %d", q)
	}
	c.ledger.Close(q)
	delete(c.deps, q)
	heirs := make(map[stream.FragID]stream.QueryID, len(promos))
	for _, p := range promos {
		heirs[stream.FragID(p.Frag)] = p.NewQ
	}
	c.queue(&Envelope{Kind: KindRetract, Retract: &Retract{Query: q, Heirs: heirs}}, placement...)
	// Emit flips queue after the retracts: per-connection ordering then
	// guarantees a host sees the promotion (retract) before any flip that
	// depends on it.
	c.queueEmitFlips(flips)
	return nil
}

// peers renders a placement as the fragment → address map hosts route
// derived batches by.
func (c *Controller) peers(placement []stream.NodeID) map[stream.FragID]string {
	peers := make(map[stream.FragID]string, len(placement))
	for f, ni := range placement {
		peers[stream.FragID(f)] = c.addrs[ni]
	}
	return peers
}

// frame builds the Deploy frame for one of the plane's deploy commands:
// the query's recorded descriptor specialised for the fragment, with the
// plane's seed, share terms and state to restore. Every deploy and
// re-deploy frame is built here, and source seeds are pure functions of
// (query, fragment), so a re-deploy reconstructs the displaced fragment
// exactly.
func (c *Controller) frame(cmd control.Deploy, peers map[stream.FragID]string) Deploy {
	d := c.deps[cmd.Query]
	d.Query = cmd.Query
	d.Frag = stream.FragID(cmd.Frag)
	d.Peers = peers
	d.SourceSeed = cmd.Seed
	d.ShareKey, d.ShareEmit = cmd.ShareKey, cmd.Emit
	if cmd.Attach {
		d.Primary = &cmd.Primary
	}
	d.State = cmd.Restore
	return d
}

// queueEmitFlips queues the plane's emit flips as KindShareEmit frames.
func (c *Controller) queueEmitFlips(flips []control.EmitFlip) {
	for _, fl := range flips {
		c.queue(&Envelope{Kind: KindShareEmit, ShareEmit: &ShareEmitMsg{
			Query: fl.Query, Frag: stream.FragID(fl.Frag), Emit: fl.Emit,
		}}, fl.Node)
	}
}

// queue adds e to the frames this step sends each of nodes. A dead node
// gets none: recovery re-derives what it would have been told.
func (c *Controller) queue(e *Envelope, nodes ...stream.NodeID) {
	for _, ni := range nodes {
		if c.plane.Alive(ni) {
			c.out[ni].envs = append(c.out[ni].envs, e)
		}
	}
}

// flush ends every step: it writes each node's queued frames, then its SIC
// frame, back to back with one vectored write — one syscall per node
// however many queries the step told it about — and the failure of any
// write fails its node,
// like a read error or silence. A failure queues re-deploys, rewires and
// emit flips to other nodes, so the flush repeats until
// nothing is pending; a pass that queues more has failed a node, so the
// flush ends within the membership. A node that stopped reading stalls it
// for one write timeout. It returns the first failure the membership
// could not absorb. A recovery begun before a pass has all its frames
// written when the pass ends, which stamps how long it took.
func (c *Controller) flush() error {
	var err error
	for pending := true; pending; {
		pending = false
		begun := len(c.detected)
		for ni := range c.out {
			o := &c.out[ni]
			if len(o.envs) == 0 && len(o.sic) == 0 {
				continue
			}
			pending = true
			werr := c.nodes[ni].sendWith(o.envs, o.sicFrame())
			clear(o.envs)
			o.envs, o.sic = o.envs[:0], o.sic[:0]
			if werr != nil {
				// The write may have blocked for a whole write timeout,
				// which made the step's own time stale.
				err = cmp.Or(err, c.handleFailure(time.Now(), ni, werr))
			}
		}
		if begun > 0 {
			done := time.Now()
			rs := c.recoveries[len(c.recoveries)-len(c.detected):]
			for i, at := range c.detected[:begun] {
				rs[i].Took = done.Sub(at)
			}
			c.detected = append(c.detected[:0], c.detected[begun:]...)
		}
	}
	return err
}

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
// mid-run triggers recovery (handleFailure); only an unrecoverable
// failure (not enough survivors to host a query's fragments on distinct
// nodes) aborts the run. Run's first step begins the run; its goroutine
// is then the run loop, which applies frames and ticks as steps until
// the deadline and the stop handshake, or an abort, and shuts the
// controller down. A verb called from the stop handshake on is refused
// at once.
func (c *Controller) Run(duration, warmup time.Duration) (*NetResults, error) {
	began := false
	err := c.step(func(now time.Time) error {
		began = c.epoch.IsZero()
		return c.begin(now)
	})
	if !began {
		return nil, err
	}
	defer c.shutdown()
	ticker := time.NewTicker(time.Duration(c.hello.IntervalMs) * time.Millisecond)
	defer ticker.Stop()
	timer := time.NewTimer(duration) // the run's deadline, then the stop handshake's
	defer timer.Stop()
	wu := stream.Duration(warmup.Milliseconds())
	for err == nil {
		select {
		case <-c.quit:
			err = errClosed
		case ev := <-c.events:
			err = c.step(func(now time.Time) error { return c.handle(now, ev) })
		case <-ticker.C:
			err = c.step(func(now time.Time) error { return c.tick(now, wu) })
		case <-timer.C:
			// Failures that raced the deadline are still handled: a
			// recoverable one re-places fragments (the summary then reflects
			// the recovery), an unrecoverable one aborts rather than folding
			// a dead node's absence into a successful-looking summary.
			if err = c.step(c.drain); err == nil {
				timer.Reset(stopTimeout)
				c.stop(timer.C)
				return c.results(), nil
			}
		}
	}
	// The first failure the membership cannot absorb — this loop's, or a
	// verb's, which refuses the loop's next step — is the abort
	// (handleFailure); without one, CloseAll ended the run.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.abort != nil {
		c.sendStops()
		err = c.abort
	}
	return nil, fmt.Errorf("transport: run aborted: %w", err)
}

// begin is Run's step: the run clock starts at now, every node counts as
// heard from now, and every live node gets its Start. A failure a verb
// met before that the membership could not absorb aborts the run, and
// no node is started.
func (c *Controller) begin(now time.Time) error {
	if !c.epoch.IsZero() {
		return errors.New("transport: the run has begun already")
	}
	c.epoch = now
	if c.abort != nil {
		return c.abort
	}
	start := &Envelope{Kind: KindStart, Start: &Start{}}
	for i := range c.nodes {
		c.lastSeen[i] = now
		c.queue(start, stream.NodeID(i))
	}
	return nil
}

// stop is the stop handshake that ends a run: every step is refused from
// now on, every node is sent a stop, and the run loop waits for every
// surviving node's final stats frame (or the deadline), so the summary
// includes all node counters. The frames that arrive meanwhile apply
// under mu but not as steps: they queue nothing, so there is nothing to
// flush, and a connection ending now is teardown.
func (c *Controller) stop(deadline <-chan time.Time) {
	c.mu.Lock()
	c.ended = true
	c.sendStops()
	c.mu.Unlock()
	for c.awaitingStats() {
		select {
		case ev := <-c.events:
			if ev.err == nil {
				c.mu.Lock()
				c.handle(time.Now(), ev)
				c.mu.Unlock()
			}
		case <-deadline:
			return
		case <-c.quit:
			return
		}
	}
}

// handle applies one event from a node's connection at now. The error
// that ended the connection is a node failure. A frame refreshes the
// node's liveness, and applies only if the node serves what it speaks
// for: each result pair of a tick frame only from the host of the
// query's root, stamped with now on the ledger; a checkpoint only from
// the fragment's current host; and a node's first stats frame only.
func (c *Controller) handle(now time.Time, ev event) error {
	if ev.err != nil {
		err := ev.err
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
			err = fmt.Errorf("connection closed: %w", err)
		}
		return c.handleFailure(now, ev.node, err)
	}
	c.lastSeen[ev.node] = now
	for _, m := range ev.sic {
		if c.hosts(ev.node, m.Query, 0) { // fragment 0 is the root (query.Plan)
			c.ledger.Result(m.Query, c.at(now), m.Value)
		}
	}
	if ev.env == nil {
		return nil
	}
	switch e := ev.env; e.Kind {
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

// drain applies every event already queued, at now. Only the run loop
// receives from c.events, so a non-empty queue never blocks the receive.
func (c *Controller) drain(now time.Time) error {
	for len(c.events) > 0 {
		if err := c.handle(now, <-c.events); err != nil {
			return err
		}
	}
	return nil
}

// tick is the run's interval step. It applies every queued event first —
// frames waiting behind a slow recovery are not silence — then fails the
// nodes silent past the heartbeat timeout, and queues every live query's
// result SIC for its hosts, sampling it after warmup.
func (c *Controller) tick(now time.Time, warmup stream.Duration) error {
	if err := c.drain(now); err != nil {
		return err
	}
	// Started nodes beacon every tick, so a healthy connection is never
	// this quiet; a partitioned node's can look healthy indefinitely.
	for i, seen := range c.lastSeen {
		if c.hbTimeout > 0 && c.plane.Alive(stream.NodeID(i)) && now.Sub(seen) > c.hbTimeout {
			if err := c.handleFailure(now, i, errMissedHeartbeat); err != nil {
				return err
			}
		}
	}
	t := c.at(now)
	// The ledger walks the live queries in ascending id.
	c.ledger.Tick(t, warmup, func(q stream.QueryID, v float64) int {
		if c.sicFn != nil {
			c.sicFn(q, t, v)
		}
		hosts := c.plane.Query(q).Placement
		for _, ni := range hosts {
			if c.plane.Alive(ni) { // as queue: a dead node is told nothing
				c.out[ni].sic = append(c.out[ni].sic, SICMsg{Query: q, Value: v})
			}
		}
		return len(hosts)
	})
	return nil
}

// errMissedHeartbeat marks a node declared dead for silence rather than
// a connection error.
var errMissedHeartbeat = errors.New("missed heartbeats")

// handleFailure processes one node death detected at now: a read error
// (handle), silence (tick) or a failed write (flush). It returns an error,
// which becomes the run's abort unless an earlier one is, only when the
// run cannot continue. A failure of an already-dead node is ignored — the
// sources overlap, and closing the dead node's connection ends its read
// loop with one more error.
func (c *Controller) handleFailure(now time.Time, idx int, cause error) error {
	// The plane drops the node from the membership and clears its share
	// groups; the queries it names get their displaced fragments re-keyed
	// under a fresh recovery pin below.
	affected, ok := c.plane.Fail(stream.NodeID(idx))
	if !ok {
		return nil
	}
	c.nodes[idx].Close()   // sever, so a half-dead node stops feeding us results
	c.out[idx] = nodeOut{} // and drop what it was to be told
	c.shareEpoch++
	start := time.Now()
	restored := len(affected) > 0
	for _, q := range affected {
		warm, err := c.replaceFragments(q, c.shareEpoch)
		if err != nil {
			err = fmt.Errorf("node %s: %v: %w", c.addrs[idx], cause, err)
			c.abort = cmp.Or(c.abort, err)
			return err
		}
		restored = restored && warm
	}
	c.recoveries = append(c.recoveries, RecoveryEvent{
		Node: c.addrs[idx], At: time.Duration(c.at(now)) * time.Millisecond, Queries: affected, Restored: restored,
	})
	c.detected = append(c.detected, start)
	// Re-placement may have turned riders into private executors (or new
	// primaries into attach targets); restore the emit invariant over the
	// surviving topology.
	c.queueEmitFlips(c.plane.Sweep())
	return nil
}

// replaceFragments re-places query q's fragments that were hosted on the
// dead node: the plane picks replacement hosts (DESIGN.md §7) and settles
// their share terms under the recovery pin, the displaced fragments'
// re-deploys are queued there — each host re-plans the travelling CQL
// text, so the new host derives the exact fragment the dead one ran — and
// every surviving host's rewire to the new peer map.
func (c *Controller) replaceFragments(q stream.QueryID, pin int64) (restored bool, err error) {
	// With a blob banked for every displaced fragment the plane's verdict
	// is warm and its commands carry the state to restore, which ships in
	// each deploy; the query's SIC accounting then carries straight
	// through the failure. A stale or corrupt blob fails cleanly on the
	// node, which refills instead. Otherwise the accounting resets at this
	// recovery epoch (Ledger.ResetEpoch), so the reported mean describes
	// the post-recovery pipeline instead of blending two regimes.
	cmds, warm, err := c.plane.Replace(q, pin)
	if err != nil {
		return false, fmt.Errorf("transport: %w", err)
	}
	if !warm {
		c.ledger.ResetEpoch(q)
	}
	placement := c.plane.Query(q).Placement
	peers := c.peers(placement)
	// Re-deploy the displaced fragments. Their hosts already tick: every
	// member, spares included, has its Start queued ahead from begin or join.
	for _, cmd := range cmds {
		d := c.frame(cmd, peers)
		c.queue(&Envelope{Kind: KindDeploy, Deploy: &d}, cmd.Node)
	}
	// Rewire every surviving host of the query. The new hosts' deploys
	// already carried the updated peer map; the redundant rewire is
	// harmless and keeps the fan-out simple.
	c.queue(&Envelope{Kind: KindRewire, Rewire: &Rewire{Query: q, Peers: peers}}, placement...)
	return warm, nil
}

// readLoop decodes node idx's frames and offers each control frame and
// tick frame to the run loop, then the error that ends the connection.
// It touches no controller state, and once quit closes it offers nothing
// more. Batches are never routed through the controller and are dropped
// here.
func (c *Controller) readLoop(idx int, n *conn) {
	defer c.wg.Done()
	fr := newFrameReader(n.c)
	for {
		e, b, sic, err := fr.next()
		if b != nil {
			continue
		}
		select {
		case c.events <- event{idx, e, sic, err}:
		case <-c.quit:
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
	// its own epoch plus warmup. A query with no sample past its warmup
	// is listed at 0, Measured says which are, and MeanSIC and Jain leave
	// it out (coordinator.Ledger.Summary).
	PerQuery map[stream.QueryID]float64
	Measured map[stream.QueryID]bool
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
	res := &NetResults{
		PerQuery: make(map[stream.QueryID]float64, len(sum.Queries)),
		Measured: make(map[stream.QueryID]bool, len(sum.Queries)),
		MeanSIC:  sum.Mean, Jain: sum.Jain,
	}
	for i, q := range sum.Queries {
		res.PerQuery[q], res.Measured[q] = sum.Means[i], sum.Measured[i]
	}
	for _, st := range c.stats {
		if st != nil {
			res.Nodes = append(res.Nodes, *st)
		}
	}
	res.Recoveries = append(res.Recoveries, c.recoveries...)
	return res
}
