// Package federation implements the multi-site FSPS runtime: nodes
// belonging to autonomous sites, query deployment with per-fragment
// placement, a star-topology network with configurable link latency, and
// per-query coordinators disseminating result SIC values (§2, §5.2, §6).
//
// The engine advances virtual time in shedding-interval ticks. Each tick,
// sources emit into their host node's input buffer, every node runs its
// overload detector and shedder independently (site autonomy, C3), kept
// batches flow through the hosted fragment executors, derived batches
// travel to downstream fragments with link latency, and coordinators
// broadcast updated result SIC values that arrive one-or-more ticks later.
// This virtual-time design replaces the paper's Emulab testbed: the
// algorithm under study operates on tuple counts per interval and SIC
// values, both of which the simulation reproduces exactly, while a
// five-minute experiment runs in milliseconds (see DESIGN.md §3).
package federation

import (
	"fmt"
	"math/rand"

	"repro/internal/control"
	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/node"
	"repro/internal/query"
	"repro/internal/sources"
	"repro/internal/stream"
)

// Policy selects the shedding policy of every node in the deployment.
type Policy int

const (
	// PolicyBalanceSIC runs Algorithm 1 on every node.
	PolicyBalanceSIC Policy = iota
	// PolicyRandom runs the random-shedding baseline.
	PolicyRandom
	// PolicyKeepAll disables shedding (perfect-processing reference).
	PolicyKeepAll
)

// String names the policy as in the paper's figures.
func (p Policy) String() string {
	switch p {
	case PolicyBalanceSIC:
		return "BALANCE-SIC"
	case PolicyRandom:
		return "random"
	default:
		return "keep-all"
	}
}

// Sharing selects whether the engine deduplicates work across
// structurally identical CQL submissions. The modes are the control
// plane's; the names stay here for the drivers that configure an engine.
type Sharing = control.Sharing

const (
	SharingOff  = control.SharingOff
	SharingFull = control.SharingFull
)

// Config parameterises a federated deployment.
type Config struct {
	// Interval is the shedding interval; the evaluation uses 250 ms and
	// sweeps 25..250 ms in Fig. 9.
	Interval stream.Duration
	// STW is the source time window (10 s in the evaluation, §7).
	STW stream.Duration
	// Duration is the simulated run length; Warmup is excluded from all
	// reported statistics.
	Duration stream.Duration
	Warmup   stream.Duration
	// Policy selects the shedding policy.
	Policy Policy
	// DisableProjection turns off the §6 local-shedding projection
	// (ablation).
	DisableProjection bool
	// DisableMaxSIC turns off Algorithm 1's max(x_SIC) within-query
	// selection rule (ablation): batches are then chosen randomly within
	// a query.
	DisableMaxSIC bool
	// DisableUpdates stops coordinators from disseminating result SIC
	// values, reproducing the divergence of Figure 4's top half
	// (ablation).
	DisableUpdates bool
	// Latency is the one-way link latency between any two sites (star
	// topology; 5 ms on the Emulab LAN, 50 ms in the §7.4 WAN set-up).
	Latency stream.Duration
	// SourceRate and BatchesPerSec shape source emission (Table 2).
	SourceRate    float64
	BatchesPerSec float64
	// Burst enables bursty sources (§7.4).
	Burst *sources.BurstConfig
	// CostNoise is forwarded to nodes (relative std of simulated
	// processing-time observations).
	CostNoise float64
	// KeepSamples retains the per-tick SIC time series of every query in
	// the results (costs memory on large runs).
	KeepSamples bool
	// Churn schedules node kill/join events at given ticks — the
	// virtual-time mirror of the TCP transport's failure recovery, so a
	// networked run through membership churn can be checked against the
	// deterministic engine executing the same schedule.
	Churn []ChurnEvent
	// QueryChurn schedules query submit/retract events at given ticks —
	// the virtual-time mirror of Controller.Submit/Retract on the TCP
	// transport, so a networked run through a dynamic workload can be
	// checked against the deterministic engine executing the same
	// schedule. Events apply at the start of a step, after node churn
	// (a submission in the same tick as a kill places over the post-kill
	// membership, exactly as a controller submit after a detected
	// failure does).
	QueryChurn []QueryChurnEvent
	// Placement names the site-assignment strategy for submissions
	// without an explicit placement and for re-placement after a kill:
	// "round-robin" (default), "uniform" or "zipf" (control.Placer).
	Placement string
	// Sharing selects whether CQL submissions deduplicate fragments
	// (SharingFull) or run privately (SharingOff); their source streams are
	// the same either way.
	Sharing Sharing
	// Checkpoint is the operator-state checkpoint cadence in virtual time:
	// every Checkpoint the engine snapshots the window and accumulator
	// state of every live fragment, and KillNode restores displaced
	// fragments from the newest compatible snapshot instead of refilling
	// their windows over a full STW. Zero disables checkpointing (the
	// legacy empty-window recovery). Sub-interval values clamp to one
	// checkpoint per tick.
	Checkpoint stream.Duration
	// Seed drives all randomness in the deployment.
	Seed int64
}

// ChurnEvent is one scheduled membership change. Joins apply before
// kills within the same event, so a replacement node announced together
// with a failure is eligible to adopt the displaced fragments.
type ChurnEvent struct {
	// Tick is the engine tick at whose start the event applies.
	Tick int64
	// Join adds this many fresh nodes with JoinCapacity tuples/sec.
	Join         int
	JoinCapacity float64
	// Kill fails the named nodes: their hosted fragments are re-placed
	// on surviving nodes exactly as the transport controller re-places
	// them (fresh executor state, SIC accounting reset at the recovery
	// epoch); a query with too few survivors departs instead.
	Kill []stream.NodeID
}

// QueryChurnEvent is one scheduled workload change. Retracts apply
// before submits within the same event, so a replacement query arriving
// together with a departure may reuse the departed query's nodes (one
// query's fragments must land on distinct nodes, §3).
type QueryChurnEvent struct {
	// Tick is the engine tick at whose start the event applies.
	Tick int64
	// Submit deploys these queries onto the live membership.
	Submit []QuerySubmit
	// Retract undeploys the named queries (ids as returned by
	// DeployQuery/SubmitCQL in submission order, starting at 0).
	Retract []stream.QueryID
}

// QuerySubmit describes one scheduled query submission: the CQL text is
// planned with cql.PlanDistributed — exactly as every transport host
// re-plans a travelling statement — and placed over the live membership.
type QuerySubmit struct {
	// CQL is the statement text (Table 1 syntax).
	CQL string
	// Fragments partitions the plan (1 = single-fragment).
	Fragments int
	// Dataset selects the source distribution (sources.Dataset).
	Dataset int
	// Rate overrides Config.SourceRate for this query when positive.
	Rate float64
	// Placement pins the fragments to these nodes; nil uses the
	// engine's Config.Placement strategy over the live membership.
	Placement []stream.NodeID
}

// Defaults returns the evaluation's base configuration (§7): 250 ms
// shedding interval, 10 s STW, Emulab-style source rates.
func Defaults() Config {
	return Config{
		Interval:      250 * stream.Millisecond,
		STW:           10 * stream.Second,
		Duration:      60 * stream.Second,
		Warmup:        15 * stream.Second,
		Policy:        PolicyBalanceSIC,
		Latency:       5 * stream.Millisecond,
		SourceRate:    150,
		BatchesPerSec: 3,
		CostNoise:     0.05,
		Seed:          1,
	}
}

// delivery is an in-transit batch.
type delivery struct {
	from stream.NodeID
	to   stream.NodeID
	b    *stream.Batch
}

// sicUpdate is an in-transit coordinator message.
type sicUpdate struct {
	to stream.NodeID
	q  stream.QueryID
	v  float64
}

// queryRT is the engine-side runtime state of one deployed query: where
// it runs and what it shares is the control plane's record, its result
// SIC the ledger's.
type queryRT struct {
	// ctl is the plane's record (plan, rate, shape, fragment → node
	// placement). The plane rewrites ctl.Placement in place when failure
	// recovery re-places fragments; the pointer outlives the retract so
	// the frozen statistics keep their plan.
	ctl      *control.Query
	resultFn func(now stream.Time, tuples []stream.Tuple)
}

// Engine is a running federated deployment.
type Engine struct {
	cfg Config
	rng *rand.Rand
	// plane decides placement, re-placement and sharing (membership, the
	// auto-placer, the plan cache, the share index); the engine applies
	// its commands to nodes and holds it against what the nodes then
	// report (placeFragment, RemoveQuery).
	plane *control.Plane
	nodes []*node.Node
	// ledger owns every query's result-SIC bookkeeping (coordinator,
	// epoch, samples); queries is indexed by the plane's dense query ids
	// and keeps retracted entries for the final report.
	ledger  *coordinator.Ledger
	queries []queryRT

	// pool recycles every batch in the deployment: sources and fragment
	// emissions draw from it, and the engine releases batches after
	// delivery (or drop). One pool spans all nodes because batches cross
	// nodes — a batch released at its destination must be reusable by
	// any source.
	pool *stream.Pool

	tick int64
	// transitRing and updateRing schedule in-flight batches and
	// coordinator updates by delivery tick: slot tick%len holds the
	// traffic due at that tick. Ring slices are truncated and reused, so
	// the steady-state exchange never allocates (the delivery delay is
	// bounded by the link latency, fixed at construction).
	transitRing [][]delivery
	updateRing  [][]sicUpdate

	// skippedSubmits and skippedRetracts count scheduled events the
	// engine could not apply (bad CQL, too few live nodes, unknown
	// query id) — schedule errors cannot surface from Step, so tests
	// assert these stay zero. The networked controller surfaces the
	// same mistakes as Submit/Retract errors.
	skippedSubmits  int
	skippedRetracts int

	// Checkpoint schedule (see checkpoint.go): ckptEvery is the cadence in
	// ticks (0 = off), ckptEnc the one reused encoder. The snapshots
	// themselves are banked in the plane.
	ckptEvery int64
	ckptEnc   stream.SnapEncoder

	nextSource stream.SourceID
}

// NewEngine builds an engine from the config.
func NewEngine(cfg Config) *Engine {
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * stream.Millisecond
	}
	if cfg.STW <= 0 {
		cfg.STW = 10 * stream.Second
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 60 * stream.Second
	}
	if cfg.SourceRate <= 0 {
		cfg.SourceRate = 150
	}
	if cfg.BatchesPerSec <= 0 {
		cfg.BatchesPerSec = 3
	}
	e := &Engine{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		plane:  control.New(control.Config{Placement: cfg.Placement, Seed: cfg.Seed, Sharing: cfg.Sharing}),
		pool:   stream.NewPool(),
		ledger: coordinator.NewLedger(cfg.STW, cfg.Interval, cfg.KeepSamples),
	}
	if cfg.Checkpoint > 0 {
		e.ckptEvery = int64(cfg.Checkpoint / cfg.Interval)
		if e.ckptEvery < 1 {
			e.ckptEvery = 1
		}
	}
	// Ring length covers the longest possible delivery delay (the link
	// latency in ticks) plus the current tick's drain slot.
	ringLen := e.latencyTicks() + 1
	e.transitRing = make([][]delivery, ringLen)
	e.updateRing = make([][]sicUpdate, ringLen)
	return e
}

// Pool returns the deployment's shared batch pool (tests use it to
// assert leak-freedom).
func (e *Engine) Pool() *stream.Pool { return e.pool }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// newShedder builds the per-node shedder for the configured policy. The
// seed is drawn unconditionally so that engines differing only in policy
// consume identical random sequences — the §7.1 correlation experiments
// depend on degraded and perfect-reference runs seeing identical source
// data.
func (e *Engine) newShedder() core.Shedder {
	seed := e.rng.Int63()
	switch e.cfg.Policy {
	case PolicyRandom:
		return core.NewRandom(seed)
	case PolicyKeepAll:
		return &core.KeepAll{}
	default:
		s := core.NewBalanceSIC(seed)
		s.Projection = !e.cfg.DisableProjection
		s.SelectHighest = !e.cfg.DisableMaxSIC
		return s
	}
}

// AddNode adds a processing node with the given true capacity in tuples
// per second and returns its id.
func (e *Engine) AddNode(capacityPerSec float64) stream.NodeID {
	id := stream.NodeID(len(e.nodes))
	n := node.New(id, node.Config{
		Interval:       e.cfg.Interval,
		STW:            e.cfg.STW,
		CapacityPerSec: capacityPerSec,
		CostNoise:      e.cfg.CostNoise,
		Pool:           e.pool,
		Seed:           e.rng.Int63(),
	}, e.newShedder())
	e.nodes = append(e.nodes, n)
	e.plane.Join()
	return id
}

// AddNodes adds n identical nodes.
func (e *Engine) AddNodes(n int, capacityPerSec float64) []stream.NodeID {
	ids := make([]stream.NodeID, n)
	for i := range ids {
		ids[i] = e.AddNode(capacityPerSec)
	}
	return ids
}

// NumNodes reports the node count.
func (e *Engine) NumNodes() int { return len(e.nodes) }

// Node returns a node by id (for tests and tooling).
func (e *Engine) Node(id stream.NodeID) *node.Node { return e.nodes[id] }

// DeployQuery instantiates the plan's fragments on the given placement
// (one node per fragment; fragments of one query must land on distinct
// nodes, §3) and attaches its sources. rate overrides the config's
// per-source tuple rate when positive. It returns the new query id.
func (e *Engine) DeployQuery(plan *query.Plan, placement []stream.NodeID, rate float64) (stream.QueryID, error) {
	return e.deployShaped(plan, placement, rate, "")
}

// deployShaped is DeployQuery carrying the statement's structural shape
// key, which CQL submissions thread through so structural seeding and
// fragment dedup can recognise structurally identical queries. Directly
// deployed plans have no shape ("") and always run private. A nil
// placement asks the plane for the configured strategy's.
func (e *Engine) deployShaped(plan *query.Plan, placement []stream.NodeID, rate float64, shapeKey string) (stream.QueryID, error) {
	if rate <= 0 {
		rate = e.cfg.SourceRate
	}
	cq, cmds, err := e.plane.Submit(plan, shapeKey, rate, placement, e.tick)
	if err != nil {
		return 0, err
	}
	for _, d := range cmds {
		e.placeFragment(cq, d)
	}
	// Plane ids are dense and assigned in submission order: the new query's
	// id is its index here and in the ledger.
	e.queries = append(e.queries, queryRT{ctl: cq})
	e.ledger.Open(cq.ID, e.now())
	return cq.ID, nil
}

// RemoveQuery undeploys a running query: its fragments leave their host
// nodes (freeing capacity for the remaining queries at the next shedding
// round), its coordinator stops broadcasting, and its statistics freeze
// at their current values. In-flight batches of the query are dropped on
// delivery. All per-query runtime state is released (Ledger.Close keeps
// only the scalars behind the query's reported mean and the opt-in
// KeepSamples series), so a long-lived federation absorbing arrivals and
// departures does not grow without bound.
// It reports whether a live query was actually removed; unknown or
// already-removed ids are a no-op.
func (e *Engine) RemoveQuery(q stream.QueryID) bool {
	if !e.ledger.Close(q) {
		return false
	}
	e.queries[q].resultFn = nil
	placement, promos, flips, _ := e.plane.Retract(q)
	for fi, nd := range placement {
		e.nodes[nd].RemoveFragment(q, stream.FragID(fi))
	}
	// The departed query may have owned shared instances: each host
	// promoted them to their first subscriber, and the instances' output
	// already in transit belongs to the survivor's pipeline. Re-address it,
	// or the promoted query would lose exactly the in-flight batches — a
	// divergence from its private (SharingOff) execution, which keeps
	// its own in-flight batches across another query's retract. The hosts
	// must report exactly the hand-offs the plane predicted; on a dead node
	// (a query retired by KillNode) they are moot.
	for _, nd := range placement {
		if !e.plane.Alive(nd) {
			continue
		}
		for _, p := range e.nodes[nd].TakePromotions() {
			if len(promos) == 0 || promos[0] != (control.Promotion{Node: nd, OldQ: p.OldQ, NewQ: p.NewQ, Frag: int(p.Frag)}) {
				mirrorFault("node %d handed query %d's fragment %d to query %d, plane predicted %v", nd, p.OldQ, p.Frag, p.NewQ, promos)
			}
			promos = promos[1:]
			e.relabelTransit(p)
		}
	}
	if len(promos) != 0 {
		mirrorFault("no node performed the predicted hand-offs %v", promos)
	}
	// The departing query may have owned shared instances whose
	// subscribers were just promoted; their fan-out boundaries moved.
	e.applyFlips(flips)
	return true
}

// mirrorFault reports a host outcome the control plane did not predict.
// Hosts and plane decide by the same arrival-order rules, so only a bug
// in one of them gets here; every sharing test thereby checks the mirror.
func mirrorFault(format string, args ...any) {
	panic(fmt.Sprintf("federation: share index diverged from host: "+format, args...))
}

// applyFlips delivers the plane's emit flips to the hosting nodes.
func (e *Engine) applyFlips(flips []control.EmitFlip) {
	for _, f := range flips {
		e.nodes[f.Node].SetSubEmit(f.Query, stream.FragID(f.Frag), f.Emit)
	}
}

// OnResult registers a callback receiving every result batch of a query —
// the user's continuous feedback channel, also used by the correlation
// experiments to capture result values. The tuple slice is only valid
// during the callback: result batches are pooled and recycled right
// after delivery, so callbacks copy whatever they keep (DESIGN.md §9).
// Callbacks fire in ascending order of the node hosting the query's root
// fragment, each right after that node's tick — that is, between the
// node ticks of one Step, not after the last of them.
func (e *Engine) OnResult(q stream.QueryID, fn func(now stream.Time, tuples []stream.Tuple)) {
	e.queries[q].resultFn = fn
}

// --- outbox effect application (drainOutbox) ---

// latencyTicks converts the link latency into a delivery delay in ticks:
// a batch emitted at the end of tick k is available at the destination
// for tick k+1+floor(latency/interval).
func (e *Engine) latencyTicks() int64 {
	return 1 + int64(e.cfg.Latency)/int64(e.cfg.Interval)
}

// routeDownstream schedules a derived batch for delivery to the node
// hosting the destination fragment, taking ownership: a batch with no
// live destination is recycled on the spot.
func (e *Engine) routeDownstream(from stream.NodeID, b *stream.Batch) {
	if !e.ledger.Live(b.Query) || int(b.Frag) >= len(e.queries[b.Query].ctl.Placement) {
		b.Release()
		return
	}
	dest := e.queries[b.Query].ctl.Placement[b.Frag]
	delay := int64(1) // local hand-off still waits for the next tick
	if dest != from {
		delay = e.latencyTicks()
	}
	slot := (e.tick + delay) % int64(len(e.transitRing))
	e.transitRing[slot] = append(e.transitRing[slot], delivery{from: from, to: dest, b: b})
}

// deliverResult accumulates result SIC reaching a root fragment and feeds
// the query's coordinator and user callback. The tuples are only
// borrowed: callbacks that retain them (or their payloads) must copy.
// total is the delivering batch's header SIC, the batch's tuple-SIC sum
// computed once where the batch was made, so it is not summed again here.
func (e *Engine) deliverResult(q stream.QueryID, now stream.Time, tuples []stream.Tuple, total float64) {
	if !e.ledger.Result(q, now, total) {
		return
	}
	if fn := e.queries[q].resultFn; fn != nil {
		fn(now, tuples)
	}
}

// --- membership churn ---

// applyChurn executes the scheduled membership events due at the current
// tick: joins first (so announced replacements can adopt fragments),
// then kills.
func (e *Engine) applyChurn() {
	for _, ev := range e.cfg.Churn {
		if ev.Tick != e.tick {
			continue
		}
		for j := 0; j < ev.Join; j++ {
			speed := ev.JoinCapacity
			if speed <= 0 {
				speed = 1000
			}
			e.AddNode(speed)
		}
		for _, id := range ev.Kill {
			e.KillNode(id)
		}
	}
}

// KillNode fails a node mid-run — the controller's failure recovery in
// virtual time: every query fragment the node hosted is re-placed by the
// plane's one rule (the configured strategy over the surviving nodes not
// already hosting the query, DESIGN.md §7), with a fresh executor and
// fresh sources. Without checkpointing, operator window state dies with
// the node, exactly as in a real crash, and the affected queries' SIC
// accounting resets at this recovery epoch (Ledger.ResetEpoch) — their
// statistics describe the post-recovery pipeline. With Config.Checkpoint
// set, each displaced fragment is restored from the newest compatible
// snapshot instead; when every displaced fragment of a query restores,
// the epoch reset is skipped and the query's surviving accumulators
// carry straight through the failure (checkpoint.go). A query that
// cannot be re-placed (too few survivors) departs. Batches in transit
// to the dead node are dropped on delivery and counted against the
// sender's dropped-SIC stats.
func (e *Engine) KillNode(id stream.NodeID) {
	affected, ok := e.plane.Fail(id)
	if !ok {
		return
	}
	// The dead node never ticks again: recycle whatever sat in its input
	// buffer so the pool's leak accounting stays exact.
	e.nodes[id].ReleaseBuffers()
	for _, qid := range affected {
		cmds, warm, err := e.plane.Replace(qid, e.tick)
		if err != nil {
			// Unrecoverable for this query: not enough distinct survivors.
			// The federation keeps running without it (the TCP controller
			// aborts here instead — it owes the user an answer).
			e.RemoveQuery(qid)
			continue
		}
		// A warm verdict carries, on each hosting command, the banked state
		// to restore (control.Plane.Replace; never without checkpointing —
		// the bank is then empty). A restore the node refuses (stale or
		// downgraded blob) turns the whole query cold, as a missing record
		// would have.
		for _, d := range cmds {
			e.nodes[id].RemoveFragment(qid, stream.FragID(d.Frag))
			e.placeFragment(e.queries[qid].ctl, d)
			if warm && d.Restore != nil && e.nodes[d.Node].RestoreState(qid, stream.FragID(d.Frag), d.Restore) != nil {
				warm = false
			}
		}
		if !warm {
			// Recovery epoch: measured SIC and per-run samples restart so
			// the post-recovery pipeline is measured cleanly.
			e.ledger.ResetEpoch(qid)
		}
	}
	// Re-placement changed which fragments execute privately (a displaced
	// rider that found no same-tick sharer now runs its own executor and
	// needs the views its upstream subscriptions previously suppressed).
	e.applyFlips(e.plane.Sweep())
	// Hand-offs on the dead node are moot — its instances are being
	// re-placed, and batches in transit to it drop on delivery either way.
	e.nodes[id].TakePromotions()
}

// relabelTransit re-addresses in-flight batches after a shared-instance
// promotion: output the instance emitted under its old owner's identity
// — batches bound for (OldQ, Downstream) — now belongs to the promoted
// query, whose downstream fragment rides (or owns) the same consumer on
// the same node, so only the label changes.
func (e *Engine) relabelTransit(p node.Promotion) {
	if p.Downstream < 0 {
		return
	}
	for _, slot := range e.transitRing {
		for _, d := range slot {
			if d.b.Query == p.OldQ && d.b.Frag == p.Downstream {
				d.b.Query = p.NewQ
			}
		}
	}
}

// placeFragment applies one of the plane's deploy commands: the fragment
// attaches to, or is hosted on, the commanded node (node.Deploy). Both
// the initial deploy and failure recovery go through here. A CQL
// submission has a shape, and its sources are seeded from it, so
// structurally identical queries observe identical source data (the
// production semantics — many dashboards over one metric feed) and,
// crucially, consume nothing from e.rng: a deduplicated deployment
// (SharingFull) and a private one (SharingOff) keep the engine's random
// state — and therefore everything downstream of it — bit-identical, and
// draw what the networked controller's hosts draw. Shapeless plans
// (DeployQuery) draw from e.rng in submission order, which is what the
// paper figures are pinned to.
func (e *Engine) placeFragment(cq *control.Query, d control.Deploy) {
	spec := node.FragmentSpec{
		Query: cq.ID, Frag: stream.FragID(d.Frag), Plan: cq.Plan,
		Rate: cq.Rate, Batches: e.cfg.BatchesPerSec, Burst: e.cfg.Burst,
		FirstSource: e.nextSource, Seed: d.Seed,
		ShareKey: d.ShareKey, Emit: d.Emit,
	}
	if cq.Shape == "" {
		spec.Seeds = e.rng
	}
	attached := e.nodes[d.Node].Deploy(spec)
	if attached != d.Attach {
		mirrorFault("query %d fragment %d on node %d: attached=%v, plane predicted %v", cq.ID, d.Frag, d.Node, attached, d.Attach)
	}
	if !attached {
		e.nextSource += stream.SourceID(len(cq.Plan.Fragments[d.Frag].Sources))
	}
}

// --- query churn ---

// applyQueryChurn executes the scheduled workload events due at the
// current tick: retracts first (freeing nodes for arrivals), then
// submits. A submission that cannot be applied (malformed CQL, too few
// live nodes for distinct placement) is skipped and counted — Step has
// no error channel.
func (e *Engine) applyQueryChurn() {
	for _, ev := range e.cfg.QueryChurn {
		if ev.Tick != e.tick {
			continue
		}
		for _, q := range ev.Retract {
			if !e.RemoveQuery(q) {
				e.skippedRetracts++
			}
		}
		for _, sub := range ev.Submit {
			if _, err := e.SubmitCQL(sub.CQL, sub.Fragments, sub.Dataset, sub.Rate, sub.Placement); err != nil {
				e.skippedSubmits++
			}
		}
	}
}

// SubmitCQL plans a CQL statement with cql.PlanDistributed — the same
// deterministic planner every transport host runs on a travelling
// statement — places its fragments (explicitly, or with the configured
// Placement strategy over the live membership) and deploys it onto the
// running federation. It is the virtual-time twin of Controller.Submit:
// queries are first-class runtime citizens that may arrive at any tick.
func (e *Engine) SubmitCQL(cqlText string, fragments, dataset int, rate float64, placement []stream.NodeID) (stream.QueryID, error) {
	if fragments < 1 {
		fragments = 1
	}
	// The plan cache short-circuits the whole lex/parse/plan pipeline for
	// repeated text, and re-planning for merely re-spelled statements.
	plan, shapeKey, err := e.plane.Plan(cqlText, fragments, sources.Dataset(dataset))
	if err != nil {
		return 0, err
	}
	return e.deployShaped(plan, placement, rate, shapeKey)
}

// PlanCacheStats reports the submit-path plan cache counters.
func (e *Engine) PlanCacheStats() cql.PlanCacheStats { return e.plane.PlanCacheStats() }

// SkippedSubmits reports how many scheduled QueryChurn submissions
// could not be applied.
func (e *Engine) SkippedSubmits() int { return e.skippedSubmits }

// SkippedRetracts reports how many scheduled QueryChurn retracts named
// a query that was not live.
func (e *Engine) SkippedRetracts() int { return e.skippedRetracts }

// NodeAlive reports whether a node is still part of the membership.
func (e *Engine) NodeAlive(id stream.NodeID) bool { return e.plane.Alive(id) }

// Placement returns a copy of a query's current fragment→node
// assignment (it changes when failure recovery re-places fragments).
func (e *Engine) Placement(q stream.QueryID) []stream.NodeID {
	if q < 0 || int(q) >= len(e.queries) {
		return nil
	}
	return append([]stream.NodeID(nil), e.queries[q].ctl.Placement...)
}

// CurrentSIC reports a query's sliding measured result SIC at the
// engine's current virtual time — the per-tick observable the churn
// experiments track through kill and recovery.
func (e *Engine) CurrentSIC(q stream.QueryID) float64 {
	return e.ledger.Measured(q, e.now())
}

// now is the engine's virtual time at the start of the current tick.
func (e *Engine) now() stream.Time { return stream.Time(e.tick * int64(e.cfg.Interval)) }

// --- run loop ---

// drainOutbox applies the effects a node's tick left in its outbox: root
// results reach the ledger and callbacks, and derived batches enter the
// in-transit schedule.
func (e *Engine) drainOutbox(n *node.Node) {
	out := n.TakeOutbox()
	for _, r := range out.Results {
		e.deliverResult(r.Query, r.Now, r.Batch.Tuples, r.Batch.SIC)
		r.Batch.Release()
	}
	for _, b := range out.Downstream {
		e.routeDownstream(n.ID(), b)
	}
}

// Step advances the federation by one shedding interval: due traffic is
// delivered, then every live node, in ascending node-ID order, ticks and
// has its outbox drained. Nothing drained in tick k is readable by any
// node before tick k+1 — derived batches are scheduled at tick + delay
// (delay ≥ 1), SIC updates travel through updateRing — so a node's tick
// never depends on its position in the loop (DESIGN.md §4).
func (e *Engine) Step() {
	e.applyChurn()
	e.applyQueryChurn()
	t := e.now()
	// Deliver in-transit batches and coordinator updates due this tick.
	// Batches bound for a node that died while they were in flight are
	// dropped (and recycled) — their pre-credited SIC mass is lost in the
	// same window a real deployment loses it, and the sender's stats
	// record the drop.
	slot := e.tick % int64(len(e.transitRing))
	due := e.transitRing[slot]
	for i, d := range due {
		if !e.plane.Alive(d.to) {
			if e.plane.Alive(d.from) {
				e.nodes[d.from].NoteDropped(d.b.Len(), d.b.SIC)
			}
			d.b.Release()
		} else {
			e.nodes[d.to].Enqueue(d.b, t)
		}
		due[i].b = nil
	}
	e.transitRing[slot] = due[:0]
	for _, u := range e.updateRing[slot] {
		if !e.plane.Alive(u.to) {
			continue
		}
		e.nodes[u.to].SetResultSIC(u.q, u.v)
	}
	e.updateRing[slot] = e.updateRing[slot][:0]

	for i, n := range e.nodes {
		if e.plane.Alive(stream.NodeID(i)) {
			n.Tick(t)
			e.drainOutbox(n)
		}
	}
	now := t.Add(e.cfg.Interval)

	// The ledger closes the tick: coordinators broadcast updated result SIC
	// values to all fragment hosts, arriving after the link latency (§6:
	// "sent at regular intervals to all query fragments"), and each query
	// past its own warm-up samples its measured result SIC.
	var send func(q stream.QueryID, v float64) int
	if !e.cfg.DisableUpdates {
		slot := (e.tick + e.latencyTicks()) % int64(len(e.updateRing))
		send = func(q stream.QueryID, v float64) int {
			hosts := e.queries[q].ctl.Placement
			for _, nd := range hosts {
				e.updateRing[slot] = append(e.updateRing[slot], sicUpdate{to: nd, q: q, v: v})
			}
			return len(hosts)
		}
	}
	e.ledger.Tick(now, e.cfg.Warmup, send)
	// Checkpoint the end-of-tick operator state on the configured virtual
	// time cadence. Snapshots are read-only against node state, so a run
	// with checkpointing on is bit-identical to one with it off until the
	// first restore.
	if e.ckptEvery > 0 && (e.tick+1)%e.ckptEvery == 0 {
		e.checkpointTick()
	}
	e.tick++
}

// Run executes the configured duration and returns the results.
func (e *Engine) Run() *Results {
	ticks := int64(e.cfg.Duration) / int64(e.cfg.Interval)
	for i := int64(0); i < ticks; i++ {
		e.Step()
	}
	return e.Results()
}

// QueryResult summarises one query after a run.
type QueryResult struct {
	ID        stream.QueryID
	Type      string
	Fragments int
	// MeanSIC is the time-averaged measured result SIC over the STW
	// (Eq. 4), the quantity the paper's figures plot.
	MeanSIC float64
	// Samples holds the per-tick SIC series when Config.KeepSamples is
	// set.
	Samples []float64
}

// Results summarises a run.
type Results struct {
	Policy  Policy
	Queries []QueryResult
	// MeanSIC, Jain and StdSIC are computed over the per-query mean SIC
	// values, as in Figs. 8-14.
	MeanSIC float64
	Jain    float64
	StdSIC  float64
	// Nodes carries per-node shedding counters.
	Nodes []node.Stats
	// SelectNanosPerInvocation is the average wall-clock time one
	// shedder invocation took (§7.6).
	SelectNanosPerInvocation float64
	// CoordinatorMessages and CoordinatorBytes total the dissemination
	// traffic (§7.6).
	CoordinatorMessages int64
	CoordinatorBytes    int64
}

// Results assembles the current statistics without advancing time.
func (e *Engine) Results() *Results {
	sum := e.ledger.Summary()
	res := &Results{
		Policy: e.cfg.Policy, MeanSIC: sum.Mean, Jain: sum.Jain, StdSIC: sum.Std,
		CoordinatorMessages: e.ledger.UpdateMessages(), CoordinatorBytes: e.ledger.UpdateBytes(),
	}
	for i, qid := range sum.Queries {
		cq := e.queries[qid].ctl
		res.Queries = append(res.Queries, QueryResult{
			ID:        qid,
			Type:      cq.Plan.Type,
			Fragments: cq.Plan.NumFragments(),
			MeanSIC:   sum.Means[i],
			Samples:   e.ledger.Samples(qid),
		})
	}
	var selN, selT int64
	for _, n := range e.nodes {
		st := n.Stats()
		res.Nodes = append(res.Nodes, st)
		selN += st.ShedInvocations
		selT += st.SelectNanos
	}
	if selN > 0 {
		res.SelectNanosPerInvocation = float64(selT) / float64(selN)
	}
	return res
}
