// Package node implements a single THEMIS node (Figure 5): an input
// buffer holding incoming batches, an overload detector driven by the
// online cost model, a pluggable tuple shedder, and the threads executing
// the node's hosted query fragments.
//
// The node is deliberately unaware of the rest of the federation: it
// receives batches, coordinator updates and a clock, and it writes its
// effects — derived batches and root results — into a
// per-node Outbox. Both the in-process federation simulator and the TCP
// transport drive nodes through this same interface, so the shedding code
// under test is the code a real deployment runs. Because a ticking node
// touches only its own state, drivers may tick many nodes concurrently
// and drain their outboxes afterwards in a deterministic order.
//
// Memory model (DESIGN.md §9): the node owns every batch in its input
// buffer. A local source batch enters the buffer as a header-only pool
// draw and becomes a real pooled batch only if the shedder keeps it, just
// before it is pushed; remote batches arrive via Enqueue already
// pool-backed. A kept batch whose fragment consumes it on push is
// released right after the push, so the next batch drawn reuses its
// storage while it is still in cache; every other input batch, shed or
// kept, is released at the end of the tick, after the hosted fragments
// have ticked and copied what they retain. Fragment emissions are copied
// into fresh pooled batches whose ownership passes to the driver with
// the outbox.
package node

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/query"
	"repro/internal/sic"
	"repro/internal/sources"
	"repro/internal/stream"
)

// DefaultCostNoise is the relative noise on the simulated processing
// times the cost model observes: the engine's default and every TCP
// host's, so a networked run and its engine replay see the same noise.
const DefaultCostNoise = 0.05

// Config parameterises a node.
type Config struct {
	// Interval is the shedding interval (§6; 250 ms in the evaluation).
	Interval stream.Duration
	// STW is the source time window duration (10 s in the evaluation).
	STW stream.Duration
	// CapacityPerSec is the node's true processing speed in tuples per
	// second. The node never reads it directly — it drives the simulated
	// processing times the cost model observes — so heterogeneous and
	// drifting capacities are handled exactly as in the paper.
	CapacityPerSec float64
	// CostNoise is the relative standard deviation of simulated per-tick
	// processing times (DefaultCostNoise in both runtimes; zero is none).
	CostNoise float64
	// Pool recycles the node's batches. Drivers that move batches between
	// nodes (the federation engine) share one pool across nodes so a
	// batch released at its destination is reusable anywhere; nil gives
	// the node a private pool.
	Pool *stream.Pool
	// Seed drives the node's noise generator.
	Seed int64
}

// fragKey identifies a hosted fragment.
type fragKey struct {
	q stream.QueryID
	f stream.FragID
}

// fanSub is one subscriber of a shared fragment instance: a query whose
// identical fragment — the same fragment index, which every share key
// pins — was deduplicated onto the instance. The shared
// instance executes once; its output fans out as one retained view per
// subscriber, addressed to the subscriber's own downstream fragment, so
// each subscriber's result stream carries exactly the SIC its private
// pipeline would have produced.
type fanSub struct {
	q              stream.QueryID
	downstream     stream.FragID
	downstreamPort int
	// emit controls whether the instance's output fans out to this
	// subscriber as a retained view. Subscribers whose own downstream
	// fragment also rides a shared instance need no view — the shared
	// downstream is already fed by the primary chain, and an extra copy
	// would double-feed it.
	emit bool
}

// fragInstance is one hosted fragment: its executor plus routing facts.
type fragInstance struct {
	exec *query.FragmentExec
	q    stream.QueryID
	f    stream.FragID
	// downstream is the fragment consuming this fragment's output, or -1
	// when this is the root fragment.
	downstream stream.FragID
	// downstreamPort is the entry port on the downstream fragment.
	downstreamPort int
	// numSources is |S| of the whole query — the Eq. (1) normaliser.
	numSources int
	// sink wraps the fragment's output emissions into pooled outbox
	// batches. Built once at hostFragment so ticking allocates nothing.
	sink func([]stream.Tuple)
	// shareKey is the structural identity under which this instance was
	// hosted ("" when sharing is off). A ride names the instance and must
	// carry the same key.
	shareKey string
	// subs lists the queries riding this instance, in the order they
	// attached.
	subs []fanSub
}

// attached is everything the node keeps per attached source: the source,
// the online estimate of its rate over the STW, |S| of its query (the
// Eq. 1 normaliser — hosting pins it, and a promotion relabels the
// instance, not its plan) and the header sums of the batches it plans.
type attached struct {
	src        *sources.Source
	est        *sic.RateEstimator
	numSources int
	// sums[i] memoises the header SIC of the i-th batch the source plans
	// in a tick. The batches of one tick differ — the estimate they read
	// fills as the tick goes — but in steady state the i-th batch of every
	// tick is the i-th batch of the last one.
	sums []headerSum
}

// headerSum is the SIC of a batch of n tuples carrying per each, as
// RecomputeSIC finds it: per added n times, left to right.
type headerSum struct {
	n   int
	per float64
	sum float64
}

// headerSIC returns the header SIC of the i-th batch planned this tick,
// n tuples of per each, adding it up only if the memo holds another batch.
func (a *attached) headerSIC(i, n int, per float64) float64 {
	if i >= len(a.sums) {
		a.sums = append(a.sums, headerSum{})
	}
	m := &a.sums[i]
	if m.n != n || m.per != per {
		sum := 0.0
		for k := 0; k < n; k++ {
			sum += per
		}
		*m = headerSum{n: n, per: per, sum: sum}
	}
	return m.sum
}

// Stats aggregates a node's per-run counters.
type Stats struct {
	ArrivedTuples   int64
	ArrivedBatches  int64
	KeptTuples      int64
	KeptBatches     int64
	ShedTuples      int64
	ShedBatches     int64
	ShedInvocations int64
	// DroppedBatches, DroppedTuples and DroppedSIC count derived batches
	// the driver failed to route downstream — a dead peer, a failed dial,
	// a send error. Unlike shed tuples, these were already processed, so
	// losing them silently would skew result SIC invisibly; the counters
	// make the lost mass auditable in reports.
	DroppedBatches int64
	DroppedTuples  int64
	DroppedSIC     float64
	// SelectNanos accumulates wall-clock time spent inside the shedder's
	// Select, for the §7.6 overhead comparison.
	SelectNanos int64
}

// Node is a single THEMIS node.
type Node struct {
	id      stream.NodeID
	cfg     Config
	shedder core.Shedder
	cost    *core.CostModel
	rng     *rand.Rand
	pool    *stream.Pool

	frags map[fragKey]*fragInstance
	// fragOrder fixes the fragment iteration order so runs are
	// reproducible under a fixed seed (map iteration is randomised).
	fragOrder []fragKey
	// srcs holds the attached sources in attach order; srcByID finds a
	// header's source when the header is settled. nextSrc numbers the
	// sources the node attaches: a source id is a key of srcByID, local to
	// the node.
	srcs    []*attached
	srcByID map[stream.SourceID]*attached
	nextSrc stream.SourceID

	// subOf maps a subscriber's fragment key to the primary instance it
	// rides on; keyed counts the executing instances hosted under a share
	// key. Both empty unless the driver deduplicates fragments
	// (multi-query sharing), so the unshared hot path never consults them.
	subOf map[fragKey]fragKey
	keyed int
	// hostedQ refcounts fragments plus subscriptions per query, making
	// hostsQuery O(1) — with thousands of deduplicated queries per node
	// the former fragment scan dominated coordinator-update handling.
	hostedQ map[stream.QueryID]int

	ib       []*stream.Batch
	ibTuples int

	// knownSIC holds the latest coordinator updates per hosted query;
	// resultSIC is the ResultSIC method value handed to the shedder, bound
	// once so a shedding round does not allocate it.
	knownSIC  map[stream.QueryID]float64
	resultSIC core.ResultSICFunc

	// out collects the tick effects until the driver drains it.
	out Outbox

	// keepMark, splitScratch and splitParents are scratch reused across
	// shedding rounds (the per-tick hot path). splitParents holds batches
	// replaced by sub-batch views until the views are done.
	keepMark     []bool
	splitScratch []*stream.Batch
	splitParents []*stream.Batch

	// now is the end of the last ticked span — the node's current logical
	// time, used to stamp emissions and fast-forward mid-run deploys.
	now stream.Time

	stats Stats
}

// New builds a node.
func New(id stream.NodeID, cfg Config, shedder core.Shedder) *Node {
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * stream.Millisecond
	}
	if cfg.STW <= 0 {
		cfg.STW = 10 * stream.Second
	}
	if cfg.CapacityPerSec <= 0 {
		cfg.CapacityPerSec = 1000
	}
	if cfg.CostNoise < 0 {
		cfg.CostNoise = 0
	}
	// The cost model starts from one interval's worth of the capacity.
	initial := max(1, int(cfg.CapacityPerSec*float64(cfg.Interval)/1000))
	pool := cfg.Pool
	if pool == nil {
		pool = stream.NewPool()
	}
	n := &Node{
		id:       id,
		cfg:      cfg,
		shedder:  shedder,
		cost:     core.NewCostModel(initial),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		pool:     pool,
		frags:    make(map[fragKey]*fragInstance),
		srcByID:  make(map[stream.SourceID]*attached),
		subOf:    make(map[fragKey]fragKey),
		hostedQ:  make(map[stream.QueryID]int),
		knownSIC: make(map[stream.QueryID]float64),
	}
	n.resultSIC = n.ResultSIC
	return n
}

// TakeOutbox returns the node's one outbox, holding the effects of its
// ticks since the outbox was last reset. Ownership of the outbox's
// batches passes to the caller, which drains it — releasing each batch
// after its last use — and resets it before the node ticks again.
func (n *Node) TakeOutbox() *Outbox { return &n.out }

// ID returns the node id.
func (n *Node) ID() stream.NodeID { return n.id }

// Pool returns the pool the node draws batches from. Drivers decode or
// construct inbound batches from the same pool so release at the end of
// a tick recycles them locally.
func (n *Node) Pool() *stream.Pool { return n.pool }

// Stats returns a copy of the node's counters.
func (n *Node) Stats() Stats { return n.stats }

// NoteDropped records a derived batch lost in transit: the driver could
// not deliver it downstream (routing failure, dead peer). tuples is the
// batch length, sicMass the SIC the batch carried.
func (n *Node) NoteDropped(tuples int, sicMass float64) {
	n.stats.DroppedBatches++
	n.stats.DroppedTuples += int64(tuples)
	n.stats.DroppedSIC += sicMass
}

// hostFragment deploys a fragment instance on this node. numSources is
// the total source count of the whole query (|S| in Eq. 1); downstream
// identifies the consuming fragment (-1 for the root) and its entry port.
// An executor hosted after the node has started ticking is fast-forwarded
// to the node's current time, so its windows open at the deployment
// instant instead of replaying every empty edge since time zero. A
// non-empty share key makes the instance one that rides may name.
func (n *Node) hostFragment(q stream.QueryID, f stream.FragID, exec *query.FragmentExec,
	numSources int, downstream stream.FragID, downstreamPort int, shareKey string) {
	key := fragKey{q, f}
	n.fragOrder = append(n.fragOrder, key)
	n.hostedQ[q]++
	inst := &fragInstance{
		exec:           exec,
		q:              q,
		f:              f,
		downstream:     downstream,
		downstreamPort: downstreamPort,
		numSources:     numSources,
		shareKey:       shareKey,
	}
	inst.sink = func(tuples []stream.Tuple) { n.emitFragment(inst, tuples) }
	if n.now > 0 {
		exec.AdvanceTo(n.now)
	}
	n.frags[key] = inst
	if shareKey != "" {
		n.keyed++
	}
}

// FragmentSpec describes one fragment deployment: which fragment of which
// plan, how its sources run, its sharing terms and the state it restores.
type FragmentSpec struct {
	Query stream.QueryID
	Frag  stream.FragID
	Plan  *query.Plan
	// Rate and Batches shape every source of the fragment (tuples/s in
	// batches/s); Burst optionally modulates the rate.
	Rate, Batches float64
	Burst         *sources.BurstConfig
	// Seed seeds a generator that yields, per source in plan order, the
	// generator seed and then the emission seed. It is built only if the
	// fragment hosts — an attach draws nothing.
	Seed int64
	// ShareKey is the fragment's dedup identity ("" = private). A hosted
	// fragment keeps it; a ride must carry the key of the instance it
	// names.
	ShareKey string
	// Attach makes the fragment ride the instance (Primary, Frag) this
	// node executes instead of hosting its own: no executor, no sources,
	// and a fan-out view of the instance's output when Emit is set.
	Attach  bool
	Primary stream.QueryID
	Emit    bool
	// Restore, when set, is a sealed snapshot the hosted fragment restores
	// right after it is built (RestoreState). A ride ignores it: the live
	// instance is its state.
	Restore []byte
}

// Deploy instantiates a fragment on this node — the one routine behind
// an initial deploy and a failure re-deploy, in the virtual-time engine
// and on a TCP host alike. A ride (s.Attach) subscribes the fragment to
// the instance its driver named; otherwise the node hosts a fresh
// executor and fresh sources (their rate estimators warm-start, as on a
// newly deployed node), numbered by the node. Generator indices are the
// query-global running source count, so a re-placed fragment
// reconstructs the identities of the one it replaces even for plans with
// uneven per-fragment source counts. A hosted fragment then restores
// s.Restore, if set; the error is RestoreState's, and the fragment stays
// hosted either way — a refused blob leaves it cold. A (query, fragment)
// the node already hosts or rides is refused with ErrDeployed, and a
// ride naming an instance the node does not execute under s.ShareKey
// with ErrNoPrimary; either way nothing changes.
func (n *Node) Deploy(s FragmentSpec) error {
	key := fragKey{s.Query, s.Frag}
	_, hosted := n.frags[key]
	if _, rides := n.subOf[key]; hosted || rides {
		return fmt.Errorf("%w: q%d/f%d", ErrDeployed, s.Query, s.Frag)
	}
	fp := s.Plan.Fragments[s.Frag]
	downstream, downstreamPort := stream.FragID(-1), -1
	if d := s.Plan.Downstream[s.Frag]; d >= 0 {
		downstream, downstreamPort = stream.FragID(d), s.Plan.Fragments[d].UpstreamPort
	}
	if s.Attach {
		pk := fragKey{s.Primary, s.Frag}
		inst, ok := n.frags[pk]
		if !ok || s.ShareKey == "" || inst.shareKey != s.ShareKey {
			return fmt.Errorf("%w: q%d/f%d names q%d", ErrNoPrimary, s.Query, s.Frag, s.Primary)
		}
		inst.subs = append(inst.subs, fanSub{
			q: s.Query, downstream: downstream, downstreamPort: downstreamPort, emit: s.Emit,
		})
		n.subOf[key] = pk
		n.hostedQ[s.Query]++
		return nil
	}
	n.hostFragment(s.Query, s.Frag, query.NewFragmentExec(fp), s.Plan.NumSources(), downstream, downstreamPort, s.ShareKey)
	seeds := rand.New(rand.NewSource(s.Seed))
	genIdx := s.Plan.SourceIndexOffset(int(s.Frag))
	for i, ss := range fp.Sources {
		gen := ss.NewGen(rand.New(rand.NewSource(seeds.Int63())), genIdx+i)
		src := sources.New(n.nextSrc, s.Query, s.Frag, ss.Port,
			s.Rate, s.Batches, ss.Arity, gen, seeds.Int63())
		n.nextSrc++
		src.Burst = s.Burst
		n.attachSource(src)
	}
	if s.Restore != nil {
		return n.RestoreState(s.Query, s.Frag, s.Restore)
	}
	return nil
}

// Deploy's refusals.
var (
	// ErrDeployed refuses a deploy of a fragment the node already hosts
	// or rides: a second deploy would attach a second set of sources or a
	// second fan-out view.
	ErrDeployed = errors.New("node: fragment already deployed here")
	// ErrNoPrimary refuses a ride naming an instance the node does not
	// execute under the ride's share key.
	ErrNoPrimary = errors.New("node: no such shared instance here")
)

// SetSubEmit flips the fan-out emission of an existing subscription.
// Drivers call it when a subscriber's downstream fragment stops (or
// starts) riding a shared instance — e.g. failure recovery re-placed the
// rider's merge fragment as a private executor, which now needs the
// views the boundary previously suppressed. It reports whether it
// applied: false, changing nothing, when (q, f) rides nothing here.
func (n *Node) SetSubEmit(q stream.QueryID, f stream.FragID, emit bool) bool {
	pk, ok := n.subOf[fragKey{q, f}]
	if !ok {
		return false
	}
	inst := n.frags[pk]
	inst.subs[inst.sub(q)].emit = emit
	return true
}

// sub returns the index of q's subscription on the instance, or -1.
func (inst *fragInstance) sub(q stream.QueryID) int {
	for i := range inst.subs {
		if inst.subs[i].q == q {
			return i
		}
	}
	return -1
}

// RemoveFragment undeploys a fragment: its executor, sources and pending
// input-buffer batches are discarded. Query departure is a first-class
// event in an FSPS (§5: converged SIC values depend on "queries' arrivals
// and departures"); the shedder simply stops seeing the query's batches.
//
// Under sharing, a subscriber detaches from its shared instance, which
// keeps executing for the remaining readers. An instance that still has
// riders is not torn down: its driver first hands it to an heir
// (Promote). RemoveFragment reports false, changing nothing, for such an
// instance; removing a fragment the node does not hold is a no-op.
func (n *Node) RemoveFragment(q stream.QueryID, f stream.FragID) bool {
	key := fragKey{q, f}
	if pk, ok := n.subOf[key]; ok {
		delete(n.subOf, key)
		inst := n.frags[pk]
		i := inst.sub(q)
		inst.subs = append(inst.subs[:i], inst.subs[i+1:]...)
		n.dropQueryRef(q)
		return true
	}
	inst, ok := n.frags[key]
	if !ok {
		return true
	}
	if len(inst.subs) > 0 {
		return false
	}
	delete(n.frags, key)
	if inst.shareKey != "" {
		n.keyed--
	}
	for i, k := range n.fragOrder {
		if k == key {
			n.fragOrder = append(n.fragOrder[:i], n.fragOrder[i+1:]...)
			break
		}
	}
	kept := n.srcs[:0]
	for _, a := range n.srcs {
		if a.src.Query == q && a.src.Frag == f {
			delete(n.srcByID, a.src.ID)
			continue
		}
		kept = append(kept, a)
	}
	n.srcs = kept
	ib := n.ib[:0]
	tuples := 0
	for _, b := range n.ib {
		if b.Query == q && b.Frag == f {
			b.Release()
			continue
		}
		ib = append(ib, b)
		tuples += b.Len()
	}
	n.ib = ib
	n.ibTuples = tuples
	n.dropQueryRef(q)
	return true
}

// dropQueryRef releases one fragment-or-subscription reference on q,
// clearing the query's residual state when the last reference drops.
func (n *Node) dropQueryRef(q stream.QueryID) {
	if c := n.hostedQ[q] - 1; c > 0 {
		n.hostedQ[q] = c
		return
	}
	delete(n.hostedQ, q)
	delete(n.knownSIC, q)
}

// Promote hands the shared instance (q, f) executes to heir, one of its
// riders, as q departs: the executor and its accumulated window state,
// the attached sources and any buffered input batches are relabelled to
// the heir's identity in place, and q no longer holds the fragment. The
// heir's view of its stream is therefore seamless — exactly what its
// private pipeline would have held — and the remaining riders keep
// fanning out as before. It reports false, changing nothing, unless
// (q, f) executes here and heir rides it.
func (n *Node) Promote(q stream.QueryID, f stream.FragID, heir stream.QueryID) bool {
	key := fragKey{q, f}
	inst, ok := n.frags[key]
	if !ok {
		return false
	}
	i := inst.sub(heir)
	if i < 0 {
		return false
	}
	sub := inst.subs[i]
	inst.subs = append(inst.subs[:i], inst.subs[i+1:]...)
	newKey := fragKey{sub.q, f}
	delete(n.subOf, newKey)
	inst.q = sub.q
	inst.downstream, inst.downstreamPort = sub.downstream, sub.downstreamPort
	delete(n.frags, key)
	n.frags[newKey] = inst
	// The remaining subscribers ride the instance under its new identity.
	for _, s := range inst.subs {
		n.subOf[fragKey{s.q, f}] = newKey
	}
	for i, k := range n.fragOrder {
		if k == key {
			n.fragOrder[i] = newKey
			break
		}
	}
	for _, a := range n.srcs {
		if a.src.Query == key.q && a.src.Frag == key.f {
			a.src.Query, a.src.Frag = newKey.q, newKey.f
		}
	}
	for _, b := range n.ib {
		if b.Query == key.q && b.Frag == key.f {
			b.Query, b.Frag = newKey.q, newKey.f
		}
	}
	n.dropQueryRef(key.q)
	return true
}

// RemoveQuery undeploys every fragment of a query hosted on this node —
// the host side of a retract. A fragment heirs names executes a shared
// instance, which is handed to that heir (Promote); every other fragment
// is removed (RemoveFragment). All per-query state goes with the
// fragments: executors, sources, rate estimators, buffered batches and
// the coordinator's latest result-SIC value. It returns how many
// fragments it refused — a heir that does not ride, or an instance left
// with riders and no heir — each of which stays as it was.
func (n *Node) RemoveQuery(q stream.QueryID, heirs map[stream.FragID]stream.QueryID) (refused int) {
	var keys []fragKey
	for k := range n.frags {
		if k.q == q {
			keys = append(keys, k)
		}
	}
	for k := range n.subOf {
		if k.q == q {
			keys = append(keys, k)
		}
	}
	// Teardown order matters when shared instances rebind to a surviving
	// subscriber: sort so retracts are bit-identical across runs.
	sort.Slice(keys, func(i, j int) bool { return keys[i].f < keys[j].f })
	for _, k := range keys {
		heir, named := heirs[k.f]
		if named && !n.Promote(k.q, k.f, heir) || !named && !n.RemoveFragment(k.q, k.f) {
			refused++
		}
	}
	return refused
}

// ReleaseBuffers releases every batch still sitting in the input buffer
// back to the pool. Drivers call it when a node leaves the federation
// mid-run (failure), so the dead node's queued batches do not leak.
func (n *Node) ReleaseBuffers() {
	for _, b := range n.ib {
		b.Release()
	}
	n.ib = n.ib[:0]
	n.ibTuples = 0
}

// StateSize counts the node's live per-query state, so tests can assert
// that retracting a query returns the node to its pre-deploy footprint
// instead of leaking accumulators and estimator entries forever.
type StateSize struct {
	Fragments       int
	Sources         int
	RateEstimators  int
	SourceQueries   int
	KnownSIC        int
	BufferedBatches int
	// SharedInstances counts executing instances hosted under a share
	// key; Subscriptions counts queries riding on shared instances. Both
	// zero when sharing is off, so pre-sharing baselines compare
	// unchanged.
	SharedInstances int
	Subscriptions   int
}

// StateSize reports the current per-query state counts.
func (n *Node) StateSize() StateSize {
	return StateSize{
		Fragments:       len(n.frags),
		Sources:         len(n.srcs),
		RateEstimators:  len(n.srcs), // one per attached source
		SourceQueries:   len(n.srcByID),
		KnownSIC:        len(n.knownSIC),
		BufferedBatches: len(n.ib),
		SharedInstances: n.keyed,
		Subscriptions:   len(n.subOf),
	}
}

func (n *Node) hostsQuery(q stream.QueryID) bool {
	return n.hostedQ[q] > 0
}

// RidesOn reports the query whose instance (q, f) rides, if it rides
// one rather than executing privately or not being here at all.
func (n *Node) RidesOn(q stream.QueryID, f stream.FragID) (primary stream.QueryID, ok bool) {
	pk, ok := n.subOf[fragKey{q, f}]
	return pk.q, ok
}

// HostsFragment reports whether the node hosts the given fragment,
// either as an executing instance or as a subscription on a shared one.
func (n *Node) HostsFragment(q stream.QueryID, f stream.FragID) bool {
	if _, ok := n.frags[fragKey{q, f}]; ok {
		return true
	}
	_, ok := n.subOf[fragKey{q, f}]
	return ok
}

// HostedQueries lists the distinct queries with fragments or
// subscriptions on this node.
func (n *Node) HostedQueries() []stream.QueryID {
	out := make([]stream.QueryID, 0, len(n.hostedQ))
	for q := range n.hostedQ {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// attachSource attaches a local source feeding one of the node's hosted
// fragments. The node assigns Eq. (1) SIC values to the source's tuples
// as they enter the input buffer, using an online per-source rate
// estimate over the STW.
func (n *Node) attachSource(src *sources.Source) {
	inst, ok := n.frags[fragKey{src.Query, src.Frag}]
	if !ok {
		panic("node: source attached for a fragment this node does not host")
	}
	a := &attached{src: src, est: sic.NewRateEstimator(n.cfg.STW, n.cfg.Interval), numSources: inst.numSources}
	n.srcs = append(n.srcs, a)
	n.srcByID[src.ID] = a
}

// SetResultSIC ingests a coordinator update for a hosted query
// (updateSIC(Q) of Algorithm 1, delivered with network delay by the
// federation engine). Updates for queries this node does not host are
// dropped: an update in flight while the query was retracted must not
// resurrect its per-query state.
func (n *Node) SetResultSIC(q stream.QueryID, v float64) {
	if !n.hostsQuery(q) {
		return
	}
	n.knownSIC[q] = v
}

// ResultSIC reports the node's latest known result SIC for a query.
func (n *Node) ResultSIC(q stream.QueryID) float64 { return n.knownSIC[q] }

// Enqueue places an arriving batch into the input buffer, taking
// ownership: the node releases it during the tick that consumes it.
// Derived batches from remote fragments are re-stamped to local arrival
// time so that window assignment downstream reflects when the data
// became available here (network latency included, exactly the effect
// §7.4 studies).
func (n *Node) Enqueue(b *stream.Batch, now stream.Time) {
	if b.Source < 0 {
		if b.TS < now {
			b.TS = now
		}
		for i := range b.Tuples {
			if b.Tuples[i].TS < now {
				b.Tuples[i].TS = now
			}
		}
	}
	n.ib = append(n.ib, b)
	n.ibTuples += b.Len()
	n.stats.ArrivedBatches++
	n.stats.ArrivedTuples += int64(b.Len())
}

// splitOversized replaces every input-buffer batch larger than maxLen
// with contiguous sub-batches of at most maxLen tuples. Sub-batches are
// pooled views aliasing the original tuple storage; the parents are
// parked on splitParents and released after the views are done at the
// end of the tick.
func (n *Node) splitOversized(maxLen int) {
	if maxLen < 1 {
		maxLen = 1
	}
	last := -1
	for i, b := range n.ib {
		if b.Len() > maxLen {
			last = i
		}
	}
	if last < 0 {
		return
	}
	// Sub-batches are views of real tuples. Which batches survive is not
	// known yet, so every entry up to the last oversized one is filled: a
	// generator sees its plans in order either way, and a later shed one
	// is released like any other.
	n.settle(0, last+1, nil)
	out := n.splitScratch[:0]
	for _, b := range n.ib {
		if b.Len() <= maxLen {
			out = append(out, b)
			continue
		}
		n.splitParents = append(n.splitParents, b)
		for lo := 0; lo < b.Len(); lo += maxLen {
			hi := lo + maxLen
			if hi > b.Len() {
				hi = b.Len()
			}
			part := n.pool.GetView(b.Query, b.Frag, b.Source, b.Tuples[lo].TS, b.Tuples[lo:hi:hi])
			part.Port = b.Port
			part.RecomputeSIC()
			out = append(out, part)
		}
	}
	// The displaced input-buffer slice becomes next round's scratch.
	n.splitScratch = n.ib[:0]
	n.ib = out
}

// emitSources plans the node's sources over [from, to) and enqueues one
// header-only batch per planned source batch. The header carries what
// the shedder reads — query, tuple count and the Eq. (1) SIC the batch
// will hold, from the online per-source rate estimate over the STW — so
// no tuple is generated before Select has decided which batches survive.
func (n *Node) emitSources(from, to stream.Time) {
	for _, a := range n.srcs {
		src := a.src
		for i, p := range src.Plan(from, to) {
			a.est.Observe(p.B0, p.N)
			per := sic.SourceTupleSIC(a.est.PerSTW(p.B0), a.numSources)
			h := n.pool.GetHeader(src.Query, src.Frag, src.ID, p.B0, p.B1, p.N, per, a.headerSIC(i, p.N, per))
			h.Port = src.Port
			n.Enqueue(h, from)
		}
	}
}

// settle resolves the header-only batches among input-buffer entries
// [from, to). Callers settle the buffer in arrival order, each entry once,
// so each generator sees its batches in plan order. A kept header —
// mark[i] set, or every header when mark is nil — is replaced by the
// materialised batch it stood for (one pool draw, one pass writing
// timestamps, SIC and payloads); a shed one costs its generator one Skip
// and stays in the buffer, to be released with the rest at the end of the
// tick.
func (n *Node) settle(from, to int, mark []bool) {
	for i := from; i < to; i++ {
		h := n.ib[i]
		cnt, end, per := h.Pending()
		if cnt == 0 {
			continue
		}
		src := n.srcByID[h.Source].src
		p := sources.Plan{B0: h.TS, B1: end, N: cnt}
		if mark != nil && !mark[i] {
			src.Skip(p)
			continue
		}
		b := n.pool.Get(h.Query, h.Frag, h.Source, h.TS, cnt, src.Arity)
		b.Port, b.SIC = h.Port, h.SIC
		src.Fill(p, per, b.Tuples)
		n.ib[i] = b
		h.Release()
	}
}

// emitFragment wraps one fragment-output emission into a pooled batch on
// the outbox. The emitted tuples alias operator scratch, so the payload
// is copied into batch-owned storage; ownership of the batch passes to
// the driver with the outbox.
func (n *Node) emitFragment(inst *fragInstance, tuples []stream.Tuple) {
	if len(tuples) == 0 {
		return
	}
	arity := len(tuples[0].V)
	uniform := true
	for i := 1; i < len(tuples); i++ {
		if len(tuples[i].V) != arity {
			uniform = false
			break
		}
	}
	var b *stream.Batch
	if uniform {
		b = n.pool.Get(inst.q, inst.f, -1, n.now, len(tuples), arity)
		for i := range tuples {
			bt := &b.Tuples[i]
			bt.TS, bt.SIC = tuples[i].TS, tuples[i].SIC
			copy(bt.V, tuples[i].V)
		}
	} else {
		// Ragged arities (possible from UDFs) fall back to per-tuple
		// payload copies on a plainly-allocated batch.
		b = stream.NewBatch(inst.q, inst.f, -1, n.now, len(tuples), 0)
		for i := range tuples {
			t := tuples[i]
			t.V = append([]float64(nil), t.V...)
			b.Tuples[i] = t
		}
	}
	b.RecomputeSIC()
	// Fan the emission out to the instance's subscribers as retained
	// views: one header per subscriber aliasing the same tuple storage,
	// each addressed to that subscriber's own downstream fragment. The
	// storage recycles when the last consumer — primary or view, possibly
	// on different nodes — releases.
	for i := range inst.subs {
		s := &inst.subs[i]
		if !s.emit {
			continue
		}
		v := n.pool.ViewRetained(b, s.q, inst.f, -1, b.TS, b.Tuples)
		v.SIC = b.SIC
		if s.downstream < 0 {
			n.out.Results = append(n.out.Results, v)
		} else {
			v.Frag = s.downstream
			v.Port = s.downstreamPort
			n.out.Downstream = append(n.out.Downstream, v)
		}
	}
	if inst.downstream < 0 {
		n.out.Results = append(n.out.Results, b)
	} else {
		b.Frag = inst.downstream
		b.Port = inst.downstreamPort
		n.out.Downstream = append(n.out.Downstream, b)
	}
}

// consume pushes input-buffer entry i, a kept one, to its fragment.
// Entries [done, i] are settled first, so a keep order that runs ahead of
// the buffer still settles it in arrival order; consume returns the new
// settle cursor. When the fragment consumes the push (FragmentExec.Push
// reports true) the batch is released at once and its slot cleared, so
// the next Pool.Get hands its storage — still in cache — to the next
// batch.
func (n *Node) consume(i, done int, mark []bool) int {
	if i >= done {
		n.settle(done, i+1, mark)
		done = i + 1
	}
	b := n.ib[i]
	n.stats.KeptBatches++
	n.stats.KeptTuples += int64(b.Len())
	inst, ok := n.frags[fragKey{b.Query, b.Frag}]
	if !ok {
		return done // fragment departed; drop silently
	}
	if inst.exec.Push(b.Port, b.Tuples) {
		b.Release()
		n.ib[i] = nil
	}
	return done
}

// Tick advances the node by one shedding interval starting at t:
// sources emit, the overload detector checks the input buffer against the
// cost model's capacity estimate, the shedder discards excess batches,
// and the hosted fragments process what remains.
func (n *Node) Tick(t stream.Time) {
	n.TickSpan(t, t.Add(n.cfg.Interval))
}

// TickSpan advances the node over the arbitrary span [from, to). The
// virtual-time simulator always passes exact shedding intervals; the
// wall-clock TCP transport passes measured spans, which drift slightly
// around the nominal interval — the cost model's capacity estimate scales
// with the span, so shedding stays calibrated either way.
//
// A steady-state span — warmed pool, no overload, no churn — performs
// zero heap allocations: batches cycle through the pool and every
// emission lands in reused storage.
func (n *Node) TickSpan(from, to stream.Time) {
	if to <= from {
		return
	}
	n.now = to
	n.emitSources(from, to)
	now := to

	// Overload detection (§6): shed only when the input buffer exceeds
	// the estimated capacity for this span. Then every kept batch is
	// settled and pushed in one walk, in the order the shedder keeps them.
	capacity := n.cost.Capacity(to.Sub(from))
	keptBefore := n.stats.KeptTuples
	if n.ibTuples > capacity {
		// Split batches larger than the capacity so the shedder can
		// accept a partial batch (Algorithm 1 line 17: "only accepts as
		// many as possible without exceeding the node's capacity").
		// Without this, a node whose capacity estimate is below one
		// batch size would shed everything forever and the cost model
		// would never observe a processed tuple again.
		n.splitOversized(capacity)
		n.stats.ShedInvocations++
		//themis:wallclock SelectNanos is a profiling counter (shedder CPU cost, §7.5); it never feeds back into results.
		start := time.Now()
		keepIdx := n.shedder.Select(n.ib, capacity, n.resultSIC)
		//themis:wallclock paired with the time.Now above; stats-only.
		n.stats.SelectNanos += time.Since(start).Nanoseconds()
		if cap(n.keepMark) < len(n.ib) {
			n.keepMark = make([]bool, len(n.ib))
		}
		mark := n.keepMark[:len(n.ib)]
		for _, i := range keepIdx {
			mark[i] = true
		}
		done := 0
		for _, i := range keepIdx {
			done = n.consume(i, done, mark)
		}
		n.settle(done, len(n.ib), mark)
		for i, b := range n.ib {
			if !mark[i] {
				n.stats.ShedBatches++
				n.stats.ShedTuples += int64(b.Len())
			}
		}
		for _, i := range keepIdx {
			mark[i] = false
		}
	} else {
		for i := range n.ib {
			n.consume(i, i, nil)
		}
	}
	processed := int(n.stats.KeptTuples - keptBefore)

	// Tick every hosted fragment — windowed operators emit on time even
	// with no fresh input. Output emissions are copied into pooled
	// batches by the per-fragment sink.
	for _, key := range n.fragOrder {
		inst := n.frags[key]
		inst.exec.Tick(now, inst.sink)
	}

	// The fragments have ticked and copied whatever they retain, so the
	// input batches still buffered — shed, or kept and held by a
	// pass-through until its Tick — are done with. Recycle them, skipping
	// the slots consume released early, then the split parents whose
	// storage the sub-batch views aliased.
	for i, b := range n.ib {
		if b != nil {
			b.Release()
			n.ib[i] = nil
		}
	}
	n.ib = n.ib[:0]
	n.ibTuples = 0
	for i, b := range n.splitParents {
		b.Release()
		n.splitParents[i] = nil
	}
	n.splitParents = n.splitParents[:0]

	// Feed the cost model with the simulated processing time for this
	// interval: true per-tuple cost plus measurement noise.
	if processed > 0 {
		perTupleMs := 1000 / n.cfg.CapacityPerSec
		noise := 1.0
		if n.cfg.CostNoise > 0 {
			noise = 1 + n.cfg.CostNoise*n.rng.NormFloat64()
			if noise < 0.1 {
				noise = 0.1
			}
		}
		elapsed := stream.Duration(float64(processed) * perTupleMs * noise)
		if elapsed < 1 {
			elapsed = 1
		}
		n.cost.Observe(processed, elapsed)
	}
}
