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
// draw and becomes a real pooled batch only if the shedder keeps it;
// remote batches arrive via Enqueue already pool-backed; and at the end
// of each tick — after the hosted fragments have consumed the kept
// batches and copied what they retain — the node releases every input
// batch, shed or kept, back to the pool. Fragment emissions are copied
// into fresh pooled batches whose ownership passes to the driver with
// the outbox.
package node

import (
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
// identical fragment was deduplicated onto the instance. The shared
// instance executes once; its output fans out as one retained view per
// subscriber, addressed to the subscriber's own downstream fragment, so
// each subscriber's result stream carries exactly the SIC its private
// pipeline would have produced.
type fanSub struct {
	q              stream.QueryID
	f              stream.FragID
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
	// hosted ("" when sharing is off). Instances with a share key accept
	// subscribers via attachShared.
	shareKey string
	// subs lists the queries deduplicated onto this instance, in
	// subscription order (deterministic: the engine submits in query-id
	// order).
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
	// header's source when the header is settled.
	srcs    []*attached
	srcByID map[stream.SourceID]*attached

	// shared indexes executing instances by share key; subOf maps a
	// subscriber's fragment key to the primary instance it rides on.
	// Both empty unless the driver deduplicates fragments (multi-query
	// sharing), so the unshared hot path never consults them.
	shared map[string]fragKey
	subOf  map[fragKey]fragKey
	// hostedQ refcounts fragments plus subscriptions per query, making
	// hostsQuery O(1) — with thousands of deduplicated queries per node
	// the former fragment scan dominated coordinator-update handling.
	hostedQ map[stream.QueryID]int
	// promos logs shared-instance ownership hand-offs until the driver
	// drains them (TakePromotions); nil except across a removal.
	promos []Promotion

	ib       []*stream.Batch
	ibTuples int

	// knownSIC holds the latest coordinator updates per hosted query;
	// resultSIC is the ResultSIC method value handed to the shedder, bound
	// once so a shedding round does not allocate it.
	knownSIC  map[stream.QueryID]float64
	resultSIC core.ResultSICFunc

	// out and spare double-buffer the tick effects: Tick fills out,
	// TakeOutbox hands it to the driver and recycles the previously
	// drained buffer's storage.
	out   *Outbox
	spare *Outbox

	// keepMark, keptBuf, splitScratch and splitParents are scratch reused
	// across shedding rounds (the per-tick hot path). splitParents holds
	// batches replaced by sub-batch views until the views are done.
	keepMark     []bool
	keptBuf      []*stream.Batch
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
		shared:   make(map[string]fragKey),
		subOf:    make(map[fragKey]fragKey),
		hostedQ:  make(map[stream.QueryID]int),
		knownSIC: make(map[stream.QueryID]float64),
		out:      &Outbox{},
		spare:    &Outbox{},
	}
	n.resultSIC = n.ResultSIC
	return n
}

// TakeOutbox returns the effects accumulated by ticks since the last
// TakeOutbox and installs a fresh outbox, recycling the storage of the
// buffer drained before that. The returned outbox is valid only until
// the next TakeOutbox call, which resets it for reuse. Ownership of the
// outbox's batches passes to the caller, which must release each one
// after its last use.
func (n *Node) TakeOutbox() *Outbox {
	o := n.out
	n.out = n.spare
	n.out.Reset()
	n.spare = o
	return o
}

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
// non-empty share key registers the instance in the node's share index,
// making it a dedup target: later queries with an identical fragment
// attach to it via attachShared instead of deploying their own executor
// and sources.
func (n *Node) hostFragment(q stream.QueryID, f stream.FragID, exec *query.FragmentExec,
	numSources int, downstream stream.FragID, downstreamPort int, shareKey string) {
	key := fragKey{q, f}
	if _, dup := n.frags[key]; !dup {
		n.fragOrder = append(n.fragOrder, key)
		n.hostedQ[q]++
	}
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
		if _, taken := n.shared[shareKey]; !taken {
			n.shared[shareKey] = key
		}
	}
}

// FragmentSpec describes one fragment deployment: which fragment of which
// plan, how its sources run, and its sharing terms.
type FragmentSpec struct {
	Query stream.QueryID
	Frag  stream.FragID
	Plan  *query.Plan
	// Rate and Batches shape every source of the fragment (tuples/s in
	// batches/s); Burst optionally modulates the rate. FirstSource is the
	// id of the fragment's first source, the rest follow consecutively.
	Rate, Batches float64
	Burst         *sources.BurstConfig
	FirstSource   stream.SourceID
	// Seed seeds a generator that yields, per source in plan order, the
	// generator seed and then the emission seed. It is built only if the
	// fragment hosts — an attach draws nothing.
	Seed int64
	// ShareKey, when set, makes the fragment ride the instance this node
	// already executes under the key, with the given fan-out terms
	// (attachShared), or else host as the key's dedup target.
	ShareKey string
	Emit     bool
}

// Deploy instantiates a fragment on this node — the one routine behind
// an initial deploy and a failure re-deploy, in the virtual-time engine
// and on a TCP host alike. It reports whether the fragment attached to a
// shared instance; otherwise the node now hosts a fresh executor and
// fresh sources (their rate estimators warm-start, as on a newly
// deployed node). Generator indices are the query-global running source
// count, so a re-placed fragment reconstructs the identities of the one
// it replaces even for plans with uneven per-fragment source counts.
func (n *Node) Deploy(s FragmentSpec) (attached bool) {
	fp := s.Plan.Fragments[s.Frag]
	downstream, downstreamPort := stream.FragID(-1), -1
	if d := s.Plan.Downstream[s.Frag]; d >= 0 {
		downstream, downstreamPort = stream.FragID(d), s.Plan.Fragments[d].UpstreamPort
	}
	if n.attachShared(s.ShareKey, s.Query, s.Frag, downstream, downstreamPort, s.Emit) {
		return true
	}
	n.hostFragment(s.Query, s.Frag, query.NewFragmentExec(fp), s.Plan.NumSources(), downstream, downstreamPort, s.ShareKey)
	seeds := rand.New(rand.NewSource(s.Seed))
	genIdx := s.Plan.SourceIndexOffset(int(s.Frag))
	for i, ss := range fp.Sources {
		gen := ss.NewGen(rand.New(rand.NewSource(seeds.Int63())), genIdx+i)
		src := sources.New(s.FirstSource+stream.SourceID(i), s.Query, s.Frag, ss.Port,
			s.Rate, s.Batches, ss.Arity, gen, seeds.Int63())
		src.Burst = s.Burst
		n.attachSource(src)
	}
	return false
}

// attachShared subscribes fragment (q, f) to an existing shared instance
// with the given share key, if the node hosts one. The subscriber gets no
// executor and no sources — when emit is set the shared instance's output
// is viewed once per subscriber, addressed to (q, downstream,
// downstreamPort), and either way its kept SIC is credited to q. Callers
// pass emit=false when the subscriber's downstream fragment itself rides
// a shared instance fed by the primary chain. Reports whether the attach
// happened; a false return means the caller deploys the fragment
// normally (becoming the share target for later queries when hosted with
// the same key).
func (n *Node) attachShared(shareKey string, q stream.QueryID, f stream.FragID,
	downstream stream.FragID, downstreamPort int, emit bool) bool {
	if shareKey == "" {
		return false
	}
	pk, ok := n.shared[shareKey]
	if !ok {
		return false
	}
	inst := n.frags[pk]
	inst.subs = append(inst.subs, fanSub{
		q: q, f: f, downstream: downstream, downstreamPort: downstreamPort, emit: emit,
	})
	n.subOf[fragKey{q, f}] = pk
	n.hostedQ[q]++
	return true
}

// SharedPrimary reports the query currently executing the shared
// instance registered under the key — what a driver's share index must
// name as the group's first member.
func (n *Node) SharedPrimary(shareKey string) (stream.QueryID, bool) {
	pk, ok := n.shared[shareKey]
	if !ok {
		return 0, false
	}
	return pk.q, true
}

// SetSubEmit flips the fan-out emission of an existing subscription.
// Drivers call it when a subscriber's downstream fragment stops (or
// starts) riding a shared instance — e.g. failure recovery re-placed the
// rider's merge fragment as a private executor, which now needs the
// views the boundary previously suppressed. No-op for unknown
// subscriptions.
func (n *Node) SetSubEmit(q stream.QueryID, f stream.FragID, emit bool) {
	pk, ok := n.subOf[fragKey{q, f}]
	if !ok {
		return
	}
	inst := n.frags[pk]
	for i := range inst.subs {
		if inst.subs[i].q == q && inst.subs[i].f == f {
			inst.subs[i].emit = emit
			return
		}
	}
}

// RemoveFragment undeploys a fragment: its executor, sources and pending
// input-buffer batches are discarded. Query departure is a first-class
// event in an FSPS (§5: converged SIC values depend on "queries' arrivals
// and departures"); the shedder simply stops seeing the query's batches.
//
// Sharing makes removal three-way. A subscriber detaches from its shared
// instance, which keeps executing for the remaining readers. A shared
// primary with subscribers is not torn down at all: the first subscriber
// is promoted to the instance's identity — executor, window state,
// sources and buffered batches relabel in place, so the surviving
// queries' windows never lose accumulated tuples. Only the last reader's
// departure releases the instance and its refcounted state.
func (n *Node) RemoveFragment(q stream.QueryID, f stream.FragID) {
	key := fragKey{q, f}
	if pk, ok := n.subOf[key]; ok {
		delete(n.subOf, key)
		inst := n.frags[pk]
		for i := range inst.subs {
			if inst.subs[i].q == q && inst.subs[i].f == f {
				inst.subs = append(inst.subs[:i], inst.subs[i+1:]...)
				break
			}
		}
		n.dropQueryRef(q)
		return
	}
	inst, ok := n.frags[key]
	if !ok {
		return
	}
	if len(inst.subs) > 0 {
		n.promote(key, inst)
		return
	}
	delete(n.frags, key)
	if inst.shareKey != "" && n.shared[inst.shareKey] == key {
		delete(n.shared, inst.shareKey)
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

// Promotion records one shared-instance ownership hand-off: the instance
// formerly labelled (OldQ, Frag) now belongs to NewQ. Downstream is the
// instance's downstream fragment at hand-off time (-1 for a root). The
// driver uses the record to re-address the instance's in-flight output —
// batches already in transit under (OldQ, Downstream) belong to the
// survivor's pipeline, not the departed query's.
type Promotion struct {
	OldQ, NewQ stream.QueryID
	Frag       stream.FragID
	Downstream stream.FragID
}

// TakePromotions returns the promotions recorded since the last call and
// clears the log. Drivers drain it right after a removal so in-flight
// batches can follow the hand-off.
func (n *Node) TakePromotions() []Promotion {
	p := n.promos
	n.promos = nil
	return p
}

// promote hands a shared instance to its first subscriber after the
// owning query departs: the executor and its accumulated window state,
// the attached sources and any buffered input batches are relabelled to
// the subscriber's identity in place. The promoted query's view of its
// stream is therefore seamless — exactly what its private pipeline would
// have held — and the remaining subscribers keep fanning out as before.
func (n *Node) promote(key fragKey, inst *fragInstance) {
	sub := inst.subs[0]
	n.promos = append(n.promos, Promotion{
		OldQ: key.q, NewQ: sub.q, Frag: key.f, Downstream: inst.downstream,
	})
	inst.subs = inst.subs[1:]
	newKey := fragKey{sub.q, sub.f}
	delete(n.subOf, newKey)
	inst.q, inst.f = sub.q, sub.f
	inst.downstream, inst.downstreamPort = sub.downstream, sub.downstreamPort
	delete(n.frags, key)
	n.frags[newKey] = inst
	// The remaining subscribers ride the instance under its new identity.
	for _, s := range inst.subs {
		n.subOf[fragKey{s.q, s.f}] = newKey
	}
	for i, k := range n.fragOrder {
		if k == key {
			n.fragOrder[i] = newKey
			break
		}
	}
	if inst.shareKey != "" && n.shared[inst.shareKey] == key {
		n.shared[inst.shareKey] = newKey
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
}

// RemoveQuery undeploys every fragment of a query hosted on this node —
// the host side of a retract. It returns the number of fragments
// removed, so drivers can tell a no-op (query never placed here) from a
// teardown. All per-query state goes with the fragments: executors,
// sources, rate estimators, buffered batches and the coordinator's
// latest result-SIC value.
func (n *Node) RemoveQuery(q stream.QueryID) int {
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
		n.RemoveFragment(k.q, k.f)
	}
	return len(keys)
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
	// SharedInstances counts share-index entries; Subscriptions counts
	// queries riding on shared instances. Both zero when sharing is off,
	// so pre-sharing baselines compare unchanged.
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
		SharedInstances: len(n.shared),
		Subscriptions:   len(n.subOf),
	}
}

func (n *Node) hostsQuery(q stream.QueryID) bool {
	return n.hostedQ[q] > 0
}

// IsShareSub reports whether (q, f) currently rides a shared instance as
// a subscriber rather than executing privately. Drivers consult it when
// re-establishing fan-out boundaries after promotions and re-placements.
func (n *Node) IsShareSub(q stream.QueryID, f stream.FragID) bool {
	_, ok := n.subOf[fragKey{q, f}]
	return ok
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
// ownership: the node releases it at the end of the tick that consumes
// it. Derived batches from remote fragments are re-stamped to local
// arrival time so that window assignment downstream reflects when the
// data became available here (network latency included, exactly the
// effect §7.4 studies).
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
	needSplit := false
	for _, b := range n.ib {
		if b.Len() > maxLen {
			needSplit = true
			break
		}
	}
	if !needSplit {
		return
	}
	// Sub-batches are views of real tuples.
	n.settleHeaders(nil)
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

// settleHeaders resolves every header-only batch in the input buffer, in
// arrival order so each generator sees its batches in plan order. A kept
// header — mark[i] set, or every header when mark is nil — is replaced
// by the materialised batch it stood for (one pool draw, one pass writing
// timestamps, SIC and payloads); a shed one costs its generator one Skip
// and stays in the buffer, to be released with the rest at the end of the
// tick.
func (n *Node) settleHeaders(mark []bool) {
	for i, h := range n.ib {
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
			n.out.Results = append(n.out.Results, ResultEmit{Query: s.q, Now: n.now, Batch: v})
		} else {
			v.Frag = s.downstream
			v.Port = s.downstreamPort
			n.out.Downstream = append(n.out.Downstream, v)
		}
	}
	if inst.downstream < 0 {
		n.out.Results = append(n.out.Results, ResultEmit{Query: inst.q, Now: n.now, Batch: b})
	} else {
		b.Frag = inst.downstream
		b.Port = inst.downstreamPort
		n.out.Downstream = append(n.out.Downstream, b)
	}
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
	// the estimated capacity for this span.
	capacity := n.cost.Capacity(to.Sub(from))
	kept := n.ib
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
		n.settleHeaders(mark)
		kept = n.keptBuf[:0]
		for _, i := range keepIdx {
			kept = append(kept, n.ib[i])
		}
		for i, b := range n.ib {
			if !mark[i] {
				n.stats.ShedBatches++
				n.stats.ShedTuples += int64(b.Len())
			}
		}
		for _, i := range keepIdx {
			mark[i] = false
		}
		n.keptBuf = kept
	} else {
		n.settleHeaders(nil)
	}

	// Execute fragments over the kept batches.
	var processed int
	for _, b := range kept {
		processed += b.Len()
		n.stats.KeptBatches++
		n.stats.KeptTuples += int64(b.Len())
		inst, ok := n.frags[fragKey{b.Query, b.Frag}]
		if !ok {
			continue // fragment departed; drop silently
		}
		inst.exec.Push(b.Port, b.Tuples)
	}

	// Tick every hosted fragment — windowed operators emit on time even
	// with no fresh input. Output emissions are copied into pooled
	// batches by the per-fragment sink.
	for _, key := range n.fragOrder {
		inst := n.frags[key]
		inst.exec.Tick(now, inst.sink)
	}

	// Every input batch — kept or shed — has now been fully consumed:
	// operators copied whatever they retain. Recycle the lot, then the
	// split parents whose storage the sub-batch views aliased.
	for i, b := range n.ib {
		b.Release()
		n.ib[i] = nil
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
