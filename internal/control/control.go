// Package control is the federation's control plane as a pure,
// deterministic state machine: no node, no socket, no clock, no
// goroutine. It owns every decision a runtime makes about where a query
// runs and what it shares — live membership and the auto-placer over it,
// placement validation, the re-placement choice after a failure, the
// plan cache, per-query share facts, the one share-key / structural-seed
// format and state-compatibility rule, the share index with attach-vs-host,
// promote-on-primary-departure, dead-node group clearing and the
// emit-invariant sweep, and the checkpoint bank with the one rule for
// which blob, if any, warms a re-placed fragment.
//
// Events go in (Join, Fail, Submit, Retract, Replace, Checkpoint), the
// share-deciding ones carrying the driver's time pin — the virtual-time
// engine's tick, the TCP controller's epoch counter — and plain command
// values come out: per-fragment deploys, promotions, emit flips in
// ascending (query, fragment) order. federation.Engine applies them to
// *node.Node directly; transport.Controller turns them into frames and
// writes each host's frames once its step ends.
// The plane decides every sharing outcome and its commands say it: a
// rider's deploy names its primary, a retract names each heir. Hosts
// keep no share index; they obey, or refuse what names state they lack.
// A Plane is not safe for concurrent use.
package control

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cql"
	"repro/internal/query"
	"repro/internal/sources"
	"repro/internal/stream"
)

// Config parameterises a plane.
type Config struct {
	// Placement names the strategy for submissions without an explicit
	// placement and for re-placement after a failure: "round-robin"
	// (default), "uniform" or "zipf".
	Placement string
	// Seed drives placement randomness and is the base of structural
	// source seeds.
	Seed int64
	// Sharing selects the multi-query sharing mode.
	Sharing Sharing
}

// MaxRate bounds a source's tuples/s and batches/s: a node plans
// rate × interval tuples every tick, so an absurd rate (1e308 is a valid
// float) would wedge or overflow the tick. Submit refuses a rate beyond
// it, and a host refuses a deploy frame beyond it.
const MaxRate = 1e7

// Bounds on a networked run: a host builds its node from the run its
// controller announces, so these bound what one hello may ask of it.
const (
	// MaxInterval bounds the shedding interval (an hour), so the
	// wall-clock durations drivers derive from it — a host's ticker, the
	// controller's heartbeat timeout — stay far from overflow.
	MaxInterval = 3600 * stream.Second
	// MaxSTWSlots bounds the STW in shedding intervals: the length of the
	// ring every rate estimator and SIC accumulator allocates.
	MaxSTWSlots = 1 << 14
)

// CheckRun reports whether a run — STW, shedding interval and checkpoint
// cadence in ticks (0 = off) — is one a host may build its node from.
// The controller checks its own configuration with it, and a host checks
// the run a hello announces.
func CheckRun(stw, interval stream.Duration, checkpointTicks int64) error {
	if interval < 1 || interval > MaxInterval {
		return fmt.Errorf("control: shedding interval %d ms outside [1, %d]", interval, MaxInterval)
	}
	if stw < 1 || stw > interval*MaxSTWSlots {
		return fmt.Errorf("control: STW %d ms outside [1, %d] (at most %d intervals)", stw, interval*MaxSTWSlots, MaxSTWSlots)
	}
	if checkpointTicks < 0 {
		return fmt.Errorf("control: checkpoint cadence %d ticks is negative", checkpointTicks)
	}
	return nil
}

// CheckpointTicks is the one checkpoint-cadence rule of both runtimes: a
// cadence of ckpt snapshots every max(1, ckpt/interval) ticks, after
// each tick whose count from 1 is a multiple of it; a cadence of zero or
// less never does (0).
func CheckpointTicks(ckpt, interval stream.Duration) int64 {
	if ckpt <= 0 {
		return 0
	}
	return max(1, int64(ckpt/interval))
}

// Query is the plane's record of one live query. Drivers read it; only
// the plane writes it.
type Query struct {
	ID    stream.QueryID
	Plan  *query.Plan
	Rate  float64
	Shape string
	// Placement maps fragment → node. Replace rewrites displaced entries
	// in place, so a driver holding the slice sees re-placements.
	Placement []stream.NodeID

	// ratePin is the query's rate and feed component of every key.
	ratePin string
	// subKeys holds one canonical subtree key per fragment and share the
	// per-fragment share state; both nil when sharing is off.
	subKeys []string
	share   []fragShare
	// ckpt banks the newest checkpoint blob per fragment (empty = none) in
	// buffers reused from one checkpoint to the next; nil until the first.
	ckpt [][]byte
}

// fragShare is one fragment's share state: the full key it is indexed
// under ("" while displaced by a failure), whether it rides a shared
// instance instead of executing, and the emit bit last commanded while it
// rides.
type fragShare struct {
	key      string
	attached bool
	emit     bool
}

// ShareKey reports the key fragment f is currently indexed under ("" if
// it does not take part in sharing).
func (q *Query) ShareKey(f int) string {
	if q.share == nil {
		return ""
	}
	return q.share[f].key
}

// Deploy commands one fragment onto a node.
type Deploy struct {
	Query stream.QueryID
	Frag  int
	Node  stream.NodeID
	// ShareKey is the fragment's dedup identity ("" = private). Attach
	// makes the fragment ride the instance Primary executes on the node
	// under the key — no executor, no sources — with the given Emit bit.
	ShareKey string
	Attach   bool
	Primary  stream.QueryID
	Emit     bool
	// Seed is a hosting fragment's structural source seed (an attach has
	// no sources).
	Seed int64
	// Restore is the banked state to restore into the fragment once hosted
	// — set by Replace only, and only under a warm verdict. It aliases the
	// bank's buffer, which the next Checkpoint of its owner overwrites.
	Restore []byte
}

// Promotion commands one shared-instance hand-off on Node: the instance
// OldQ executed at Frag now belongs to NewQ, the next in attach order.
type Promotion struct {
	Node       stream.NodeID
	OldQ, NewQ stream.QueryID
	Frag       int
}

// EmitFlip commands one subscription's fan-out emission on or off.
type EmitFlip struct {
	Node  stream.NodeID
	Query stream.QueryID
	Frag  int
	Emit  bool
}

// ErrUnplaceable reports a query with more displaced fragments than
// surviving nodes not already hosting it. The engine retires the query;
// the controller aborts the run.
var ErrUnplaceable = errors.New("control: too few surviving nodes to re-place the query")

// Plane is the control-plane state.
type Plane struct {
	cfg   Config
	alive []bool
	// placer assigns sites over the live membership in ascending node
	// order; nil after a membership change until the next Place, so the
	// round-robin cursor restarts with every epoch.
	placer *Placer

	// plans memoises cql.PlanDistributed across submissions — with
	// thousands of structurally similar queries, parsing and planning
	// dominate submit cost — and is dropped on membership epochs so
	// nothing planned under the old one is trusted stale. catalogs and
	// subKeys are pure functions of their keys (dataset; shape, which
	// determines plan structure — TestShapeImpliesIdenticalPlans) and
	// survive invalidation.
	plans    *cql.PlanCache
	catalogs map[sources.Dataset]*cql.Catalog
	subKeys  map[string][]string
	// pinRate and pin memoise the last rate pin rendered: submissions come
	// in runs of one rate, and formatting a float is a third of a warm
	// submit's control-plane cost.
	pinRate float64
	pin     string

	// queries holds the live queries in ascending id order — the order
	// ids are assigned in, and the order Fail and Sweep report in.
	queries []*Query
	next    stream.QueryID
	// groups is the share index: per node, share key → group.
	groups []map[string]*group
}

// group is one host's shared instance: the queries under one share key,
// in attach order. members[0] executes, the rest ride; the next in attach
// order inherits the instance when the executing query departs. warm
// marks an instance Replace hosted with restored
// state: a fragment attaching to it in the same recovery is as warm as it.
type group struct {
	members []stream.QueryID
	warm    bool
}

// New returns an empty plane.
func New(cfg Config) *Plane {
	return &Plane{
		cfg:      cfg,
		plans:    cql.NewPlanCache(),
		catalogs: make(map[sources.Dataset]*cql.Catalog),
		subKeys:  make(map[string][]string),
	}
}

// --- membership ---

// Join adds a node to the membership and returns its id.
func (p *Plane) Join() stream.NodeID {
	p.alive = append(p.alive, true)
	p.groups = append(p.groups, nil)
	p.epoch()
	return stream.NodeID(len(p.alive) - 1)
}

// epoch marks a membership change.
func (p *Plane) epoch() {
	p.placer = nil
	p.plans.Invalidate()
}

// Alive reports whether n is a live member.
func (p *Plane) Alive(n stream.NodeID) bool {
	return n >= 0 && int(n) < len(p.alive) && p.alive[n]
}

// live lists the live nodes not in skip, ascending.
func (p *Plane) live(skip map[stream.NodeID]bool) []stream.NodeID {
	var out []stream.NodeID
	for n, ok := range p.alive {
		if ok && !skip[stream.NodeID(n)] {
			out = append(out, stream.NodeID(n))
		}
	}
	return out
}

// Place assigns k fragments to distinct live nodes with the configured
// strategy.
func (p *Plane) Place(k int) ([]stream.NodeID, error) {
	alive := p.live(nil)
	if len(alive) == 0 {
		return nil, errors.New("control: no live nodes to place on")
	}
	if p.placer == nil {
		pl, err := NewPlacer(p.cfg.Placement, len(alive), p.cfg.Seed)
		if err != nil {
			return nil, err
		}
		p.placer = pl
	}
	return pick(p.placer, alive, k)
}

// pick places k fragments with pl and maps its picks onto candidates.
func pick(pl *Placer, candidates []stream.NodeID, k int) ([]stream.NodeID, error) {
	ids, err := pl.Place(k)
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		ids[i] = candidates[id]
	}
	return ids, nil
}

// validatePlacement validates an explicit placement: one live, distinct
// node per fragment (§3: fragments of one query land on distinct sites).
func (p *Plane) validatePlacement(fragments int, placement []stream.NodeID) error {
	if len(placement) != fragments {
		return fmt.Errorf("control: placement has %d entries for %d fragments", len(placement), fragments)
	}
	for f, n := range placement {
		if n < 0 || int(n) >= len(p.alive) {
			return fmt.Errorf("control: placement names missing node %d (%d joined)", n, len(p.alive))
		}
		if !p.alive[n] {
			return fmt.Errorf("control: placement names dead node %d", n)
		}
		for _, earlier := range placement[:f] {
			if earlier == n {
				return errors.New("control: fragments of one query must be placed on distinct nodes")
			}
		}
	}
	return nil
}

// --- planning ---

// Plan plans a CQL statement through the plan cache and reports the
// statement's structural shape key. Plans are read-only templates —
// operators instantiate per deployment — so one plan serves any number
// of query ids.
func (p *Plane) Plan(text string, fragments int, ds sources.Dataset) (*query.Plan, string, error) {
	cat, ok := p.catalogs[ds]
	if !ok {
		cat = cql.DefaultCatalog(ds)
		p.catalogs[ds] = cat
	}
	return p.plans.PlanDistributed(text, cat, ds.String(), fragments)
}

// PlanCacheStats reports the submit-path plan cache counters.
func (p *Plane) PlanCacheStats() cql.PlanCacheStats { return p.plans.Stats() }

// --- query lifecycle ---

// Query returns a live query's record, or nil.
func (p *Plane) Query(id stream.QueryID) *Query {
	if i := p.find(id); i < len(p.queries) && p.queries[i].ID == id {
		return p.queries[i]
	}
	return nil
}

// find locates id's slot in the ascending live list.
func (p *Plane) find(id stream.QueryID) int {
	return sort.Search(len(p.queries), func(i int) bool { return p.queries[i].ID >= id })
}

// Groups copies out node n's share index — share key → members in
// attach order — for tests that hold the plane against the hosts.
func (p *Plane) Groups(n stream.NodeID) map[string][]stream.QueryID {
	out := make(map[string][]stream.QueryID, len(p.groups[n]))
	for key, g := range p.groups[n] {
		out[key] = g.members
	}
	return out
}

// Submit admits a query: it validates the plan and the placement (nil =
// the configured strategy over the live membership), assigns the next
// query id, and settles every fragment's share decision at time pin.
// shape is the statement's plan-cache shape key and feed the data feed
// its sources read; together with the rate they are the query's
// structural identity (ratePin). A rate outside (0, MaxRate] — NaN and
// ±Inf included — is refused before anything is placed. The commands
// come in ascending fragment order.
func (p *Plane) Submit(plan *query.Plan, shape string, feed int, rate float64, placement []stream.NodeID, pin int64) (*Query, []Deploy, error) {
	if !(rate > 0 && rate <= MaxRate) {
		return nil, nil, fmt.Errorf("control: source rate %g tuples/s outside (0, %g]", rate, float64(MaxRate))
	}
	if err := plan.Validate(); err != nil {
		return nil, nil, err
	}
	if placement == nil {
		var err error
		if placement, err = p.Place(plan.NumFragments()); err != nil {
			return nil, nil, err
		}
	} else {
		if err := p.validatePlacement(plan.NumFragments(), placement); err != nil {
			return nil, nil, err
		}
		placement = append([]stream.NodeID(nil), placement...)
	}
	q := &Query{ID: p.next, Plan: plan, Rate: rate, Shape: shape, Placement: placement, ratePin: p.ratePin(rate, feed)}
	p.next++
	if p.cfg.Sharing == SharingFull {
		ks, ok := p.subKeys[shape]
		if !ok {
			ks = cql.SubtreeKeys(plan, shape)
			for f := range ks {
				ks[f] += fragPin(f)
			}
			p.subKeys[shape] = ks
		}
		q.subKeys = ks
		q.share = make([]fragShare, plan.NumFragments())
	}
	p.queries = append(p.queries, q)
	cmds := make([]Deploy, len(placement))
	for f, n := range placement {
		cmds[f] = p.deploy(q, f, n, "|p", pin)
	}
	return q, cmds, nil
}

// deploy settles attach-vs-host for fragment f of q on node n, at time
// pin under tag, against the share index and records the outcome. Every
// sharing-eligible deploy carries its key: the first under a key on a node hosts and becomes the
// dedup target, later ones ride it. A rider emits fan-out views only
// where its private pipeline resumes — the root rider always needs its
// own result stream, while an interior rider whose downstream fragment
// also rides must not double-feed it. Fragments are settled in ascending
// order and plans wire downstream to a lower index, so the downstream
// decision this reads is already made.
func (p *Plane) deploy(q *Query, f int, n stream.NodeID, tag string, pin int64) Deploy {
	d := Deploy{Query: q.ID, Frag: f, Node: n}
	if q.share == nil {
		d.Seed = q.structuralSeed(p.cfg.Seed, f)
		return d
	}
	key := q.shareKey(f, tag, pin)
	d.ShareKey = key
	idx := p.groups[n]
	if idx == nil {
		idx = make(map[string]*group)
		p.groups[n] = idx
	}
	g := idx[key]
	if g == nil {
		idx[key] = &group{members: []stream.QueryID{q.ID}}
		q.share[f] = fragShare{key: key, emit: true} // executes; emit kept coherent for Sweep
		d.Seed = q.structuralSeed(p.cfg.Seed, f)
		return d
	}
	g.members = append(g.members, q.ID)
	down := q.Plan.Downstream[f]
	d.Attach, d.Primary, d.Emit = true, g.members[0], down < 0 || !q.share[down].attached
	q.share[f] = fragShare{key: key, attached: true, emit: d.Emit}
	return d
}

// Retract removes a live query: leaving a group as a rider just
// detaches, leaving it as the executing member promotes the next in
// attach order (whose fragment flips from riding to executing, and which
// inherits the departing member's checkpoint record), and an emptied
// group disappears with its instance. It returns the placement the
// retract must reach, the promotions the hosts must apply, in ascending
// fragment order, and the emit flips that restore the fan-out invariant
// over what remains; ok is false for an unknown query.
func (p *Plane) Retract(id stream.QueryID) (placement []stream.NodeID, promos []Promotion, flips []EmitFlip, ok bool) {
	q := p.Query(id)
	if q == nil {
		return nil, nil, nil, false
	}
	for f, fs := range q.share {
		key := fs.key
		if key == "" {
			continue // displaced by a failure: its group died with the node
		}
		n := q.Placement[f]
		g := p.groups[n][key]
		i := 0
		for g.members[i] != id {
			i++
		}
		g.members = append(g.members[:i], g.members[i+1:]...)
		if len(g.members) == 0 {
			delete(p.groups[n], key)
			continue
		}
		if i == 0 {
			heir := p.Query(g.members[0])
			heir.share[f].attached, heir.share[f].emit = false, true
			heir.inherit(q, f)
			promos = append(promos, Promotion{Node: n, OldQ: id, NewQ: heir.ID, Frag: f})
		}
	}
	i := p.find(id)
	p.queries = append(p.queries[:i], p.queries[i+1:]...)
	q.ckpt = nil // drivers keep the record for its plan; the bank goes now
	return q.Placement, promos, p.Sweep(), true
}

// Fail removes node n from the membership and returns the queries with
// fragments on it, ascending. The dead node's share groups die with it:
// every member's fragment there is displaced, and Replace re-keys it
// under the recovery pin — co-displaced same-shape fragments re-share
// when they land together, and nothing attaches to a warm instance
// elsewhere. ok is false when n was not a live member.
func (p *Plane) Fail(n stream.NodeID) (affected []stream.QueryID, ok bool) {
	if !p.Alive(n) {
		return nil, false
	}
	p.alive[n] = false
	p.epoch()
	p.groups[n] = nil
	for _, q := range p.queries {
		hit := false
		for f, at := range q.Placement {
			if at != n {
				continue
			}
			hit = true
			if q.share != nil {
				q.share[f] = fragShare{}
			}
		}
		if hit {
			affected = append(affected, q.ID)
		}
	}
	return affected, true
}

// Replace re-places the fragments of query id that sit on dead nodes:
// the configured strategy picks over the ascending list of live nodes
// not already hosting the query, seeded from the configured seed and the
// query id — so the choice depends on nothing but the membership and the
// query — and each displaced fragment is re-deployed under the recovery
// pin by the same rules that deployed it. A query retracted since the
// failure returns no commands (whichever of retract and recovery runs
// second stands down); ErrUnplaceable leaves the query untouched.
//
// warm is the query's restore verdict, all or nothing — a partially
// restored query would mix warm and cold windows under one surviving SIC
// accumulator. A fragment that hosts is warm when the bank holds a blob
// for it (record), which its command then carries; one that attaches
// rides an instance hosted earlier in this same recovery, is as warm as
// that instance, receives no blob, and loses its own record, which
// describes an executor it no longer has. A cold verdict strips every
// blob: the driver restarts the query's SIC epoch instead.
func (p *Plane) Replace(id stream.QueryID, pin int64) (cmds []Deploy, warm bool, err error) {
	q := p.Query(id)
	if q == nil {
		return nil, true, nil
	}
	var displaced []int
	used := make(map[stream.NodeID]bool, len(q.Placement))
	for f, n := range q.Placement {
		if p.alive[n] {
			used[n] = true
		} else {
			displaced = append(displaced, f)
		}
	}
	candidates := p.live(used)
	if len(candidates) < len(displaced) {
		return nil, false, fmt.Errorf("query %d: %d fragments displaced, %d candidate survivors: %w",
			id, len(displaced), len(candidates), ErrUnplaceable)
	}
	pl, err := NewPlacer(p.cfg.Placement, len(candidates), p.cfg.Seed+int64(id))
	if err != nil {
		return nil, false, err
	}
	picks, err := pick(pl, candidates, len(displaced))
	if err != nil {
		return nil, false, err
	}
	cmds = make([]Deploy, len(displaced))
	warm = true
	for i, f := range displaced {
		q.Placement[f] = picks[i]
		d := p.deploy(q, f, picks[i], "|k", pin)
		if d.Attach {
			if q.ckpt != nil {
				q.ckpt[f] = q.ckpt[f][:0]
			}
			warm = warm && p.groups[d.Node][d.ShareKey].warm
		} else {
			d.Restore = p.record(q, f)
			warm = warm && d.Restore != nil
		}
		cmds[i] = d
	}
	for i := range cmds {
		d := &cmds[i]
		if !warm {
			d.Restore = nil
		}
		if !d.Attach && d.ShareKey != "" {
			p.groups[d.Node][d.ShareKey].warm = warm
		}
	}
	return cmds, warm, nil
}

// --- checkpoint bank ---

// Checkpoint banks blob as the newest state of fragment f of query id,
// copying it into the fragment's reused buffer (a steady-state checkpoint
// round allocates nothing). A blob for a query no longer deployed is
// ignored: a checkpoint racing a retract must not resurrect its state.
// Blobs are opaque here — versioned and checksummed by the stream
// snapshot codec, verified by the restoring node.
func (p *Plane) Checkpoint(id stream.QueryID, f int, blob []byte) {
	q := p.Query(id)
	if q == nil || f < 0 || f >= len(q.Placement) {
		return
	}
	if q.ckpt == nil {
		q.ckpt = make([][]byte, len(q.Placement))
	}
	q.ckpt[f] = q.ckpt[f][:0]
	q.ckpt[f] = append(q.ckpt[f], blob...)
}

// Checkpointed returns the blob banked for fragment f of query id itself
// (nil when none is): the bank's buffer, for tests.
func (p *Plane) Checkpointed(id stream.QueryID, f int) []byte {
	if q := p.Query(id); q != nil {
		return q.banked(f)
	}
	return nil
}

// banked is fragment f's own record, nil when it holds none.
func (q *Query) banked(f int) []byte {
	if q.ckpt == nil || len(q.ckpt[f]) == 0 {
		return nil
	}
	return q.ckpt[f]
}

// inherit hands fragment f's banked record from o, the departing executor
// of a shared instance, to q, its heir, which held none: the instance's
// newest checkpoint is the state q now executes. The buffers swap.
func (q *Query) inherit(o *Query, f int) {
	if o.banked(f) == nil {
		return
	}
	if q.ckpt == nil {
		q.ckpt = make([][]byte, len(q.Placement))
	}
	q.ckpt[f], o.ckpt[f] = o.ckpt[f], q.ckpt[f][:0]
}

// record is the one rule for the blob that warms fragment f of q: its own
// newest checkpoint, else that of the lowest-numbered live query with
// compatible state (Query.compatible) holding one — deterministic, and
// the longest-running candidate, so the warmest. Riders of a shared
// instance never checkpoint privately; this is where they restore from.
func (p *Plane) record(q *Query, f int) []byte {
	if own := q.banked(f); own != nil {
		return own
	}
	for _, o := range p.queries {
		if o.ckpt != nil && q.compatible(o) {
			if twin := o.banked(f); twin != nil {
				return twin
			}
		}
	}
	return nil
}

// Sweep re-derives every riding fragment's emit bit — emit iff the
// query's own downstream fragment executes rather than rides (a shared
// downstream is fed by its primary's chain, so a view would double-feed
// it; a private one starves without) — and returns the flips in
// ascending (query, fragment) order. Retract sweeps itself; drivers call
// it once after the last Replace of a failure, when re-placement may
// have turned riders into executors or new primaries into attach
// targets.
func (p *Plane) Sweep() []EmitFlip {
	var flips []EmitFlip
	for _, q := range p.queries {
		for f := range q.share {
			if !q.share[f].attached {
				continue
			}
			down := q.Plan.Downstream[f]
			want := down < 0 || !q.share[down].attached
			if want != q.share[f].emit {
				q.share[f].emit = want
				flips = append(flips, EmitFlip{Node: q.Placement[f], Query: q.ID, Frag: f, Emit: want})
			}
		}
	}
	return flips
}
