package control

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sources"
	"repro/internal/stream"
)

// Table tests for the control plane: event sequences in, commands out,
// with no node and no socket anywhere. Each scenario is a script of
// events, every one paired with the commands it must produce.

const avgAll = "Select Avg(t.v) From AllSrc[Range 1 sec]"

type (
	nodes = []stream.NodeID
	ids   = []stream.QueryID
)

// dep is the comparable part of a Deploy command (keys and seeds are
// checked by relation, not by value). P is a rider's primary.
type dep struct {
	Q      stream.QueryID
	F      int
	N      stream.NodeID
	Attach bool
	P      stream.QueryID
	Emit   bool
}

// Events. Each returns what the plane answered, in comparable form.
type event func(t *testing.T, p *Plane) any

func submit(frags int, rate float64, at nodes, pin int64) event {
	return func(t *testing.T, p *Plane) any {
		t.Helper()
		plan, shape, err := p.Plan(avgAll, frags, sources.Uniform)
		if err != nil {
			t.Fatal(err)
		}
		_, cmds, err := p.Submit(plan, shape, 0, rate, at, pin)
		if err != nil {
			return err
		}
		return project(cmds)
	}
}

func project(cmds []Deploy) []dep {
	out := make([]dep, len(cmds))
	for i, c := range cmds {
		out[i] = dep{c.Query, c.Frag, c.Node, c.Attach, c.Primary, c.Emit}
	}
	return out
}

// retraction is what Retract answers.
type retraction struct {
	At     nodes
	Promos []Promotion
	Flips  []EmitFlip
}

func retract(q stream.QueryID) event {
	return func(_ *testing.T, p *Plane) any {
		at, promos, flips, ok := p.Retract(q)
		if !ok {
			return false
		}
		return retraction{at, promos, flips}
	}
}

func fail(n stream.NodeID) event {
	return func(_ *testing.T, p *Plane) any {
		affected, ok := p.Fail(n)
		if !ok {
			return false
		}
		return affected
	}
}

func replace(q stream.QueryID, pin int64) event {
	return func(_ *testing.T, p *Plane) any {
		cmds, _, err := p.Replace(q, pin)
		if err != nil {
			return err
		}
		return project(cmds)
	}
}

func sweep() event {
	return func(_ *testing.T, p *Plane) any { return p.Sweep() }
}

// groupsOn reports node n's share index as member lists, ordered by the
// lowest member (keys are opaque).
func groupsOn(n stream.NodeID) event {
	return func(_ *testing.T, p *Plane) any {
		var out []ids
		for _, members := range p.Groups(n) {
			out = append(out, append(ids(nil), members...))
		}
		sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
		return out
	}
}

type step struct {
	do   event
	want any
}

func TestPlaneScripts(t *testing.T) {
	unplaceable := func(t *testing.T, got any) {
		if err, _ := got.(error); !errors.Is(err, ErrUnplaceable) {
			t.Errorf("got %v, want ErrUnplaceable", got)
		}
	}
	scenarios := []struct {
		name    string
		sharing Sharing
		members int
		steps   []step
		// check inspects the last step's answer when want cannot say it.
		check func(t *testing.T, got any)
	}{
		{
			name: "attach order is promotion order", sharing: SharingFull, members: 2,
			steps: []step{
				{submit(1, 20, nodes{0}, 0), []dep{{Q: 0, N: 0}}},
				{submit(1, 20, nodes{0}, 0), []dep{{Q: 1, N: 0, Attach: true, P: 0, Emit: true}}},
				{submit(1, 20, nodes{0}, 0), []dep{{Q: 2, N: 0, Attach: true, P: 0, Emit: true}}},
				{groupsOn(0), []ids{{0, 1, 2}}},
				{retract(0), retraction{At: nodes{0}, Promos: []Promotion{{Node: 0, OldQ: 0, NewQ: 1}}}},
				{retract(1), retraction{At: nodes{0}, Promos: []Promotion{{Node: 0, OldQ: 1, NewQ: 2}}}},
				{retract(2), retraction{At: nodes{0}}},
				{groupsOn(0), []ids(nil)},
				{retract(2), false},
			},
		},
		{
			name: "later pin and other rate never attach", sharing: SharingFull, members: 1,
			steps: []step{
				{submit(1, 20, nodes{0}, 0), []dep{{Q: 0, N: 0}}},
				{submit(1, 20, nodes{0}, 1), []dep{{Q: 1, N: 0}}},
				{submit(1, 40, nodes{0}, 0), []dep{{Q: 2, N: 0}}},
				{groupsOn(0), []ids{{0}, {1}, {2}}},
			},
		},
		{
			// Query 0 owns the leaf instance on node 1; query 1 owns the root
			// on node 0 and rides that leaf; query 2 rides both, so its leaf
			// subscription is silent. When query 1 leaves, query 2 inherits
			// the root and its leaf subscription must start feeding it.
			name: "primary retract with a riding downstream flips the emit bit", sharing: SharingFull, members: 3,
			steps: []step{
				{submit(2, 20, nodes{2, 1}, 0), []dep{{Q: 0, F: 0, N: 2}, {Q: 0, F: 1, N: 1}}},
				{submit(2, 20, nodes{0, 1}, 0), []dep{{Q: 1, F: 0, N: 0}, {Q: 1, F: 1, N: 1, Attach: true, P: 0, Emit: true}}},
				{submit(2, 20, nodes{0, 1}, 0), []dep{{Q: 2, F: 0, N: 0, Attach: true, P: 1, Emit: true}, {Q: 2, F: 1, N: 1, Attach: true, P: 0}}},
				{retract(1), retraction{
					At:     nodes{0, 1},
					Promos: []Promotion{{Node: 0, OldQ: 1, NewQ: 2, Frag: 0}},
					Flips:  []EmitFlip{{Node: 1, Query: 2, Frag: 1, Emit: true}},
				}},
				{groupsOn(1), []ids{{0, 2}}},
				{sweep(), []EmitFlip(nil)},
			},
		},
		{
			// Node 1 holds a group's primary and two riders; node 0 holds a
			// warm instance of the same shape. The displaced three land on
			// node 0 together and re-share under the recovery pin — with each
			// other, never with the warm instance.
			name: "kill of a primary and two riders re-shares under the recovery pin", sharing: SharingFull, members: 3,
			steps: []step{
				{submit(1, 20, nodes{0}, 0), []dep{{Q: 0, N: 0}}},
				{submit(1, 20, nodes{1}, 0), []dep{{Q: 1, N: 1}}},
				{submit(1, 20, nodes{1}, 0), []dep{{Q: 2, N: 1, Attach: true, P: 1, Emit: true}}},
				{submit(1, 20, nodes{1}, 0), []dep{{Q: 3, N: 1, Attach: true, P: 1, Emit: true}}},
				{fail(1), ids{1, 2, 3}},
				{fail(1), false},
				{groupsOn(1), []ids(nil)},
				{replace(1, 7), []dep{{Q: 1, N: 0}}},
				{replace(2, 7), []dep{{Q: 2, N: 0, Attach: true, P: 1, Emit: true}}},
				{replace(3, 7), []dep{{Q: 3, N: 0, Attach: true, P: 1, Emit: true}}},
				{sweep(), []EmitFlip(nil)},
				{groupsOn(0), []ids{{0}, {1, 2, 3}}},
			},
		},
		{
			name: "retract between fail and the last re-deploy stands down", sharing: SharingFull, members: 3,
			steps: []step{
				{submit(1, 20, nodes{1}, 0), []dep{{Q: 0, N: 1}}},
				{submit(1, 20, nodes{1}, 0), []dep{{Q: 1, N: 1, Attach: true, P: 0, Emit: true}}},
				{submit(1, 20, nodes{1}, 0), []dep{{Q: 2, N: 1, Attach: true, P: 0, Emit: true}}},
				{fail(1), ids{0, 1, 2}},
				{replace(0, 3), []dep{{Q: 0, N: 0}}},
				// The displaced rider's group died with the node: no promotion.
				{retract(1), retraction{At: nodes{1}}},
				{replace(1, 3), []dep{}},
				{replace(2, 3), []dep{{Q: 2, N: 0, Attach: true, P: 0, Emit: true}}},
				{groupsOn(0), []ids{{0, 2}}},
			},
		},
		{
			// The auto-placer restarts over the survivors, and a submission
			// carrying the recovery's pin never shares with the re-placed
			// instance: the recovery's keys are tagged apart from a
			// submission's, so a fresh query cannot ride restored state.
			name: "submit in the same pin as a kill places on survivors", sharing: SharingFull, members: 3,
			steps: []step{
				{submit(1, 20, nil, 0), []dep{{Q: 0, N: 0}}},
				{submit(1, 20, nil, 0), []dep{{Q: 1, N: 1}}},
				{fail(0), ids{0}},
				{replace(0, 5), []dep{{Q: 0, N: 1}}},
				{submit(1, 20, nil, 5), []dep{{Q: 2, N: 1}}},
				{submit(1, 20, nil, 5), []dep{{Q: 3, N: 2}}},
				{submit(1, 20, nodes{0}, 5), nil},
			},
			check: func(t *testing.T, got any) {
				if _, isErr := got.(error); !isErr {
					t.Errorf("explicit placement on the dead node accepted: %v", got)
				}
			},
		},
		{
			name: "too few survivors is unplaceable and leaves the query alone", sharing: SharingFull, members: 3,
			steps: []step{
				{submit(3, 20, nodes{0, 1, 2}, 0), []dep{{Q: 0, F: 0, N: 0}, {Q: 0, F: 1, N: 1}, {Q: 0, F: 2, N: 2}}},
				{fail(1), ids{0}},
				{replace(0, 1), nil},
			},
			check: unplaceable,
		},
		{
			name: "keyed and off never index", sharing: SharingOff, members: 1,
			steps: []step{
				{submit(1, 20, nodes{0}, 0), []dep{{Q: 0, N: 0}}},
				{submit(1, 20, nodes{0}, 0), []dep{{Q: 1, N: 0}}},
				{groupsOn(0), []ids(nil)},
				{retract(0), retraction{At: nodes{0}}},
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			p := New(Config{Seed: 3, Sharing: sc.sharing})
			for i := 0; i < sc.members; i++ {
				p.Join()
			}
			for i, st := range sc.steps {
				got := st.do(t, p)
				if i == len(sc.steps)-1 && sc.check != nil {
					sc.check(t, got)
				} else if !reflect.DeepEqual(got, st.want) {
					t.Fatalf("step %d: got %+v, want %+v", i, got, st.want)
				}
			}
		})
	}
}

// TestUnplaceableKeepsTheQuery: the engine retires an unplaceable query
// through Retract, so Replace must have left it intact.
func TestUnplaceableKeepsTheQuery(t *testing.T) {
	p := New(Config{Sharing: SharingFull})
	p.Join()
	p.Join()
	submit(2, 20, nodes{0, 1}, 0)(t, p)
	p.Fail(1)
	if _, _, err := p.Replace(0, 1); !errors.Is(err, ErrUnplaceable) {
		t.Fatalf("Replace: %v, want ErrUnplaceable", err)
	}
	if q := p.Query(0); q == nil || !reflect.DeepEqual(q.Placement, nodes{0, 1}) {
		t.Fatalf("unplaceable query disturbed: %+v", q)
	}
	if at, _, _, ok := p.Retract(0); !ok || !reflect.DeepEqual(at, nodes{0, 1}) {
		t.Fatalf("retiring the query: %v %v", at, ok)
	}
}

// TestPlacementValidation covers every way an explicit placement or a
// rate is refused, and that a refusal consumes no query id.
func TestPlacementValidation(t *testing.T) {
	p := New(Config{})
	for i := 0; i < 3; i++ {
		p.Join()
	}
	p.Fail(2)
	plan, shape, err := p.Plan(avgAll, 2, sources.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	for name, at := range map[string]nodes{
		"too few": {0}, "too many": {0, 1, 0}, "out of range": {0, 3}, "negative": {-1, 0},
		"dead": {0, 2}, "duplicate": {1, 1},
	} {
		if _, _, err := p.Submit(plan, shape, 0, 20, at, 0); err == nil {
			t.Errorf("%s placement %v accepted", name, at)
		}
	}
	if _, err := p.Place(3); err == nil {
		t.Error("placed 3 fragments on 2 live nodes")
	}
	for _, rate := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1), 1e300, MaxRate * 2} {
		if _, _, err := p.Submit(plan, shape, 0, rate, nil, 0); err == nil {
			t.Errorf("rate %g accepted", rate)
		}
	}
	q, _, err := p.Submit(plan, shape, 0, MaxRate, nodes{1, 0}, 0)
	if err != nil || q.ID != 0 {
		t.Fatalf("valid placement after refusals: id %v, err %v", q, err)
	}
	if _, err := New(Config{Placement: "nope"}).Place(1); err == nil {
		t.Error("placing with no members succeeded")
	}
	bad := New(Config{Placement: "nope"})
	bad.Join()
	if _, err := bad.Place(1); err == nil {
		t.Error("unknown strategy accepted")
	}
}

// TestSeedsAndKeys pins the one identity format by its relations: a
// query's seeds depend on (base seed, shape, rate, fragment) and nothing
// else — not the sharing mode, not the pin; compat keys are share keys
// without the pin.
func TestSeedsAndKeys(t *testing.T) {
	deploys := func(cfg Config, rate float64, pin int64) []Deploy {
		p := New(cfg)
		p.Join()
		p.Join()
		plan, shape, err := p.Plan(avgAll, 2, sources.Uniform)
		if err != nil {
			t.Fatal(err)
		}
		// A first query so the one under test is not id 0.
		if _, _, err := p.Submit(plan, shape, 0, rate, nodes{0, 1}, pin); err != nil {
			t.Fatal(err)
		}
		_, cmds, err := p.Submit(plan, shape, 0, rate, nodes{1, 0}, pin)
		if err != nil {
			t.Fatal(err)
		}
		return cmds
	}
	full := deploys(Config{Seed: 7, Sharing: SharingFull}, 20, 0)
	if full[0].Seed == full[1].Seed {
		t.Fatalf("fragments of one query must draw distinct structural seeds: %+v", full)
	}
	same := func(a, b []Deploy) bool { return a[0].Seed == b[0].Seed && a[1].Seed == b[1].Seed }
	off := deploys(Config{Seed: 7}, 20, 9)
	if !same(full, off) {
		t.Error("structural seed depends on the sharing mode or the pin")
	}
	if same(full, deploys(Config{Seed: 8, Sharing: SharingFull}, 20, 0)) {
		t.Error("structural seed ignores the base seed")
	}
	if same(full, deploys(Config{Seed: 7}, 40, 0)) {
		t.Error("structural seed ignores the rate")
	}
	if full[0].ShareKey == full[1].ShareKey || full[0].ShareKey == deploys(Config{Seed: 7, Sharing: SharingFull}, 20, 1)[0].ShareKey {
		t.Error("share keys must differ by fragment and by pin")
	}
	if off[0].ShareKey != "" || off[0].Attach || off[1].Attach {
		t.Errorf("sharing off deploys: %+v, want private", off)
	}

	p := New(Config{Sharing: SharingFull})
	p.Join()
	plan, shape, _ := p.Plan(avgAll, 1, sources.Uniform)
	a, _, _ := p.Submit(plan, shape, 0, 20, nodes{0}, 0)
	b, _, _ := p.Submit(plan, shape, 0, 20, nodes{0}, 5)
	c, _, _ := p.Submit(plan, shape, 0, 40, nodes{0}, 0)
	if !a.compatible(b) || a.ShareKey(0) == b.ShareKey(0) {
		t.Error("state compatibility must be the share identity without its pin")
	}
	if a.compatible(c) {
		t.Error("state compatibility must keep rates apart")
	}
}

// TestFeedIdentity pins the feed's place in the identity format: feed 0
// keeps the seed and share key a submission had before feeds existed,
// and two feeds of one statement draw distinct seeds and neither share
// an instance nor warm-start each other.
func TestFeedIdentity(t *testing.T) {
	p := New(Config{Seed: 7, Sharing: SharingFull})
	p.Join()
	p.Join()
	plan, shape, err := p.Plan(avgAll, 2, sources.Uniform)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(feed int) (*Query, []Deploy) {
		t.Helper()
		q, cmds, err := p.Submit(plan, shape, feed, 20, nodes{0, 1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return q, cmds
	}
	q0, d0 := submit(0)
	if d0[0].Seed != 0x3ff2ed49e7d08989 || d0[1].Seed != 0x3ff2ecc9e7d088b0 {
		t.Errorf("feed 0 seeds moved: %#x %#x", d0[0].Seed, d0[1].Seed)
	}
	if d0[0].ShareKey != "stb8414273f2de4a58|f0|r20|p0" || d0[1].ShareKey != "stf0b43b60e860c719|f1|r20|p0" {
		t.Errorf("feed 0 share keys moved: %q %q", d0[0].ShareKey, d0[1].ShareKey)
	}
	q1, d1 := submit(1)
	q2, d2 := submit(2)
	for f := range d0 {
		if d0[f].Seed == d1[f].Seed || d1[f].Seed == d2[f].Seed || d0[f].Seed == d2[f].Seed {
			t.Errorf("fragment %d: feeds share a seed: %#x %#x %#x", f, d0[f].Seed, d1[f].Seed, d2[f].Seed)
		}
		if d1[f].Attach || d2[f].Attach || d1[f].ShareKey == d0[f].ShareKey || d1[f].ShareKey == d2[f].ShareKey {
			t.Errorf("fragment %d: feeds share an instance: %+v %+v", f, d1[f], d2[f])
		}
	}
	if q0.compatible(q1) || q1.compatible(q2) || q1.compatible(q0) {
		t.Error("queries on different feeds must not warm-start each other")
	}
	if _, again := submit(1); !again[0].Attach || again[0].ShareKey != d1[0].ShareKey {
		t.Errorf("a second query on feed 1 must ride the first: %+v", again[0])
	}
}

// TestReplacementIgnoresHistory is the re-placement rule: the strategy
// over the ascending survivors not hosting the query, seeded from the
// configured seed and the query id — so two planes that reached the same
// membership and placements by different routes (one burned placer draws
// and query ids the way a busy controller does) choose the same hosts.
func TestReplacementIgnoresHistory(t *testing.T) {
	for _, strategy := range []string{"round-robin", "uniform", "zipf"} {
		run := func(busy bool) [][]dep {
			p := New(Config{Placement: strategy, Seed: 11})
			for i := 0; i < 8; i++ {
				p.Join()
			}
			if busy {
				for i := 0; i < 5; i++ {
					if _, err := p.Place(3); err != nil {
						t.Fatal(err)
					}
				}
			}
			submit(3, 20, nodes{1, 2, 3}, 0)(t, p)
			submit(2, 20, nodes{4, 1}, 0)(t, p)
			submit(1, 20, nodes{1}, 0)(t, p)
			p.Fail(1)
			var out [][]dep
			for q := stream.QueryID(0); q < 3; q++ {
				out = append(out, replace(q, 1)(t, p).([]dep))
			}
			return out
		}
		quiet, busy := run(false), run(true)
		if !reflect.DeepEqual(quiet, busy) {
			t.Errorf("%s: re-placement depends on history:\n%v\nvs\n%v", strategy, quiet, busy)
		}
		for q, cmds := range quiet {
			for _, c := range cmds {
				if c.N == 1 {
					t.Errorf("%s: query %d re-placed onto the dead node", strategy, q)
				}
			}
		}
		if strategy == "round-robin" && !reflect.DeepEqual(quiet[0], []dep{{Q: 0, F: 0, N: 0}}) {
			t.Errorf("round-robin must pick the lowest-numbered free survivor: %v", quiet[0])
		}
	}
}

// TestMembershipEpochs: joins and failures restart the auto-placer over
// the live nodes and drop cached plans; subtree keys survive.
func TestMembershipEpochs(t *testing.T) {
	p := New(Config{Sharing: SharingFull})
	p.Join()
	p.Join()
	for i := 0; i < 3; i++ {
		submit(1, 20, nil, 0)(t, p)
	}
	if got := p.PlanCacheStats(); got.Misses != 1 || got.Hits != 2 {
		t.Fatalf("plan cache before churn: %+v", got)
	}
	if n := p.Join(); n != 2 || !p.Alive(2) || p.Alive(3) {
		t.Fatalf("join: got id %d, alive(2)=%v alive(3)=%v", n, p.Alive(2), p.Alive(3))
	}
	// Round-robin restarted at node 0 although the cursor stood at 1.
	if got := submit(1, 20, nil, 0)(t, p); !reflect.DeepEqual(got, []dep{{Q: 3, N: 0, Attach: true, P: 0, Emit: true}}) {
		t.Fatalf("first placement after a join: %+v", got)
	}
	if got := p.PlanCacheStats(); got.Misses != 2 {
		t.Fatalf("join did not invalidate the plan cache: %+v", got)
	}
	p.Fail(0)
	if got := submit(1, 20, nil, 0)(t, p); !reflect.DeepEqual(got, []dep{{Q: 4, N: 1, Attach: true, P: 1, Emit: true}}) {
		t.Fatalf("first placement after a failure: %+v", got)
	}
}

// TestCheckRun: every run the repository configures — the paper's
// 250 ms / 10 s, the fairness sweep's intervals down to 25 ms, the
// 100 s STW row, the benchmark's and tests' 50–100 ms runs — passes the
// bounds a host checks a hello against, and every run that would
// overflow a duration, allocate an unbounded ring or tick never is
// refused.
func TestCheckRun(t *testing.T) {
	for _, r := range []struct {
		stw, interval stream.Duration
		ckpt          int64
	}{
		{10 * stream.Second, 250, 0}, {10 * stream.Second, 25, 0}, {100 * stream.Second, 250, 0},
		{2 * stream.Second, 50, 0}, {3 * stream.Second, 100, 3}, {stream.Second, 1000, 1},
		{MaxSTWSlots * MaxInterval, MaxInterval, math.MaxInt64}, {1, 1, 0},
	} {
		if err := CheckRun(r.stw, r.interval, r.ckpt); err != nil {
			t.Errorf("CheckRun(%d, %d, %d): %v, want admitted", r.stw, r.interval, r.ckpt, err)
		}
	}
	for _, r := range []struct {
		stw, interval stream.Duration
		ckpt          int64
	}{
		{1 << 50, 1, 0}, {2000, 1 << 62, 0}, {2000, 0, 0}, {2000, -1, 0}, {0, 250, 0}, {-1, 250, 0},
		{MaxSTWSlots*250 + 1, 250, 0}, {math.MaxInt64, MaxInterval, 0}, {2000, MaxInterval + 1, 0}, {2000, 50, -1},
	} {
		if err := CheckRun(r.stw, r.interval, r.ckpt); err == nil {
			t.Errorf("CheckRun(%d, %d, %d) admitted", r.stw, r.interval, r.ckpt)
		}
	}
}

// TestCheckpointTicks pins the one cadence rule: max(1, ckpt/interval)
// ticks, rounding down, and off for a cadence of zero or less.
func TestCheckpointTicks(t *testing.T) {
	for _, r := range []struct {
		ckpt, interval stream.Duration
		want           int64
	}{
		{0, 250, 0}, {-5, 250, 0}, {1, 250, 1}, {250, 250, 1}, {499, 250, 1}, {500, 250, 2},
		{300, 100, 3}, {350, 100, 3}, {10 * stream.Second, 250, 40},
	} {
		if got := CheckpointTicks(r.ckpt, r.interval); got != r.want {
			t.Errorf("CheckpointTicks(%d, %d) = %d, want %d", r.ckpt, r.interval, got, r.want)
		}
	}
}
