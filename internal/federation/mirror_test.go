package federation

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stream"
)

// Plane-equals-hosts property: the control plane's share index is
// maintained through an event sequence without ever asking a node, and
// after every event it must equal what the nodes — which obey the
// plane's commands, or refuse them — actually hold. The engine already
// stops on a refused command (refused in placeFragment, RemoveQuery and
// applyFlips, a panic this test turns into a failure); checkMirror adds
// the state comparison: every group's primary executes, every other
// member rides the primary's instance and declares the primary's rate
// (the rate pin: the schedule submits the same shapes at 20 and 40
// tuples/s), and the hosts hold no instance or subscription the plane
// does not know.

// checkMirror compares the plane's share index with the live nodes.
func checkMirror(e *Engine) error {
	for ni := 0; ni < e.NumNodes(); ni++ {
		n := stream.NodeID(ni)
		if !e.NodeAlive(n) {
			if len(e.plane.Groups(n)) != 0 {
				return fmt.Errorf("dead node %d still has %d groups in the plane", n, len(e.plane.Groups(n)))
			}
			continue
		}
		nd := e.Node(n)
		groups, riders := 0, 0
		for key, members := range e.plane.Groups(n) {
			groups++
			riders += len(members) - 1
			for i, m := range members {
				f := -1
				cq := e.plane.Query(m)
				for fi, at := range cq.Placement {
					if at == n && cq.ShareKey(fi) == key {
						f = fi
					}
				}
				if f < 0 {
					return fmt.Errorf("node %d key %q: member %d has no fragment indexed there", n, key, m)
				}
				p, rides := nd.RidesOn(m, stream.FragID(f))
				if i == 0 && (rides || !nd.HostsFragment(m, stream.FragID(f))) {
					return fmt.Errorf("node %d key %q: primary %d does not execute fragment %d (rides %d: %v)", n, key, m, f, p, rides)
				}
				if i > 0 && (!rides || p != members[0]) {
					return fmt.Errorf("node %d key %q: member #%d (query %d fragment %d) rides %d (%v), plane says %d", n, key, i, m, f, p, rides, members[0])
				}
				if prim := e.plane.Query(members[0]); cq.Rate != prim.Rate {
					return fmt.Errorf("node %d key %q: query %d at rate %g shares query %d's instance at %g", n, key, m, cq.Rate, members[0], prim.Rate)
				}
			}
		}
		if ss := nd.StateSize(); ss.SharedInstances != groups || ss.Subscriptions != riders {
			return fmt.Errorf("node %d holds %d instances and %d subscriptions, plane counts %d and %d",
				n, ss.SharedInstances, ss.Subscriptions, groups, riders)
		}
	}
	return nil
}

// shareSchedule drives trial's random schedule of 40 events on a fresh
// 4-node engine built from cfg: submissions of two shapes at 20 and 40
// tuples/s (half of them stacked on the lowest live nodes so groups
// form), retracts, kills, joins and double steps, then a retract of every
// query still live. check, if not nil, runs after every event. The draws
// read only the membership and which queries are live, so one trial is
// one schedule whatever cfg's sharing mode or checkpoint cadence.
func shareSchedule(t *testing.T, trial int64, cfg Config, check func(e *Engine) error) *Engine {
	t.Helper()
	shapes := []string{
		"Select Avg(t.v) From AllSrc[Range 1 sec]",
		"Select Count(t.v) From Src[Range 1 sec]",
	}
	rng := rand.New(rand.NewSource(trial))
	cfg.Seed = trial
	cfg.SourceRate = 20
	cfg.Placement = []string{"round-robin", "uniform", "zipf"}[trial%3]
	e := NewEngine(cfg)
	e.AddNodes(4, 1e8)
	var live []stream.QueryID
	var log []string
	event := func(what string, do func()) {
		t.Helper()
		log = append(log, what)
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("trial %d: %v\nschedule: %v", trial, p, log)
			}
		}()
		do()
		if check == nil {
			return
		}
		if err := check(e); err != nil {
			t.Fatalf("trial %d after %s: %v\nschedule: %v", trial, what, err, log)
		}
	}
	for step := 0; step < 40; step++ {
		switch r := rng.Intn(10); {
		case r < 5:
			shape, frags := rng.Intn(len(shapes)), 1
			if shape == 0 {
				frags = 1 + rng.Intn(3)
			}
			var at []stream.NodeID
			if rng.Intn(2) == 0 {
				// Stack on the low nodes so groups actually form.
				for n := 0; len(at) < frags && n < e.NumNodes(); n++ {
					if e.NodeAlive(stream.NodeID(n)) {
						at = append(at, stream.NodeID(n))
					}
				}
				if len(at) < frags {
					continue
				}
			}
			rate := []float64{20, 40}[rng.Intn(2)]
			event(fmt.Sprintf("submit(shape %d, %d frags, rate %g, at %v)", shape, frags, rate, at), func() {
				if q, err := e.SubmitCQL(shapes[shape], frags, 1, rate, at); err == nil {
					live = append(live, q)
				}
			})
		case r < 7 && len(live) > 0:
			i := rng.Intn(len(live))
			q := live[i]
			live = append(live[:i], live[i+1:]...)
			event(fmt.Sprintf("retract(%d)", q), func() { e.RemoveQuery(q) })
		case r == 7:
			n := stream.NodeID(rng.Intn(e.NumNodes()))
			event(fmt.Sprintf("kill(%d)", n), func() { e.KillNode(n) })
			// A kill retires queries it cannot re-place.
			kept := live[:0]
			for _, q := range live {
				if e.plane.Query(q) != nil {
					kept = append(kept, q)
				}
			}
			live = kept
		case r == 8:
			event("join", func() { e.AddNode(1e8) })
		default:
			// Let time pass: later submissions carry a later pin, and
			// batches are in transit when the next retract relabels.
			event("step", func() { e.Step(); e.Step() })
		}
	}
	for _, q := range live {
		event(fmt.Sprintf("drain retract(%d)", q), func() { e.RemoveQuery(q) })
	}
	return e
}

func TestShareMirrorEqualsHosts(t *testing.T) {
	for trial := int64(0); trial < 25; trial++ {
		cfg := Defaults()
		cfg.Sharing = SharingFull
		e := shareSchedule(t, trial, cfg, checkMirror)
		for ni := 0; ni < e.NumNodes(); ni++ {
			if n := stream.NodeID(ni); e.NodeAlive(n) {
				if ss := e.Node(n).StateSize(); ss.Fragments+ss.SharedInstances+ss.Subscriptions != 0 {
					t.Fatalf("trial %d: node %d not drained: %+v", trial, n, ss)
				}
			}
		}
	}
}

// TestShareSchedulesOffEqualsFull runs every mirror schedule under
// SharingOff and SharingFull, with checkpoints off and every 500 ms, and
// requires the same query facts: every query's per-tick SIC series (no
// warmup, so every tick counts), its mean, and the fairness and
// coordinator totals. Nodes are far above load, so sharing may change
// only how much work is done, never a result.
func TestShareSchedulesOffEqualsFull(t *testing.T) {
	for trial := int64(0); trial < 25; trial++ {
		for _, ckpt := range []stream.Duration{0, 500 * stream.Millisecond} {
			run := func(mode Sharing) *Results {
				cfg := Defaults()
				cfg.Sharing = mode
				cfg.Checkpoint = ckpt
				cfg.Warmup = 0
				cfg.KeepSamples = true
				return queryFacts(shareSchedule(t, trial, cfg, nil).Results())
			}
			if off, full := run(SharingOff), run(SharingFull); !reflect.DeepEqual(off, full) {
				t.Errorf("trial %d, checkpoint every %d ms: SharingFull diverges from SharingOff:\n%+v\nvs\n%+v", trial, ckpt, full, off)
			}
		}
	}
}
