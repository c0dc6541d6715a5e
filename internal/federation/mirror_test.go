package federation

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// Mirror-equals-hosts property: the control plane's share index is
// maintained through an event sequence without ever asking a node, and
// after every event it must equal what the nodes — which decide
// attach-vs-host and promotion on their own, by arrival order — actually
// hold. The engine already stops on a wrong attach prediction or a wrong
// promotion prediction (mirrorFault in placeFragment and RemoveQuery, a
// panic this test turns into a failure); checkMirror adds the state
// comparison: every group's primary executes, every other member rides
// and declares the primary's rate (the rate pin: the schedule submits the
// same shapes at 20 and 40 tuples/s), and the hosts hold no instance or
// subscription the plane does not know.

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
			if q, ok := nd.SharedPrimary(key); !ok || q != members[0] {
				return fmt.Errorf("node %d key %q: host primary %d (present=%v), plane says %d", n, key, q, ok, members[0])
			}
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
				if rides := nd.IsShareSub(m, stream.FragID(f)); rides != (i > 0) {
					return fmt.Errorf("node %d key %q: member #%d (query %d fragment %d) rides=%v", n, key, i, m, f, rides)
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

func TestShareMirrorEqualsHosts(t *testing.T) {
	shapes := []string{
		"Select Avg(t.v) From AllSrc[Range 1 sec]",
		"Select Count(t.v) From Src[Range 1 sec]",
	}
	for trial := int64(0); trial < 25; trial++ {
		rng := rand.New(rand.NewSource(trial))
		cfg := Defaults()
		cfg.Seed = trial
		cfg.Sharing = SharingFull
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
			if err := checkMirror(e); err != nil {
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
		for ni := 0; ni < e.NumNodes(); ni++ {
			if n := stream.NodeID(ni); e.NodeAlive(n) {
				if ss := e.Node(n).StateSize(); ss.Fragments+ss.SharedInstances+ss.Subscriptions != 0 {
					t.Fatalf("trial %d: node %d not drained: %+v\nschedule: %v", trial, n, ss, log)
				}
			}
		}
	}
}
