package transport

import (
	"math"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/stream"
)

// Networked sharing differential tests: sharing over the wire must be
// pure optimisation. A federation running SharingFull over real
// sockets — through submit/retract churn with primary promotion and a
// node kill that re-places shared fragments — must report per-query SIC
// within the wall-clock tolerance of the identical schedule under
// SharingOff, while actually collapsing same-shape fragments onto shared
// instances (the plane's groups asserted against the hosts mid-run).

// mirrorCounts sums the controller's share index — the control plane's
// Groups accessor, the one the engine's plane-equals-hosts test reads —
// into executing instances and riding subscriptions across all nodes.
func mirrorCounts(ctrl *Controller) (groups, riders int) {
	ctrl.mu.Lock()
	defer ctrl.mu.Unlock()
	for n := range ctrl.nodes {
		for _, members := range ctrl.plane.Groups(stream.NodeID(n)) {
			groups++
			riders += len(members) - 1
		}
	}
	return groups, riders
}

// netSharingRun executes one fixed churn schedule under the given
// sharing mode and returns the results keyed by submission order (query
// ids are identical across runs — same controller, same order).
func netSharingRun(t *testing.T, sharing federation.Sharing) (*NetResults, []stream.QueryID, []*NodeServer) {
	t.Helper()
	const (
		cqlText  = "Select Avg(t.v) From AllSrc[Range 1 sec]"
		frags    = 2
		dataset  = 1
		rate     = 20.0
		batches  = 4.0
		capacity = 50_000.0
	)
	addrs, srvs := startNodes(t, 4, capacity)
	ctrl, err := NewController(ControllerConfig{
		STW:      3 * stream.Second,
		Interval: 100 * stream.Millisecond,
		Seed:     1,
		Sharing:  sharing,
	}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.CloseAll)

	// Three same-shape queries stacked on {0,1} — one executing instance
	// plus two subscribers per node under SharingFull — and a fourth on
	// {2,3} as an unchurned reference.
	var qs []stream.QueryID
	for _, placement := range [][]int{{0, 1}, {0, 1}, {0, 1}, {2, 3}} {
		q, err := ctrl.Submit(cqlText, frags, dataset, rate, batches, placement)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}

	// Mid-run shared-state assertion, before any churn: with SharingFull
	// the hosts must have collapsed the stacked queries.
	if sharing == federation.SharingFull {
		time.AfterFunc(4*time.Second, func() {
			instances, subs := 0, 0
			for _, srv := range srvs {
				srv.mu.Lock()
				if srv.nd != nil {
					sz := srv.nd.StateSize()
					instances += sz.SharedInstances
					subs += sz.Subscriptions
				}
				srv.mu.Unlock()
			}
			// Every hosted fragment keeps its share key (4 queries ×
			// 2 fragments − 4 attached = 4 instances); the two stacked
			// riders attach at both fragments.
			if instances != 4 || subs != 4 {
				t.Errorf("mid-run sharing: %d instances, %d subscriptions; want 4 and 4", instances, subs)
			}
			// The plane's index must count what the hosts hold.
			if groups, riders := mirrorCounts(ctrl); groups != instances || riders != subs {
				t.Errorf("mid-run plane: %d groups, %d riders; hosts hold %d instances, %d subscriptions", groups, riders, instances, subs)
			}
		})
	}

	// Churn: retract the executing primary at 5 s (ownership promotes to
	// the next subscriber over the wire), kill the root-hosting node at
	// 7 s (re-places the promoted root and flips the surviving leaf
	// subscriptions' emit bits).
	time.AfterFunc(5*time.Second, func() {
		if err := ctrl.Retract(qs[0]); err != nil {
			t.Errorf("retract primary: %v", err)
		}
	})
	time.AfterFunc(7*time.Second, func() { srvs[0].Close() })

	res, err := ctrl.Run(12*time.Second, 3*time.Second)
	if err != nil {
		t.Fatalf("run (sharing=%v) aborted: %v", sharing, err)
	}
	return res, qs, srvs
}

// TestNetworkedSharingDifferential is the acceptance test for networked
// fragment sharing: full-vs-off per-query SIC within 0.15 through
// promotion and recovery churn, actual dedup on the hosts, and no
// goroutine leak after full teardown. CI runs it under -race.
func TestNetworkedSharingDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock federation test in -short mode")
	}
	t.Parallel()
	leaked := ownGoroutines(t)

	resOff, qsOff, _ := netSharingRun(t, federation.SharingOff)
	resFull, qsFull, srvs := netSharingRun(t, federation.SharingFull)

	for i := range qsOff {
		off, full := resOff.PerQuery[qsOff[i]], resFull.PerQuery[qsFull[i]]
		if math.Abs(off-full) > 0.15 {
			t.Errorf("query #%d: SIC %.3f shared vs %.3f unshared beyond tolerance", i, full, off)
		}
	}
	// The untouched reference query ran underloaded throughout; anything
	// below near-perfect processing means sharing broke its pipeline.
	if v := resFull.PerQuery[qsFull[3]]; v < 0.85 {
		t.Errorf("reference query SIC %.3f under sharing: pipeline disturbed", v)
	}
	// The promoted survivor (second submission) must have kept running
	// through primary retract + root re-placement. Its mean absorbs the
	// ~3 s detection outage around the node kill, so the floor only
	// guards against a fully lost pipeline; the differential check above
	// is the accuracy criterion.
	if v := resFull.PerQuery[qsFull[1]]; v < 0.2 {
		t.Errorf("promoted query SIC %.3f: ownership hand-off lost the pipeline", v)
	}
	if len(resFull.Recoveries) != 1 {
		t.Fatalf("recoveries %+v, want exactly one", resFull.Recoveries)
	}
	requireObeyed(t, srvs)

	for _, s := range srvs {
		s.Close()
	}
	leaked()
}

// requireObeyed fails the test for every host that refused a sharing
// command: the controller's plane decided each one, so a refusal means
// the plane and a host disagree.
func requireObeyed(t *testing.T, srvs []*NodeServer) {
	t.Helper()
	for _, s := range srvs {
		s.mu.Lock()
		n := s.refusedShares
		s.mu.Unlock()
		if n != 0 {
			t.Errorf("host %s refused %d sharing commands", s.Name, n)
		}
	}
}

// TestNetworkedSharingRetractDrainsState: retracting every member of a
// shared group on a live federation must drain the hosts back to their
// pre-deploy footprint — no shared state, no leaked pooled batches —
// while the federation keeps ticking.
func TestNetworkedSharingRetractDrainsState(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("wall-clock federation test in -short mode")
	}
	const cqlText = "Select Avg(t.v) From AllSrc[Range 1 sec]"
	addrs, srvs := startNodes(t, 2, 50_000)
	ctrl, err := NewController(ControllerConfig{
		STW:      2 * stream.Second,
		Interval: 100 * stream.Millisecond,
		Seed:     1,
		Sharing:  federation.SharingFull,
	}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.CloseAll()

	var qs []stream.QueryID
	for i := 0; i < 3; i++ {
		q, err := ctrl.Submit(cqlText, 2, 1, 20, 4, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}

	done := make(chan error, 1)
	go func() {
		_, err := ctrl.Run(8*time.Second, 1*time.Second)
		done <- err
	}()

	// Let the shared pipelines flow, then retract the whole group —
	// primary first, so both promotion and plain detach run on the hosts.
	time.Sleep(3 * time.Second)
	for _, q := range qs {
		if err := ctrl.Retract(q); err != nil {
			t.Errorf("retract %d: %v", q, err)
		}
	}
	// While the federation is still ticking (batches of retracted
	// queries drain through the discard path), the hosts must converge
	// to zero share state and zero live pooled batches.
	deadline := time.Now().Add(4 * time.Second)
	for {
		total, live := 0, int64(0)
		for _, srv := range srvs {
			srv.mu.Lock()
			if srv.nd != nil {
				sz := srv.nd.StateSize()
				total += sz.Fragments + sz.Sources + sz.SharedInstances + sz.Subscriptions + sz.BufferedBatches
			}
			srv.mu.Unlock()
			live += srv.pool.Live()
		}
		if total == 0 && live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retracted share group left %d state units, %d live pooled batches", total, live)
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The plane's groups drained too, and every host obeyed.
	if groups, riders := mirrorCounts(ctrl); groups != 0 || riders != 0 {
		t.Errorf("control plane holds %d groups, %d riders after full retract", groups, riders)
	}
	requireObeyed(t, srvs)
	for _, q := range qs {
		ctrl.mu.Lock()
		left := ctrl.plane.Query(q) != nil
		ctrl.mu.Unlock()
		if left {
			t.Errorf("control plane still records retracted query %d", q)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("run failed: %v", err)
	}
}
