package transport

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/federation"
	"repro/internal/stream"
)

// Table 1 statements the networked tests deploy.
const (
	avgCQL    = "Select Avg(t.v) From Src[Range 1 sec]"
	avgAllCQL = "Select Avg(t.v) From AllSrc[Range 1 sec]"
)

// startNodes spins up n loopback node servers and returns their
// addresses plus a closer.
func startNodes(t *testing.T, n int, capacity float64) ([]string, []*NodeServer) {
	t.Helper()
	addrs := make([]string, 0, n)
	srvs := make([]*NodeServer, 0, n)
	for i := 0; i < n; i++ {
		srv, err := NewNodeServer(NodeServerConfig{
			Name:           "n" + string(rune('0'+i)),
			Addr:           "127.0.0.1:0",
			CapacityPerSec: capacity,
			Policy:         "balance-sic",
			Seed:           int64(i + 1),
			Quiet:          true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr())
		srvs = append(srvs, srv)
	}
	return addrs, srvs
}

// testController connects a controller to addrs, closed when the test
// ends. Before Run no loop runs, so the test may apply the step methods
// itself, each wrapped in ctrl.step.
func testController(t testing.TB, cfg ControllerConfig, addrs []string) *Controller {
	t.Helper()
	c, err := NewController(cfg, addrs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.CloseAll)
	return c
}

// TestDistributedCQLEndToEnd deploys a three-fragment CQL query across
// three live TCP node servers and checks its per-query SIC against the
// virtual-time engine running the identical plan. Both federations are
// underloaded, so both must process essentially all source information:
// the networked SIC can only reach that level if node→node batch routing
// delivers every non-root fragment's partials to the root.
func TestDistributedCQLEndToEnd(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("wall-clock federation test in -short mode")
	}
	const (
		cqlText  = "Select Avg(t.v) From AllSrc[Range 1 sec]"
		frags    = 3
		dataset  = 1 // uniform
		rate     = 20.0
		batches  = 4.0
		capacity = 50_000.0
	)
	addrs, _ := startNodes(t, 3, capacity)
	ctrl, err := NewController(ControllerConfig{
		STW:      3 * stream.Second,
		Interval: 100 * stream.Millisecond,
		Seed:     1,
	}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.CloseAll()

	placement, err := ctrl.AutoPlace(frags)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctrl.Submit(cqlText, frags, dataset, rate, batches, placement)
	if err != nil {
		t.Fatal(err)
	}

	var sicSamples int
	ctrl.OnSIC(func(_ stream.QueryID, _ stream.Time, _ float64) { sicSamples++ })

	res, err := ctrl.Run(8*time.Second, 4*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	netSIC := res.PerQuery[q]

	// The same statement on the virtual-time engine, on the same feed and
	// seed (so the same source data), same STW/interval, also
	// underloaded.
	cfg := federation.Defaults()
	cfg.STW = 3 * stream.Second
	cfg.Interval = 100 * stream.Millisecond
	cfg.Duration = 24 * stream.Second
	cfg.Warmup = 12 * stream.Second
	cfg.SourceRate = rate
	cfg.BatchesPerSec = batches
	cfg.Seed = 1
	eng := federation.NewEngine(cfg)
	eng.AddNodes(3, capacity)
	vq, err := eng.Submit(federation.QuerySubmit{CQL: cqlText, Fragments: frags, Dataset: dataset, Rate: rate, Placement: []stream.NodeID{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	vres := eng.Run()
	virtSIC := vres.Queries[int(vq)].MeanSIC
	t.Logf("networked SIC %.4f, virtual-time SIC %.4f, gap %.4f", netSIC, virtSIC, math.Abs(netSIC-virtSIC))
	if math.Abs(netSIC-virtSIC) > 0.15 {
		t.Errorf("networked SIC %.3f vs virtual-time SIC %.3f: disagree beyond tolerance", netSIC, virtSIC)
	}
	if netSIC < 0.85 {
		// Root fragment alone holds 10 of 30 sources; a SIC this high is
		// only reachable when the other fragments' partials arrive over
		// the wire.
		t.Errorf("networked SIC %.3f: cross-node partials apparently missing", netSIC)
	}
	if len(res.Nodes) != 3 {
		t.Fatalf("stats from %d nodes, want 3: %+v", len(res.Nodes), res.Nodes)
	}
	for _, ns := range res.Nodes {
		if ns.ArrivedTuples == 0 {
			t.Errorf("node %s saw no tuples — fragment not placed there?", ns.Node)
		}
	}
	if sicSamples == 0 {
		t.Error("OnSIC streamed no samples")
	}
}

// TestStopWaitsForStats is the regression test for the stop handshake:
// every run must deterministically deliver the final stats of every
// node, and the handshake must complete well inside the stop timeout.
func TestStopWaitsForStats(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("wall-clock federation test in -short mode")
	}
	for round := 0; round < 3; round++ {
		addrs, _ := startNodes(t, 2, 2000)
		ctrl, err := NewController(ControllerConfig{
			STW:      2 * stream.Second,
			Interval: 50 * stream.Millisecond,
			Seed:     int64(round),
		}, addrs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctrl.Submit(avgAllCQL, 2, 1, 60, 4, []int{0, 1}); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		res, err := ctrl.Run(700*time.Millisecond, 0)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > 700*time.Millisecond+stopTimeout {
			t.Errorf("round %d: run took %v — stop handshake hit the timeout", round, elapsed)
		}
		if len(res.Nodes) != 2 {
			t.Fatalf("round %d: stats from %d nodes, want 2", round, len(res.Nodes))
		}
		seen := map[string]bool{}
		for _, ns := range res.Nodes {
			seen[ns.Node] = true
			if ns.ArrivedTuples == 0 {
				t.Errorf("round %d: node %s reported empty stats", round, ns.Node)
			}
		}
		if len(seen) != 2 {
			t.Errorf("round %d: duplicate stats: %+v", round, res.Nodes)
		}
		ctrl.CloseAll()
	}
}

// TestRunSurfacesNodeFailure kills one node server mid-run: Run must
// return the failure promptly instead of hanging until the deadline.
func TestRunSurfacesNodeFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock federation test in -short mode")
	}
	addrs, srvs := startNodes(t, 2, 2000)
	ctrl, err := NewController(ControllerConfig{
		STW:      2 * stream.Second,
		Interval: 50 * stream.Millisecond,
		Seed:     1,
	}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.CloseAll()
	if _, err := ctrl.Submit(avgAllCQL, 2, 1, 60, 4, []int{0, 1}); err != nil {
		t.Fatal(err)
	}

	go func() {
		time.Sleep(500 * time.Millisecond)
		srvs[0].Close()
	}()
	start := time.Now()
	_, err = ctrl.Run(30*time.Second, 0)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Run returned no error after a node died mid-run")
	}
	if !strings.Contains(err.Error(), "aborted") {
		t.Errorf("unexpected error: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("failure surfaced only after %v", elapsed)
	}
}

// TestSubmitValidation exercises controller-side placement and
// statement checks.
func TestSubmitValidation(t *testing.T) {
	addrs, _ := startNodes(t, 2, 1000)
	ctrl, err := NewController(ControllerConfig{Seed: 1}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.CloseAll()
	if _, err := ctrl.Submit("Select Nope(", 1, 0, 10, 1, []int{0}); err == nil {
		t.Error("malformed CQL accepted")
	}
	if _, err := ctrl.Submit(avgCQL, 2, 0, 10, 1, []int{0, 0}); err == nil {
		t.Error("duplicate placement accepted")
	}
	if _, err := ctrl.Submit(avgCQL, 2, 0, 10, 1, []int{0, 7}); err == nil {
		t.Error("out-of-range placement accepted")
	}
	if _, err := ctrl.Submit(avgAllCQL, 2, 0, 10, 1, []int{0}); err == nil {
		t.Error("placement length mismatch accepted")
	}
	for _, bad := range []struct{ rate, batches float64 }{
		{0, 1}, {-1, 1}, {math.NaN(), 1}, {math.Inf(1), 1}, {1e300, 1}, {control.MaxRate * 2, 1},
		{10, 0}, {10, -1}, {10, math.NaN()}, {10, math.Inf(1)}, {10, control.MaxRate * 2},
	} {
		if _, err := ctrl.Submit(avgCQL, 1, 0, bad.rate, bad.batches, nil); err == nil {
			t.Errorf("%g tuples/s in %g batches/s accepted", bad.rate, bad.batches)
		}
	}
	if q, err := ctrl.Submit(avgCQL, 1, 0, 10, 1, nil); err != nil || q != 0 {
		t.Errorf("valid submit after refusals: id %d, err %v; want id 0", q, err)
	}
	if _, err := ctrl.AutoPlace(3); err == nil {
		t.Error("AutoPlace over-subscribed 2 nodes with 3 fragments")
	}
	if p, err := ctrl.AutoPlace(2); err != nil || len(p) != 2 || p[0] == p[1] {
		t.Errorf("AutoPlace: %v %v", p, err)
	}
}

// TestControllerRefusesUnrunnableRun: NewController checks its own run
// with the bound every host checks a hello against, so a run no host
// would build from fails here, before any node is dialled.
func TestControllerRefusesUnrunnableRun(t *testing.T) {
	for _, cfg := range []ControllerConfig{
		{STW: 1 << 50, Interval: 1},
		{Interval: 1 << 62},
		{STW: 100 * stream.Second, Interval: 1},
	} {
		if _, err := NewController(cfg, []string{"127.0.0.1:1"}); err == nil || !strings.Contains(err.Error(), "control:") {
			t.Errorf("NewController(STW %d, interval %d): %v, want the run refused", cfg.STW, cfg.Interval, err)
		}
	}
}

// TestNodeServerRefusesUnknownPolicy: a host runs BALANCE-SIC or random
// shedding and nothing else; any other name is an error, not a silent
// BALANCE-SIC.
func TestNodeServerRefusesUnknownPolicy(t *testing.T) {
	for _, p := range []string{"", "balance-sic", "random"} {
		srv, err := NewNodeServer(NodeServerConfig{Addr: "127.0.0.1:0", Policy: p, Quiet: true})
		if err != nil {
			t.Errorf("policy %q refused: %v", p, err)
			continue
		}
		srv.Close()
	}
	for _, p := range []string{"keepall", "BALANCE-SIC", "balance_sic", " random"} {
		if srv, err := NewNodeServer(NodeServerConfig{Addr: "127.0.0.1:0", Policy: p, Quiet: true}); err == nil {
			srv.Close()
			t.Errorf("policy %q accepted", p)
		}
	}
}
