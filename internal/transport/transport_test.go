package transport

import (
	"testing"
	"time"

	"repro/internal/stream"
)

// TestNetworkedFederationEndToEnd spins up two node servers and a
// controller on localhost, runs a short overloaded deployment over real
// sockets and timers, and checks that shedding happened, results flowed
// and fairness was computed.
func TestNetworkedFederationEndToEnd(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("wall-clock federation test in -short mode")
	}
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := NewNodeServer(NodeServerConfig{
			Name:           "n" + string(rune('0'+i)),
			Addr:           "127.0.0.1:0",
			CapacityPerSec: 800,
			Policy:         "balance-sic",
			Seed:           int64(i + 1),
			Quiet:          true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	ctrl, err := NewController(ControllerConfig{
		STW:      4 * stream.Second,
		Interval: 100 * stream.Millisecond,
		Seed:     1,
	}, addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.CloseAll()

	// Two local queries plus one spanning both nodes; demand ~2,400
	// tuples/sec per node against 800 of capacity.
	ids := make([]stream.QueryID, 0, 3)
	for _, placement := range [][]int{{0}, {1}, {0, 1}} {
		id, err := ctrl.Submit(avgAllCQL, len(placement), 1 /* uniform */, 120, 4, placement)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	res, err := ctrl.Run(6*time.Second, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerQuery) != 3 {
		t.Fatalf("per-query results: %v", res.PerQuery)
	}
	for _, id := range ids {
		sic := res.PerQuery[id]
		if sic <= 0.02 || sic > 1.2 {
			t.Errorf("query %d: SIC %.3f implausible", id, sic)
		}
	}
	if res.Jain < 0.7 {
		t.Errorf("networked Jain %.3f", res.Jain)
	}
	var shed int64
	for _, ns := range res.Nodes {
		shed += ns.ShedTuples
	}
	if shed == 0 {
		t.Error("no shedding over the network run")
	}
	if len(res.Nodes) != 2 {
		t.Errorf("stats from %d nodes", len(res.Nodes))
	}
}
