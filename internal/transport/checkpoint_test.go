package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/federation"
	"repro/internal/node"
	"repro/internal/stream"
)

// TestCheckpointedRecoveryEndToEnd is the differential acceptance test
// for checkpointed recovery over the wire: the same 4-node loopback
// topology as TestChurnRecoveryEndToEnd — root fragment's host crashed
// mid-run — but with operator-state checkpointing on. The hosts ship
// sealed snapshots to the controller every cadence; recovery must
// restore the displaced root from its newest blob (RecoveryEvent.
// Restored), carry the query's SIC accounting through the failure
// instead of resetting a recovery epoch, and converge on the
// virtual-time engine running the identical churn schedule with the
// identical checkpoint cadence. Post-recovery both runs sit near SIC 1
// within a slide — the restored window needs no refill — so this also
// pins the "no STW-length dependence" property at the wire level.
func TestCheckpointedRecoveryEndToEnd(t *testing.T) {
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
	addrs, srvs := startNodes(t, 4, capacity)
	ctrl, err := NewController(ControllerConfig{
		STW:        3 * stream.Second,
		Interval:   100 * stream.Millisecond,
		Seed:       1,
		Checkpoint: 300 * time.Millisecond,
	}, addrs[:3])
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.CloseAll()
	if idx, err := ctrl.AddNode(addrs[3]); err != nil || idx != 3 {
		t.Fatalf("AddNode: idx %d, err %v", idx, err)
	}

	placement, err := ctrl.AutoPlace(frags)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ctrl.Submit(cqlText, frags, dataset, rate, batches, placement)
	if err != nil {
		t.Fatal(err)
	}
	rootHost := placement[0]

	go func() {
		time.Sleep(3 * time.Second)
		srvs[rootHost].Close() // crash the root's host mid-run
	}()
	res, err := ctrl.Run(10*time.Second, 6*time.Second)
	if err != nil {
		t.Fatalf("Run aborted on a recoverable failure: %v", err)
	}
	if len(res.Recoveries) != 1 {
		t.Fatalf("recoveries: %+v, want exactly one", res.Recoveries)
	}
	rec := res.Recoveries[0]
	if !rec.Restored {
		t.Errorf("recovery fell back to the legacy epoch reset — no checkpoint blob for the displaced root after %v of %v-cadence checkpointing", rec.At, 300*time.Millisecond)
	}
	if len(rec.Queries) != 1 || rec.Queries[0] != q {
		t.Errorf("recovery re-placed queries %v, want [%d]", rec.Queries, q)
	}
	netSIC := res.PerQuery[q]

	// The deterministic mirror: same statement and source data, same
	// membership, same churn schedule, same checkpoint cadence in virtual
	// time.
	cfg := federation.Defaults()
	cfg.STW = 3 * stream.Second
	cfg.Interval = 100 * stream.Millisecond
	cfg.Duration = 10 * stream.Second
	cfg.Warmup = 6 * stream.Second
	cfg.SourceRate = rate
	cfg.BatchesPerSec = batches
	cfg.Seed = 1
	cfg.Checkpoint = 300 * stream.Millisecond
	eng := federation.NewEngine(cfg)
	eng.AddNodes(4, capacity)
	vq, err := eng.Submit(federation.QuerySubmit{CQL: cqlText, Fragments: frags, Dataset: dataset, Rate: rate, Placement: []stream.NodeID{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for tick := int64(0); tick < int64(cfg.Duration/cfg.Interval); tick++ {
		if tick == 30 {
			eng.KillNode(stream.NodeID(rootHost))
		}
		eng.Step()
	}
	vres := eng.Results()
	virtSIC := vres.Queries[int(vq)].MeanSIC
	t.Logf("networked SIC %.4f, virtual-time SIC %.4f, gap %.4f (recovery: restored=%v, took %v)",
		netSIC, virtSIC, math.Abs(netSIC-virtSIC), rec.Restored, rec.Took)
	if math.Abs(netSIC-virtSIC) > 0.15 {
		t.Errorf("checkpointed networked SIC %.3f vs virtual-time SIC %.3f: disagree beyond tolerance", netSIC, virtSIC)
	}
	// The measurement window opens 3 s after the kill — exactly one STW.
	// A legacy refill would just be completing; a restored window was
	// already settled, so the mean over the window must sit near 1, not
	// blend a refill ramp.
	if netSIC < 0.85 {
		t.Errorf("post-restore SIC %.3f: the restored root did not resume with warm windows", netSIC)
	}
}

// TestHostCheckpointsOnTickCadence: a host told a checkpoint cadence of
// k ticks ships a round after every k-th tick it runs — the engine's
// rule — so a host stopped after n ticks has run exactly ⌊n/k⌋ rounds
// and put that many checkpoint frames of its one fragment on the wire,
// however late its wall-clock ticks fired.
func TestHostCheckpointsOnTickCadence(t *testing.T) {
	const k = 3
	srv, err := NewNodeServer(NodeServerConfig{Name: "s", Addr: "127.0.0.1:0", CapacityPerSec: 10_000, Quiet: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, c := dialRaw(t, srv.Addr())
	for _, e := range []*Envelope{
		{Kind: KindHello, Hello: &Hello{STWMs: 2000, IntervalMs: 20, CheckpointTicks: k}},
		{Kind: KindDeploy, Deploy: validDeploy(0)},
		{Kind: KindStart, Start: &Start{}},
	} {
		if err := c.send(e); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	if err := c.send(&Envelope{Kind: KindStop}); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr := newFrameReader(nc)
	frames := 0
	var stats *StatsMsg
	for stats == nil {
		e, _, _, err := fr.next()
		if err != nil {
			t.Fatalf("no stats reply: %v", err)
		}
		switch {
		case e == nil:
		case e.Kind == KindCheckpoint:
			frames++
		case e.Kind == KindStats:
			stats = e.Stats
		}
	}
	n := stats.Ticks
	t.Logf("%d ticks, %d checkpoint frames", n, frames)
	if n < k {
		t.Fatalf("only %d ticks ran: the cadence went unexercised", n)
	}
	if int64(frames) != n/k {
		t.Errorf("%d ticks at a cadence of %d: %d checkpoint frames of the one fragment, want %d rounds", n, k, frames, n/k)
	}
}

// TestRefusedStateDeploysCold: a deploy carrying state its host cannot
// restore (hostileStates) still hosts the fragment, cold — its snapshot
// is a stateless deploy's — and the host logs the refused blob and
// counts it for its stats frame. The same deploy carrying a checkpoint
// the host took itself restores it, warm, silently and uncounted.
func TestRefusedStateDeploysCold(t *testing.T) {
	deployed := func(state []byte) (*NodeServer, *[]string) {
		s := steppedHost(t, "n", 50_000, defaultWriteTimeout, defaultDialCooldown)
		logs := new([]string)
		s.logf = func(format string, args ...any) { *logs = append(*logs, fmt.Sprintf(format, args...)) }
		if err := s.handleHello(testRun); err != nil {
			t.Fatal(err)
		}
		d := validDeploy(7)
		d.State = state
		if err := s.handleDeploy(d); err != nil {
			t.Fatal(err)
		}
		return s, logs
	}
	snapshot := func(s *NodeServer) []byte {
		var enc stream.SnapEncoder
		enc.Reset()
		if err := s.nd.StateSnapshot(7, 0, &enc); err != nil {
			t.Fatal(err)
		}
		return append([]byte(nil), enc.Seal()...)
	}
	cold, _ := deployed(nil)
	want := snapshot(cold)
	for i := 1; i <= 40; i++ {
		cold.nd.TickSpan(stream.Time(50*(i-1)), stream.Time(50*i))
		cold.drainOutbox(cold.nd.TakeOutbox())
	}
	ckpt := snapshot(cold)

	warm, logs := deployed(ckpt)
	if bytes.Equal(snapshot(warm), want) || len(*logs) != 0 || warm.refusedRestores != 0 {
		t.Fatalf("a checkpoint the host took left the fragment cold (logged %q, %d refused)", *logs, warm.refusedRestores)
	}
	for _, h := range hostileStates {
		s, logs := deployed(h.state)
		if !bytes.Equal(snapshot(s), want) {
			t.Errorf("%s state: the fragment is not a cold deploy's", h.name)
		}
		if len(*logs) != 1 || !strings.Contains((*logs)[0], "restore q7/f0") {
			t.Errorf("%s state: logged %q, want the refused restore", h.name, *logs)
		}
		if s.refusedRestores != 1 {
			t.Errorf("%s state: %d refused restores counted, want 1", h.name, s.refusedRestores)
		}
	}
}

// TestSecondDeployIsRefused: deploys are idempotent per (query,
// fragment). A second deploy of a fragment the host already runs — or
// rides on a shared instance — is refused with node.ErrDeployed, logged
// as a refused deploy and not as a refused restore, and changes nothing:
// no second set of sources, no second fan-out view, no peer route.
func TestSecondDeployIsRefused(t *testing.T) {
	for _, row := range []struct {
		name string
		key  string
		want node.StateSize
	}{
		{"hosted", "", node.StateSize{Fragments: 1, Sources: 1}},
		{"riding", "shared", node.StateSize{Fragments: 1, Sources: 1, SharedInstances: 1, Subscriptions: 1}},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := steppedHost(t, "n", 50_000, defaultWriteTimeout, defaultDialCooldown)
			var logs []string
			s.logf = func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) }
			if err := s.handleHello(testRun); err != nil {
				t.Fatal(err)
			}
			deploy := func(q stream.QueryID) *Deploy {
				d := validDeploy(q)
				d.ShareKey, d.ShareEmit = row.key, true
				if q != 7 {
					d.Primary = &[]stream.QueryID{7}[0]
				}
				return d
			}
			// With a share key, query 8 rides query 7's instance.
			first := []*Deploy{deploy(7)}
			if row.key != "" {
				first = append(first, deploy(8))
			}
			for _, d := range first {
				if err := s.handleDeploy(d); err != nil {
					t.Fatal(err)
				}
			}
			again := first[len(first)-1]
			again.Peers = map[stream.FragID]string{0: "127.0.0.1:1"}
			if err := s.handleDeploy(again); !errors.Is(err, node.ErrDeployed) {
				t.Errorf("second deploy: %v, want node.ErrDeployed", err)
			}
			s.handle(time.Time{}, hostEvent{env: &Envelope{Kind: KindDeploy, Deploy: again}})
			if len(logs) != 1 || !strings.Contains(logs[0], "deploy: "+node.ErrDeployed.Error()) {
				t.Errorf("a third deploy logged %q, want one refused deploy", logs)
			}
			if got := s.nd.StateSize(); got.Fragments != row.want.Fragments || got.Sources != row.want.Sources ||
				got.SharedInstances != row.want.SharedInstances || got.Subscriptions != row.want.Subscriptions {
				t.Errorf("state after a second deploy: %+v, want %+v", got, row.want)
			}
			if len(s.peers) != 0 || s.refusedRestores != 0 {
				t.Errorf("the refused deploys left peers %v and %d refused restores", s.peers, s.refusedRestores)
			}
		})
	}
}
