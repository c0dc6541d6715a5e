package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/coordinator"
	"repro/internal/stream"
)

// FuzzWireCodec drives arbitrary bytes through the binary batch codec
// and the mixed frame reader. The invariants under fuzz:
//
//   - malformed input returns an error — never a panic and never an
//     allocation sized by unvalidated attacker-controlled dimensions
//     (decodeWireBatch validates the exact payload length before
//     allocating tuple storage; the frame reader caps payloads at
//     maxFramePayload);
//   - a payload that does decode is exactly self-describing: it
//     re-encodes to the identical bytes, so no trailing garbage is
//     silently accepted.
//
// The seed corpus holds valid encodings from the wire_test generator —
// including the adversarial float values — plus truncations and
// corrupted dimension fields.
func FuzzWireCodec(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 8; trial++ {
		n := rng.Intn(12)
		arity := rng.Intn(3)
		f.Add(appendWireBatch(nil, randomBatch(rng, n, arity)))
	}
	whole := appendWireBatch(nil, randomBatch(rng, 4, 2))
	f.Add(whole[:10])           // truncated header
	f.Add(whole[:len(whole)-3]) // truncated payload
	huge := append([]byte(nil), whole...)
	binary.LittleEndian.PutUint32(huge[28:], 1<<31-1) // absurd arity
	f.Add(huge)
	hugeN := append([]byte(nil), whole...)
	binary.LittleEndian.PutUint32(hugeN[32:], 1<<31-1) // absurd n
	f.Add(hugeN)
	f.Add([]byte{})
	f.Add([]byte(`{"kind":"sic","sic":{"query":1,"value":0.5}}`))

	pool := stream.NewPool()
	f.Fuzz(func(t *testing.T, p []byte) {
		b, err := decodeWireBatch(p, nil)
		if err == nil {
			if b == nil {
				t.Fatal("nil batch with nil error")
			}
			// The decoded dimensions must be payload-backed: every tuple
			// needs at least 16 bytes (TS + SIC) in the payload, so the
			// storage a successful decode allocates is bounded by the
			// bytes actually provided — never by an unvalidated header.
			if n := len(b.Tuples); n > 0 && n > len(p)/16 {
				t.Fatalf("decode allocated %d tuples from %d bytes", n, len(p))
			}
			if len(b.Tuples) > 0 {
				if got := appendWireBatch(nil, b); !bytes.Equal(got, p) {
					t.Fatalf("decode/encode not a fixed point: %d in, %d out", len(p), len(got))
				}
			}
			// The pooled decode path — the production inbound route — must
			// agree with the plain one bit-for-bit and release cleanly.
			pb, perr := decodeWireBatch(p, pool)
			if perr != nil {
				t.Fatalf("pooled decode failed where plain succeeded: %v", perr)
			}
			if got := appendWireBatch(nil, pb); !bytes.Equal(got, appendWireBatch(nil, b)) {
				t.Fatal("pooled decode differs from plain decode")
			}
			pb.Release()
			if pool.Live() != 0 {
				t.Fatalf("pool leak after release: %d", pool.Live())
			}
		}

		// The same bytes as one framed connection stream: JSON frames,
		// batch frames, unknown frame types, hostile length prefixes. The
		// reader must surface errors and stop, never panic.
		fr := newFrameReader(bytes.NewReader(p))
		for i := 0; i < 64; i++ {
			e, fb, err := fr.next()
			if err != nil {
				break
			}
			if e == nil && fb == nil {
				t.Fatal("frame reader returned neither envelope nor batch without error")
			}
		}
	})
}

// deployFrame renders a deploy control frame as the raw JSON a peer
// would put on the wire, so hostile field values reach the host exactly
// as written.
func deployFrame(q, frag, fragments int, cqlText string) string {
	return deployFrameAt(q, frag, fragments, cqlText, 50, 4)
}

// deployFrameAt is deployFrame with the source rate (tuples/s) and
// batches/s spelled out.
func deployFrameAt(q, frag, fragments int, cqlText string, rate, batches float64) string {
	return fmt.Sprintf(`{"kind":"deploy","deploy":{"query":%d,"frag":%d,"cql":%q,"fragments":%d,`+
		`"dataset":1,"rate":%g,"batches_per_sec":%g}}`, q, frag, cqlText, fragments, rate, batches)
}

// runFrame renders a controller hello announcing a run as raw JSON, so
// hostile values reach the host exactly as written.
func runFrame(stwMs, intervalMs int64) string {
	return fmt.Sprintf(`{"kind":"hello","hello":{"from":"controller","stw_ms":%d,"interval_ms":%d}}`, stwMs, intervalMs)
}

// testRun is the run the tests' hosts are told: the hello of a
// controller with STW 2 s, interval 50 ms and checkpoints off.
var testRun = &Hello{From: "controller", STWMs: 2000, IntervalMs: 50}

// hostileQuery is the first query id the hostile deploy rows use; valid
// deploys in these tests stay below it.
const hostileQuery = 900

// hostileFrames are control-frame payloads no correct controller or peer
// sends. A host must ignore or reject each and keep serving. Rows with
// beforeRun reach a host no hello has told a run yet; the others follow
// testRun. The "nil start" row is the one frame that legitimately
// changes the server's state: after a run, a payload-less start begins
// ticking at the run's interval.
var hostileFrames = []struct {
	name, payload string
	beforeRun     bool
}{
	{"json batch", `{"kind":"batch","batch":{"arity":1,"tss":[1],"sics":[],"vals":[]}}`, false},
	{"frag -1", deployFrame(900, -1, 1, avgCQL), false},
	{"frag beyond plan", deployFrame(901, 3, 2, avgAllCQL), false},
	{"fragments 0", deployFrame(902, 0, 0, avgCQL), false},
	{"fragments 1<<30", deployFrame(903, 0, 1<<30, avgAllCQL), false},
	{"empty cql", deployFrame(904, 0, 1, ""), false},
	{"malformed cql", deployFrame(905, 0, 1, "Select Bogus("), false},
	{"rate 1e308", deployFrameAt(906, 0, 1, avgCQL, 1e308, 4), false},
	{"rate just above the bound", deployFrameAt(907, 0, 1, avgCQL, control.MaxRate+1, 4), false},
	{"batches/s above the bound", deployFrameAt(908, 0, 1, avgCQL, 50, 1e8), false},
	{"unknown kind", `{"kind":"nope","deploy":{"frag":-1}}`, false},
	{"no kind", `{}`, false},
	{"null", `null`, false},
	{"nil hello", `{"kind":"hello"}`, false},
	{"nil deploy", `{"kind":"deploy"}`, false},
	{"nil sic", `{"kind":"sic"}`, false},
	{"nil report", `{"kind":"report"}`, false},
	{"nil stats", `{"kind":"stats"}`, false},
	{"nil rewire", `{"kind":"rewire"}`, false},
	{"nil heartbeat", `{"kind":"heartbeat"}`, false},
	{"nil retract", `{"kind":"retract"}`, false},
	{"nil checkpoint", `{"kind":"checkpoint"}`, false},
	{"nil restore", `{"kind":"restore_state"}`, false},
	{"nil share emit", `{"kind":"share_emit"}`, false},
	{"nil start", `{"kind":"start"}`, false},
	{"run stw 2^50 at interval 1", runFrame(1<<50, 1), true},
	{"run interval 2^62", runFrame(2000, 1<<62), true},
	{"run interval 0", runFrame(2000, 0), true},
	{"run interval -1", runFrame(2000, -1), true},
	{"deploy before any run", deployFrame(909, 0, 1, avgCQL), true},
	{"start before any run", `{"kind":"start","start":{}}`, true},
}

// validDeploy is the single-fragment deploy frame Submit would send for
// query q.
func validDeploy(q stream.QueryID) *Deploy {
	return &Deploy{Query: q, CQL: avgCQL, Fragments: 1, Dataset: 1, Rate: 50, Batches: 4}
}

// hosts reports whether the server runs a fragment of a query with an
// id in [lo, hi].
func hosts(s *NodeServer, lo, hi stream.QueryID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	found := false
	if s.nd != nil {
		s.nd.ForEachFragment(func(q stream.QueryID, _ stream.FragID) { found = found || (lo <= q && q <= hi) })
	}
	return found
}

// TestHostSurvivesHostileFrames writes each hostile frame to a fresh
// live server over a real loopback connection — after testRun's hello,
// or before any run — followed on the same connection by testRun's hello
// and a deploy of the shape Submit sends. Frames on one connection are
// handled in order, so once the deploy's query is hosted the hostile
// frame has been fully processed: the server is up, the connection
// survived, the batch pool is where it was, and a hostile run was not
// the one the node was built from.
func TestHostSurvivesHostileFrames(t *testing.T) {
	for _, h := range hostileFrames {
		srv, err := NewNodeServer(NodeServerConfig{Name: "s", Addr: "127.0.0.1:0", CapacityPerSec: 10_000, Quiet: true})
		if err != nil {
			t.Fatal(err)
		}
		live := srv.pool.Live()
		nc, c := dialRaw(t, srv.Addr())
		if !h.beforeRun {
			if err := c.send(&Envelope{Kind: KindHello, Hello: testRun}); err != nil {
				t.Fatalf("%s: %v", h.name, err)
			}
		}
		if _, err := nc.Write(appendFrame(nil, frameJSON, []byte(h.payload))); err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		if err := c.send(&Envelope{Kind: KindHello, Hello: testRun}); err != nil {
			t.Fatalf("%s: hello after hostile frame: %v", h.name, err)
		}
		if err := c.send(&Envelope{Kind: KindDeploy, Deploy: validDeploy(0)}); err != nil {
			t.Fatalf("%s: deploy after hostile frame: %v", h.name, err)
		}
		for deadline := time.Now().Add(5 * time.Second); !hosts(srv, 0, 0); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: a valid deploy after the hostile frame never landed", h.name)
			}
		}
		if hosts(srv, hostileQuery, 1<<30) {
			t.Errorf("%s: the hostile deploy was hosted", h.name)
		}
		if got := srv.pool.Live(); got != live {
			t.Errorf("%s: pool live moved %d -> %d", h.name, live, got)
		}
		srv.mu.Lock()
		run, started := srv.run, srv.started
		srv.mu.Unlock()
		if want := (Hello{STWMs: testRun.STWMs, IntervalMs: testRun.IntervalMs}); run != want {
			t.Errorf("%s: host runs %+v, want testRun's %+v", h.name, run, want)
		}
		if h.beforeRun && started {
			t.Errorf("%s: a frame before any run started the host", h.name)
		}
		srv.Close()
	}
}

// TestHostRefusesDeployAtFragmentCap fills one host to maxHostedFragments
// — a few private instances, the rest riders on one shared instance, every
// one through handleDeploy as a frame would arrive — and checks that the
// next deploy is refused with the cap error and hosts nothing, and that a
// retract makes room again. The fill is linear in the number of deploys
// (a query's accounting slot is inserted in place), so it takes about a
// second; when every deploy rebuilt the accounting table it took minutes.
func TestHostRefusesDeployAtFragmentCap(t *testing.T) {
	s := steppedHost(t, "cap", 1000, defaultWriteTimeout, defaultDialCooldown)
	if err := s.handleHello(testRun); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for q := stream.QueryID(0); q < maxHostedFragments; q++ {
		d := validDeploy(q)
		if q%4096 != 1 {
			d.ShareKey, d.ShareEmit = "shared", true
		}
		if err := s.handleDeploy(d); err != nil {
			t.Fatalf("deploy %d of %d refused: %v", q, maxHostedFragments, err)
		}
	}
	t.Logf("filled %d fragments in %v", maxHostedFragments, time.Since(start))
	ss := s.nd.StateSize()
	if ss.Fragments+ss.Subscriptions != maxHostedFragments || ss.Fragments != 17 {
		t.Fatalf("state %+v, want %d hosted fragments, 17 of them executing", ss, maxHostedFragments)
	}
	over := stream.QueryID(maxHostedFragments)
	err := s.handleDeploy(validDeploy(over))
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("cap of %d hosted fragments", maxHostedFragments)) {
		t.Fatalf("deploy beyond the cap: %v, want the cap error", err)
	}
	if hosts(s, over, over) || s.nd.StateSize() != ss {
		t.Fatalf("the refused deploy changed the host: %+v", s.nd.StateSize())
	}
	s.handleRetract(&Retract{Query: 12345})
	if err := s.handleDeploy(validDeploy(over)); err != nil {
		t.Fatalf("deploy after a retract made room: %v", err)
	}
}

// FuzzHostFrame drives arbitrary JSON control frames through the host's
// step, handle — against a server no run has reached, where nothing may
// start it, and again after testRun and a valid deploy so rewire,
// retract, share-emit and restore frames meet real state. Nothing a peer
// can put in a frame may panic the host or leak a pooled batch. The
// host's loop does not run: the fuzzer is the loop. Stop is skipped: it
// replies on the connection its frame came on, and the lifecycle tests
// cover it.
func FuzzHostFrame(f *testing.F) {
	for _, h := range hostileFrames {
		f.Add([]byte(h.payload))
	}
	f.Add([]byte(deployFrame(1, 1, 3, avgAllCQL)))
	f.Add([]byte(`{"kind":"deploy","deploy":{"query":2,"cql":"Select Avg(t.v) From Src[Range 1 sec]","fragments":1,` +
		`"dataset":4,"rate":1e308,"batches_per_sec":-1,"share_key":"k","share_scale":-2,"peers":{"0":"x"}}}`))
	f.Add([]byte(`{"kind":"restore_state","restore":{"query":7,"frag":0,"state":"AAEC"}}`))
	f.Add([]byte(`{"kind":"rewire","rewire":{"query":7,"peers":{"-3":"127.0.0.1:1"}}}`))
	f.Add([]byte(`{"kind":"share_emit","share_emit":{"query":7,"frag":0,"emit":true}}`))
	f.Add([]byte(`{"kind":"sic","sic":{"query":7,"value":-1e300}}`))

	f.Fuzz(func(t *testing.T, p []byte) {
		var e Envelope
		if json.Unmarshal(p, &e) != nil || e.Kind == KindStop {
			return
		}
		s, err := newHost(NodeServerConfig{Name: "fuzz", Addr: "127.0.0.1:0", CapacityPerSec: 1000, Quiet: true}, defaultWriteTimeout, defaultDialCooldown)
		if err != nil {
			t.Skip(err)
		}
		defer s.shutdown()
		var now time.Time
		s.handle(now, hostEvent{env: &e})
		if s.started {
			t.Fatal("a frame before any run started the host")
		}
		// A valid run the fuzzed hello announced stands; testRun is then
		// refused as a second run, which is the rule.
		s.handleHello(testRun)
		if err := s.handleDeploy(validDeploy(7)); err != nil {
			t.Fatalf("valid deploy rejected after the fuzzed frame: %v", err)
		}
		s.handle(now, hostEvent{env: &e})
		if live := s.pool.Live(); live != 0 {
			t.Fatalf("pool holds %d live batches after control frames only", live)
		}
	})
}

// servedPlacements are the queries of FuzzControllerFrame's controller,
// by query id: query 0 runs on node 0, query 1 on node 1, and query 2
// has its root on node 1 and its second fragment on node 0.
var servedPlacements = [][]int{{0}, {1}, {1, 0}}

// servedBlob is the checkpoint banked for fragment f of query q before
// the fuzzed frame arrives.
func servedBlob(q, f int) []byte { return []byte{byte(q), byte(f), 0xcc} }

// servedStats is node 0's stats frame, applied before the fuzzed frame.
var servedStats = StatsMsg{Node: "n0", ArrivedTuples: 7}

// servedController builds FuzzControllerFrame's two-node controller on
// peers: servedPlacements submitted, every fragment's servedBlob banked
// from its host and node 0's servedStats in, all through handle.
func servedController(t *testing.T, peers []string) *Controller {
	ctrl, err := NewController(ControllerConfig{Seed: 1}, peers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.CloseAll)
	for q, at := range servedPlacements {
		if _, err := ctrl.Submit(avgAllCQL, len(at), 1, 20, 4, at); err != nil {
			t.Fatal(err)
		}
		for f, host := range at {
			ck := &CheckpointMsg{Query: stream.QueryID(q), Frag: stream.FragID(f), Tick: 1, State: servedBlob(q, f)}
			ctrl.handle(event{node: host, env: &Envelope{Kind: KindCheckpoint, Checkpoint: ck}})
			if !bytes.Equal(ctrl.plane.Checkpointed(stream.QueryID(q), f), servedBlob(q, f)) {
				t.Fatalf("query %d fragment %d: its host's checkpoint was not banked", q, f)
			}
		}
	}
	st := servedStats
	ctrl.handle(event{node: 0, env: &Envelope{Kind: KindStats, Stats: &st}})
	return ctrl
}

// FuzzControllerFrame applies arbitrary JSON control frames with
// Controller.handle, as node 0 or node 1 of servedController, the way
// Run applies what a read loop decodes. Nothing a host can put in a
// frame may panic the controller, leave a query's measured result SIC
// non-finite or outside [0, coordinator.MaxResultMass], or change a
// measurement, banked checkpoint or stats record the sending node does
// not serve: a report applies only from the host of the query's root, a
// checkpoint only from the fragment's host, and a stats frame only as
// the node's first.
func FuzzControllerFrame(f *testing.F) {
	for _, s := range []struct {
		from  uint8
		frame string
	}{
		{0, `{"kind":"report","report":{"query":0,"result":1e308,"tuples":4}}`},
		{1, `{"kind":"report","report":{"query":0,"result":0.25,"tuples":4}}`},
		{1, `{"kind":"report","report":{"query":2,"result":0.5,"tuples":4}}`},
		{0, `{"kind":"checkpoint","checkpoint":{"query":1,"frag":0,"tick":2,"state":"AQID"}}`},
		{1, `{"kind":"checkpoint","checkpoint":{"query":2,"frag":-1,"tick":2,"state":"AQID"}}`},
		{0, `{"kind":"checkpoint","checkpoint":{"query":2,"frag":2147483647,"tick":2,"state":"AQID"}}`},
		{0, `{"kind":"report"}`},
		{0, `{"kind":"stats","stats":{"node":"a","arrived_tuples":5}}`},
		{1, `{"kind":"heartbeat"}`},
	} {
		f.Add(s.from, []byte(s.frame))
	}
	peers := []string{silentPeer(f), silentPeer(f)}
	f.Fuzz(func(t *testing.T, from uint8, p []byte) {
		var e Envelope
		if json.Unmarshal(p, &e) != nil {
			return
		}
		ctrl := servedController(t, peers)
		node := int(from % 2)
		if err := ctrl.handle(event{node: node, env: &e}); err != nil {
			t.Fatalf("a frame failed the controller: %v", err)
		}
		ctrl.mu.Lock()
		defer ctrl.mu.Unlock()
		for q, at := range servedPlacements {
			id := stream.QueryID(q)
			m := ctrl.ledger.Measured(id, 0)
			if !(m >= 0 && m <= coordinator.MaxResultMass) {
				t.Fatalf("query %d measures %v", q, m)
			}
			if at[0] != node && m != 0 {
				t.Fatalf("node %d moved query %d's measurement to %v; its root runs on node %d", node, q, m, at[0])
			}
			for f, host := range at {
				if host != node && !bytes.Equal(ctrl.plane.Checkpointed(id, f), servedBlob(q, f)) {
					t.Fatalf("node %d replaced query %d fragment %d's checkpoint, hosted on node %d", node, q, f, host)
				}
			}
		}
		if ctrl.stats[0] == nil || *ctrl.stats[0] != servedStats {
			t.Fatalf("node 0's stats record changed to %+v", ctrl.stats[0])
		}
		if node == 0 && ctrl.stats[1] != nil {
			t.Fatal("a frame from node 0 recorded node 1's stats")
		}
	})
}
