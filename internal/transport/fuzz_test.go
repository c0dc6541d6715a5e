package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/coordinator"
	"repro/internal/stream"
)

// FuzzWireCodec drives arbitrary bytes through the binary batch and SIC
// codecs and the mixed frame reader. The invariants under fuzz:
//
//   - malformed input returns an error — never a panic and never an
//     allocation sized by unvalidated attacker-controlled dimensions
//     (both decoders validate the exact payload length before
//     allocating; the frame reader caps payloads at maxFramePayload);
//   - a payload that does decode is exactly self-describing: it
//     re-encodes to the identical bytes, so no trailing garbage is
//     silently accepted and every float comes back bit-exactly.
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
	for i, v := range sicFloats {
		f.Add(rawSIC(SICMsg{Query: stream.QueryID(i - 2), Value: v}, SICMsg{Query: 3, Value: 0.5})[1:])
	}
	for _, c := range corruptSICPayloads() {
		f.Add(c.p)
	}

	pool := stream.NewPool()
	f.Fuzz(func(t *testing.T, p []byte) {
		if pairs, err := decodeSICFrame(p); err == nil {
			if pairs == nil {
				t.Fatal("nil pairs with nil error")
			}
			if got := rawSIC(pairs...)[1:]; !bytes.Equal(got, p) {
				t.Fatalf("SIC decode/encode not a fixed point: %x in, %x out", p, got)
			}
		}
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
		// batch and SIC frames, unknown frame types, hostile length
		// prefixes. The reader must surface errors and stop, never panic.
		fr := newFrameReader(bytes.NewReader(p))
		for i := 0; i < 64; i++ {
			e, fb, pairs, err := fr.next()
			if err != nil {
				break
			}
			if e == nil && fb == nil && pairs == nil {
				t.Fatal("frame reader returned no envelope, batch or pairs without error")
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
	return fmt.Sprintf(`{"kind":"hello","hello":{"stw_ms":%d,"interval_ms":%d}}`, stwMs, intervalMs)
}

// testRun is the run the tests' hosts are told: the hello of a
// controller with STW 2 s, interval 50 ms and checkpoints off.
var testRun = &Hello{STWMs: 2000, IntervalMs: 50}

// hostileQuery is the first query id the hostile deploy rows that must
// be refused use; deploys a host accepts in these tests stay below it.
const hostileQuery = 900

// sealedAs returns a well-framed snapshot of one u32 whose version byte
// reads v, checksummed as the codec seals it.
func sealedAs(v byte) []byte {
	var enc stream.SnapEncoder
	enc.Reset()
	enc.U32(1)
	blob := append([]byte(nil), enc.Seal()...)
	blob[0] = v
	h := fnv.New64a()
	h.Write(blob[:len(blob)-8])
	binary.LittleEndian.PutUint64(blob[len(blob)-8:], h.Sum64())
	return blob
}

// hostileStates are checkpoint blobs a deploy may carry that no host can
// restore: each fails the snapshot codec's framing, so the deployed
// fragment must run cold.
var hostileStates = []struct {
	name  string
	state []byte
}{
	{"truncated", sealedAs(stream.SnapVersion)[:6]},
	{"wrong version", sealedAs(stream.SnapVersion + 1)},
	{"random bytes", []byte{0x5e, 0x0d, 0x93, 0xa1, 0x44, 0xc7, 0x19, 0xfe, 0x02, 0x6b, 0xd8, 0x31, 0x7a, 0xe5, 0x90, 0x2c}},
}

// stateDeployFrame renders validDeploy(q) carrying state as raw JSON.
func stateDeployFrame(q stream.QueryID, state []byte) string {
	d := validDeploy(q)
	d.State = state
	p, err := json.Marshal(&Envelope{Kind: KindDeploy, Deploy: d})
	if err != nil {
		panic(err)
	}
	return string(p)
}

// hostileFrames are control-frame payloads no correct controller or peer
// sends. A host must ignore or reject each and keep serving. Rows with
// beforeRun reach a host no hello has told a run yet; the others follow
// testRun. The "nil start" row is the one frame that legitimately
// changes the server's state: after a run, a payload-less start begins
// ticking at the run's interval. The hostile-state deploys are valid
// deploys whose restore the host refuses: their fragments run cold.
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
	{"retired json sic", `{"kind":"sic","sic":{"query":0,"value":0.5}}`, false},
	{"retired json report", `{"kind":"report","report":{"query":0,"result":0.5}}`, false},
	{"nil stats", `{"kind":"stats"}`, false},
	{"nil rewire", `{"kind":"rewire"}`, false},
	{"retired json heartbeat", `{"kind":"heartbeat"}`, false},
	{"nil retract", `{"kind":"retract"}`, false},
	{"nil checkpoint", `{"kind":"checkpoint"}`, false},
	{"nil share emit", `{"kind":"share_emit"}`, false},
	{"nil start", `{"kind":"start"}`, false},
	{"deploy with a truncated state", stateDeployFrame(10, hostileStates[0].state), false},
	{"deploy with a wrong-version state", stateDeployFrame(11, hostileStates[1].state), false},
	{"deploy with a random-bytes state", stateDeployFrame(12, hostileStates[2].state), false},
	{"ride naming no instance", `{"kind":"deploy","deploy":{"query":910,"frag":0,"cql":"` + avgCQL + `","fragments":1,` +
		`"dataset":1,"rate":50,"batches_per_sec":4,"share_key":"k","primary":911}}`, false},
	{"retract with a heir for fragment -1", `{"kind":"retract","retract":{"query":0,"heirs":{"-1":1}}}`, false},
	{"retract with a heir beyond any plan", `{"kind":"retract","retract":{"query":0,"heirs":{"1024":1}}}`, false},
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
// — a few private instances, the rest riders on query 0's shared
// instance, every one through handleDeploy as a frame would arrive — and
// checks that the
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
	primary := stream.QueryID(0)
	for q := stream.QueryID(0); q < maxHostedFragments; q++ {
		d := validDeploy(q)
		if q%4096 != 1 {
			d.ShareKey, d.ShareEmit = "shared", true
			if q != primary {
				d.Primary = &primary
			}
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

// TestHostCountsRefusedShares: a host obeys the controller's sharing
// commands or refuses them. Each refusal — a ride naming a primary the
// host does not execute, or naming it under another key; a retract whose
// heir does not ride, or that leaves riders with no heir; an emit flip
// for a subscription the host does not hold — changes nothing on the
// node and shows in the host's stats frame as refused_shares. A retract
// naming a heir that rides is obeyed.
func TestHostCountsRefusedShares(t *testing.T) {
	s := steppedHost(t, "n", 50_000, defaultWriteTimeout, defaultDialCooldown)
	s.logf = func(string, ...any) {}
	if err := s.handleHello(testRun); err != nil {
		t.Fatal(err)
	}
	ride := func(q stream.QueryID, key string, primary stream.QueryID) *Deploy {
		d := validDeploy(q)
		d.ShareKey, d.ShareEmit, d.Primary = key, true, &primary
		return d
	}
	host := validDeploy(7)
	host.ShareKey = "shared"
	for _, d := range []*Deploy{host, ride(8, "shared", 7)} {
		if err := s.handleDeploy(d); err != nil {
			t.Fatal(err)
		}
	}
	want := s.nd.StateSize()
	heirs := func(q stream.QueryID) map[stream.FragID]stream.QueryID { return map[stream.FragID]stream.QueryID{0: q} }
	for i, e := range []*Envelope{
		{Kind: KindDeploy, Deploy: ride(9, "shared", 6)},
		{Kind: KindDeploy, Deploy: ride(9, "other", 7)},
		{Kind: KindRetract, Retract: &Retract{Query: 7, Heirs: heirs(9)}},
		{Kind: KindRetract, Retract: &Retract{Query: 7}},
		{Kind: KindShareEmit, ShareEmit: &ShareEmitMsg{Query: 9, Frag: 0, Emit: true}},
	} {
		s.handle(time.Time{}, hostEvent{env: e})
		if s.refusedShares != int64(i+1) {
			t.Errorf("frame %d (%s): %d refusals counted, want %d", i, e.Kind, s.refusedShares, i+1)
		}
		if got := s.nd.StateSize(); got != want {
			t.Errorf("frame %d (%s) changed the node: %+v, want %+v", i, e.Kind, got, want)
		}
	}
	s.handle(time.Time{}, hostEvent{env: &Envelope{Kind: KindRetract, Retract: &Retract{Query: 7, Heirs: heirs(8)}}})
	if _, rides := s.nd.RidesOn(8, 0); rides || !s.nd.HostsFragment(8, 0) || s.nd.HostsFragment(7, 0) || s.refusedShares != 5 {
		t.Errorf("an obeyable retract: query 8 rides %v, hosted %v, query 7 hosted %v, %d refusals",
			rides, s.nd.HostsFragment(8, 0), s.nd.HostsFragment(7, 0), s.refusedShares)
	}
	out, fr := ctrlLink(t)
	s.handleStop(out)
	e, _, _, err := fr.next()
	if err != nil || e.Stats == nil || e.Stats.RefusedShares != 5 {
		t.Fatalf("stats frame %+v (%v), want refused_shares 5", e, err)
	}
}

// FuzzHostFrame drives arbitrary raw frames — a type byte, then the
// payload — through the host's step, handle: against a server no run has
// reached, where nothing may start it, and again after testRun and a
// valid deploy of query 7 so rewire, retract, share-emit, deploy and SIC
// frames meet real state. Nothing a peer can put in a frame may panic the
// host or leak a pooled batch, and a SIC frame sets the result SIC of
// the queries the host runs only: query 7 ends at its last pair's value,
// bit for bit, and every other query stays unknown. The host's loop does
// not run: the fuzzer is the loop. Batch frames are FuzzWireCodec's. Stop
// is skipped: it replies on the connection its frame came on, and the
// lifecycle tests cover it.
func FuzzHostFrame(f *testing.F) {
	for _, h := range hostileFrames {
		f.Add(rawJSON(h.payload))
	}
	f.Add(rawJSON(deployFrame(1, 1, 3, avgAllCQL)))
	f.Add(rawJSON(`{"kind":"deploy","deploy":{"query":2,"cql":"Select Avg(t.v) From Src[Range 1 sec]","fragments":1,` +
		`"dataset":4,"rate":1e308,"batches_per_sec":-1,"share_key":"k","share_scale":-2,"peers":{"0":"x"}}}`))
	f.Add(rawJSON(`{"kind":"rewire","rewire":{"query":7,"peers":{"-3":"127.0.0.1:1"}}}`))
	f.Add(rawJSON(`{"kind":"share_emit","share_emit":{"query":7,"frag":0,"emit":true}}`))
	f.Add(rawJSON(`{"kind":"share_emit","share_emit":{"query":8,"frag":0,"emit":false}}`))
	for _, ride := range []string{`"share_key":"k","primary":7`, `"primary":7`, `"share_key":"k","primary":-1`, `"share_key":"k","primary":8`} {
		f.Add(rawJSON(`{"kind":"deploy","deploy":{"query":8,"cql":"` + avgCQL + `","fragments":1,"dataset":1,` +
			`"rate":50,"batches_per_sec":4,"share_emit":true,` + ride + `}}`))
	}
	for _, heirs := range []string{`{"0":8}`, `{"0":7}`, `{"1":8}`, `{"-1":8}`, `{"1024":8}`, `{"0":8,"2147483647":9}`} {
		f.Add(rawJSON(`{"kind":"retract","retract":{"query":7,"heirs":` + heirs + `}}`))
	}
	f.Add(rawSIC(SICMsg{Query: 7, Value: -1e300}))
	f.Add(rawSIC(SICMsg{Query: 7, Value: 0.5}, SICMsg{Query: 8, Value: 0.25}, SICMsg{Query: 7, Value: math.NaN()}))
	f.Add(rawSIC())
	for _, c := range corruptSICPayloads() {
		f.Add(append([]byte{frameSIC}, c.p...))
	}

	f.Fuzz(func(t *testing.T, p []byte) {
		if len(p) == 0 {
			return
		}
		e, b, pairs, err := readRaw(p)
		if err != nil || b != nil || (e != nil && e.Kind == KindStop) {
			return
		}
		s, err := newHost(NodeServerConfig{Name: "fuzz", Addr: "127.0.0.1:0", CapacityPerSec: 1000, Quiet: true}, defaultWriteTimeout, defaultDialCooldown)
		if err != nil {
			t.Skip(err)
		}
		defer s.shutdown()
		var now time.Time
		ev := hostEvent{env: e, sic: pairs}
		s.handle(now, ev)
		if s.started {
			t.Fatal("a frame before any run started the host")
		}
		// A valid run the fuzzed hello announced stands; testRun is then
		// refused as a second run, which is the rule.
		s.handleHello(testRun)
		if err := s.handleDeploy(validDeploy(7)); err != nil {
			t.Fatalf("valid deploy rejected after the fuzzed frame: %v", err)
		}
		s.handle(now, ev)
		if live := s.pool.Live(); live != 0 {
			t.Fatalf("pool holds %d live batches after control frames only", live)
		}
		want := uint64(0)
		for _, m := range pairs {
			if m.Query == 7 {
				want = math.Float64bits(m.Value)
			} else if v := s.nd.ResultSIC(m.Query); v != 0 {
				t.Fatalf("query %d, which the host does not run, has result SIC %v", m.Query, v)
			}
		}
		if got := math.Float64bits(s.nd.ResultSIC(7)); pairs != nil && got != want {
			t.Fatalf("query 7's result SIC has bits %x, want its last pair's %x", got, want)
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

// servedController builds FuzzControllerFrame's two-node controller
// on peers, before any Run: servedPlacements submitted, every fragment's
// servedBlob banked from its host and node 0's servedStats in, all
// through handle.
func servedController(t *testing.T, peers []string) *Controller {
	ctrl := testController(t, ControllerConfig{Seed: 1}, peers)
	for q, at := range servedPlacements {
		if _, err := ctrl.Submit(avgAllCQL, len(at), 1, 20, 4, at); err != nil {
			t.Fatal(err)
		}
		for f, host := range at {
			ck := &CheckpointMsg{Query: stream.QueryID(q), Frag: stream.FragID(f), State: servedBlob(q, f)}
			ctrl.handle(time.Now(), event{node: host, env: &Envelope{Kind: KindCheckpoint, Checkpoint: ck}})
			if !bytes.Equal(ctrl.plane.Checkpointed(stream.QueryID(q), f), servedBlob(q, f)) {
				t.Fatalf("query %d fragment %d: its host's checkpoint was not banked", q, f)
			}
		}
	}
	st := servedStats
	ctrl.handle(time.Now(), event{node: 0, env: &Envelope{Kind: KindStats, Stats: &st}})
	return ctrl
}

// FuzzControllerFrame applies arbitrary raw frames — a type byte, then
// the payload — with Controller.handle, as node 0 or node 1 of
// servedController, the way the run loop applies what a read loop
// decodes. Nothing a host can put in a frame may panic the controller,
// leave a query's measured result SIC non-finite or outside [0,
// coordinator.MaxResultMass], or change a measurement, banked checkpoint
// or stats record the sending node does not serve: each pair of a tick
// frame applies only from the host of the query's root, a checkpoint
// only from the fragment's host, and a stats frame only as the node's
// first. No frame opens a ledger entry: a result or checkpoint for a
// query the controller never submitted is dropped.
func FuzzControllerFrame(f *testing.F) {
	for _, s := range []struct {
		from  uint8
		frame []byte
	}{
		{0, rawSIC(SICMsg{Query: 0, Value: 1e308})},
		{1, rawSIC(SICMsg{Query: 0, Value: 0.25})},
		{1, rawSIC(SICMsg{Query: 2, Value: 0.5})},
		{0, rawJSON(`{"kind":"checkpoint","checkpoint":{"query":1,"frag":0,"state":"AQID"}}`)},
		{1, rawJSON(`{"kind":"checkpoint","checkpoint":{"query":2,"frag":-1,"state":"AQID"}}`)},
		{0, rawJSON(`{"kind":"checkpoint","checkpoint":{"query":2,"frag":2147483647,"state":"AQID"}}`)},
		{0, rawSIC()},
		{0, rawSIC(SICMsg{Query: 0, Value: -3}, SICMsg{Query: 0, Value: math.NaN()}, SICMsg{Query: 0, Value: math.Inf(1)})},
		{0, rawSIC(SICMsg{Query: 0, Value: 0}, SICMsg{Query: 0, Value: math.Copysign(0, -1)}, SICMsg{Query: 2, Value: 0.5})},
		{1, rawSIC(SICMsg{Query: 99, Value: 0.5}, SICMsg{Query: -1, Value: 0.5}, SICMsg{Query: 1, Value: 0.5})},
		{0, rawJSON(`{"kind":"checkpoint","checkpoint":{"query":99,"frag":0,"state":"AQID"}}`)},
		{0, rawJSON(`{"kind":"stats","stats":{"node":"a","arrived_tuples":5}}`)},
		{1, rawJSON(`{"kind":"report","report":{"query":1,"result":0.5}}`)},
		{1, append([]byte{frameSIC}, corruptSICPayloads()[5].p...)},
	} {
		f.Add(s.from, s.frame)
	}
	peers := []string{silentPeer(f), silentPeer(f)}
	f.Fuzz(func(t *testing.T, from uint8, p []byte) {
		if len(p) == 0 {
			return
		}
		e, b, pairs, err := readRaw(p)
		if err != nil || b != nil {
			return
		}
		ctrl := servedController(t, peers)
		node := int(from % 2)
		if err := ctrl.handle(time.Now(), event{node: node, env: e, sic: pairs}); err != nil {
			t.Fatalf("a frame failed the controller: %v", err)
		}
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
		if n := ctrl.ledger.NumLive(); n != len(servedPlacements) {
			t.Fatalf("%d live ledger entries, want the %d submitted queries", n, len(servedPlacements))
		}
		ids := []stream.QueryID{99}
		for _, m := range pairs {
			ids = append(ids, m.Query)
		}
		if e != nil && e.Checkpoint != nil {
			ids = append(ids, e.Checkpoint.Query)
		}
		for _, id := range ids {
			if (id < 0 || int(id) >= len(servedPlacements)) && ctrl.ledger.Live(id) {
				t.Fatalf("a frame opened a ledger entry for unknown query %d", id)
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
