// Package transport runs THEMIS nodes as network services: a framed TCP
// protocol carries query deployment, tuple batches between fragments on
// different machines, coordinator result-SIC updates, and result streams
// back to the issuing user. What is sent every tick is binary (codec.go):
// tuple batches, and one frame of result-SIC pairs per node per tick each
// way, a host's results (its heartbeat too) and the controller's updates.
// Every other control message is a JSON envelope.
//
// The same node runtime (internal/node) that the virtual-time simulator
// drives is driven here by wall-clock tickers, so everything the
// evaluation measures — Algorithm 1, the cost model, SIC accounting — is
// the code that actually ships bytes. The controller plays the role of
// the query submission node plus the logically-centralised per-query
// coordinators (§6).
package transport

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"repro/internal/stream"
)

// Envelope is the single wire message; Kind selects which payload field
// is set.
type Envelope struct {
	Kind    string    `json:"kind"`
	Hello   *Hello    `json:"hello,omitempty"`
	Deploy  *Deploy   `json:"deploy,omitempty"`
	Start   *Start    `json:"start,omitempty"`
	Stats   *StatsMsg `json:"stats,omitempty"`
	Rewire  *Rewire   `json:"rewire,omitempty"`
	Retract *Retract  `json:"retract,omitempty"`

	ShareEmit *ShareEmitMsg `json:"share_emit,omitempty"`

	Checkpoint *CheckpointMsg `json:"checkpoint,omitempty"`
}

// Message kinds.
const (
	KindHello  = "hello"
	KindDeploy = "deploy"
	KindStart  = "start"
	KindStats  = "stats"
	KindStop   = "stop"
	// KindRewire updates a host's peer routing after failure recovery
	// moved a fragment of one of its queries to a different node.
	KindRewire = "rewire"
	// KindRetract tears a query down on a host: its fragments, sources
	// and per-query state leave the node without pausing other queries'
	// ticks.
	KindRetract = "retract"
	// KindCheckpoint flows host → controller: one fragment's sealed
	// operator-state snapshot, shipped on the node's checkpoint cadence.
	// The controller keeps only the newest blob per fragment.
	KindCheckpoint = "checkpoint"
	// KindShareEmit flips the fan-out emission of one shared-instance
	// subscription after retract or recovery changed whether the
	// subscriber's downstream fragment executes privately (the emit
	// invariant — see Deploy.ShareEmit).
	KindShareEmit = "share_emit"
)

// Hello is the controller's first frame on a connection it dials, and
// announces the run: the federation-wide STW and shedding interval —
// Eq. (1) normalises every source tuple's SIC over the STW, so every
// node must run the same one — and the checkpoint cadence in ticks
// (zero = off). A host builds its node from the first hello that
// announces a run within control.CheckRun's bounds, and refuses deploys
// and starts before it. A peer's connection carries batches only.
type Hello struct {
	STWMs           int64 `json:"stw_ms,omitempty"`
	IntervalMs      int64 `json:"interval_ms,omitempty"`
	CheckpointTicks int64 `json:"checkpoint_ticks,omitempty"`
}

// Deploy instructs a node to host one fragment of a query. Plans cannot
// travel as code, so the query travels as its CQL statement text, which
// every host node re-parses and re-plans identically; Fragments + Dataset
// complete the reconstruction. A host rejects a deploy without CQL text.
type Deploy struct {
	Query     stream.QueryID `json:"query"`
	Frag      stream.FragID  `json:"frag"`
	CQL       string         `json:"cql,omitempty"`
	Fragments int            `json:"fragments"`
	Dataset   int            `json:"dataset"`
	Rate      float64        `json:"rate"`
	Batches   float64        `json:"batches_per_sec"`
	// Peers maps every fragment of the query to the address of its host
	// node, so derived batches can be routed directly site-to-site.
	Peers map[stream.FragID]string `json:"peers"`
	// SourceSeed is the fragment's structural source seed (control.Deploy's
	// Seed), from which its sources draw their generator and emission
	// seeds: same-shape, same-rate fragments draw one stream, here and in
	// the engine.
	SourceSeed int64 `json:"source_seed"`
	// ShareKey is the controller-computed structural identity of this
	// fragment under multi-query sharing: the plan-subtree key plus
	// fragment index, rate pin and epoch pin. Empty when sharing is off.
	// Primary, when set, makes the fragment ride the instance that query
	// executes at the same fragment — no executor, no sources, refcounted
	// fan-out views instead. A host executing no such instance under
	// ShareKey refuses the ride and counts it (StatsMsg.RefusedShares).
	ShareKey string          `json:"share_key,omitempty"`
	Primary  *stream.QueryID `json:"primary,omitempty"`
	// ShareEmit applies when this deploy rides: whether the shared
	// instance emits a per-subscriber view batch downstream for this
	// query. True iff the query's downstream fragment executes privately
	// — a rider whose downstream also rides the same primary chain gets
	// its results through that chain and must not double-feed it.
	ShareEmit bool `json:"share_emit,omitempty"`
	// State is the checkpoint a re-placed fragment restores on its new
	// host right after the deploy builds it, so recovery skips the window
	// refill. The blob is versioned and checksummed: one that fails to
	// decode or no longer matches the plan is logged and dropped, and the
	// fragment runs cold, refilling its windows. Attaching fragments get
	// none — the live instance is their state.
	State []byte `json:"state,omitempty"`
}

// Start begins real-time processing on a node, ticking at the interval
// of the run its controller's hello announced.
type Start struct {
	// RunOffsetMs is the controller's run clock at the moment this Start
	// was sent. A node started mid-run (a spare adopted during failure
	// recovery) backdates its epoch by this much, so its logical clock —
	// source timestamps, window edges — aligns with the founding
	// members' instead of restarting at zero. Without the alignment a
	// restored snapshot's window edges sit a whole run-offset ahead of
	// the local clock and the fragment stalls until it catches up.
	RunOffsetMs int64 `json:"run_offset_ms,omitempty"`
}

// Rewire replaces a host's fragment→address routing table for one query
// after failure recovery re-placed fragments. Hosts evict outbound peer
// connections to addresses no longer referenced by any query and re-dial
// lazily on the next batch send, so batches stop flowing to a dead
// node's address as soon as the rewire lands.
type Rewire struct {
	Query stream.QueryID `json:"query"`
	// Peers is the complete new fragment→host-address map of the query,
	// replacing the one delivered at deploy time.
	Peers map[stream.FragID]string `json:"peers"`
}

// Retract instructs a host to tear down every fragment of a query it
// runs: executors, sources, rate estimators, buffered batches, the
// known result-SIC entry and the query's peer-routing entries are all
// freed, and outbound connections no other query references are
// evicted. A batch of the query still in flight from a peer that has
// not yet seen the retract is accepted into the input buffer (it still
// counts as arrived, and occupies capacity for that one shedding
// round) and is discarded at the execution stage, since its fragment
// is gone; nothing of it survives past that tick. Heirs maps each
// fragment executing a shared instance to the rider that inherits it
// (one map serves every host: a query's fragments sit on distinct nodes).
type Retract struct {
	Query stream.QueryID                   `json:"query"`
	Heirs map[stream.FragID]stream.QueryID `json:"heirs,omitempty"`
}

// CheckpointMsg carries one fragment's sealed state snapshot from its
// host to the controller. State is the opaque output of the stream
// snapshot codec — versioned and checksummed, so the restoring node
// detects truncation or corruption itself. JSON base64-encodes the
// bytes; snapshots are off the hot path, so debuggability wins over
// compactness here as for the other control messages. The controller
// keeps the last blob received per fragment.
type CheckpointMsg struct {
	Query stream.QueryID `json:"query"`
	Frag  stream.FragID  `json:"frag"`
	State []byte         `json:"state"`
}

// ShareEmitMsg flows controller → host: flip the fan-out emission of the
// subscription (Query, Frag) on whatever shared instance it rides. The
// control plane derives the new bit after a retract or recovery changed
// whether the subscriber's downstream fragment executes privately. A
// host refuses, and counts, a flip for a subscription it does not hold.
type ShareEmitMsg struct {
	Query stream.QueryID `json:"query"`
	Frag  stream.FragID  `json:"frag"`
	Emit  bool           `json:"emit"`
}

// SICMsg is one pair of a frameSIC frame, 12 bytes on the wire (30 in
// the paper's binary protocol): from a host, one result of the query and
// its SIC mass, zero included; from the controller, its result SIC.
type SICMsg struct {
	Query stream.QueryID
	Value float64
}

// StatsMsg returns a node's final counters. The numeric fields avoid
// omitempty: zero counts are data.
type StatsMsg struct {
	Node            string `json:"node"`
	ArrivedTuples   int64  `json:"arrived_tuples"`
	KeptTuples      int64  `json:"kept_tuples"`
	ShedTuples      int64  `json:"shed_tuples"`
	ShedInvocations int64  `json:"shed_invocations"`
	// DroppedTuples and DroppedSIC surface derived batches whose
	// downstream routing failed (dead peer, failed dial): their SIC mass
	// was pre-credited by the shedding round but never reached the root,
	// so reports must show it as lost rather than silently skewing
	// result SIC.
	DroppedTuples int64   `json:"dropped_tuples"`
	DroppedSIC    float64 `json:"dropped_sic"`
	// SharedInstances and Subscriptions report the node's sharing at stop
	// time: executing instances hosted under a share key and the queries
	// riding them. Both stay zero with sharing off.
	SharedInstances int `json:"shared_instances"`
	Subscriptions   int `json:"subscriptions"`
	// Ticks and TickNanos accumulate the node's tick count and the
	// wall-clock time spent inside TickSpan, so networked benchmarks can
	// derive per-query compute cost (the marginal-cost-of-sharing
	// measurement) without instrumenting hosts externally.
	Ticks     int64 `json:"ticks"`
	TickNanos int64 `json:"tick_nanos"`
	// DroppedCtrl counts control frames (tick frames, checkpoints) the node
	// dropped because its controller send queue was full; a refused tick
	// frame drops all of its tick's results, and result SIC reads low by
	// them. Omitted when zero, so frames of healthy runs are unchanged.
	DroppedCtrl int64 `json:"dropped_ctrl_frames,omitempty"`
	// RefusedRestores counts deploys whose state the node could not
	// restore, which ran cold; omitted when zero, like DroppedCtrl.
	RefusedRestores int64 `json:"refused_restores,omitempty"`
	// RefusedShares counts sharing commands the node could not obey and
	// left undone (node.Deploy, Node.RemoveQuery, Node.SetSubEmit);
	// omitted when zero.
	RefusedShares int64 `json:"refused_shares,omitempty"`
}

// Write-path timing defaults. Every frame write — control and batch —
// carries a write deadline: a peer that accepts the connection but
// stops reading must surface as a conn error within writeTimeout, not
// wedge the sending loop forever. Dials are bounded too, and a
// failed dial opens a cooldown window (see NodeServer.peerConn) so a
// down peer fails fast instead of costing a full dial timeout per tick.
const (
	defaultWriteTimeout = 2 * time.Second
	defaultDialTimeout  = 2 * time.Second
	defaultDialCooldown = 1 * time.Second
)

// conn wraps a TCP connection for frame writing. Every write — control
// envelopes and encoded batches alike — goes out through writeFrames.
// A conn has one writer at a time, so its writes take no lock of their
// own: on the controller, whoever holds Controller.mu; on a host, its
// loop; or dial before it hands the conn over.
type conn struct {
	c net.Conn
	// wt bounds every frame write; a deadline expiry surfaces as a
	// net.Error with Timeout() true and feeds the evict/redial/dropped
	// accounting paths. Zero disables deadlines (tests only).
	wt time.Duration
}

func (c *conn) send(es ...*Envelope) error { return c.sendWith(es, nil) }

// sendWith writes es as back-to-back JSON frames, then the encoded frame
// tail, with one vectored write: the controller's flush writes everything
// a step tells one node in one syscall, not one per frame.
func (c *conn) sendWith(es []*Envelope, tail []byte) error {
	bufs := make(net.Buffers, 0, len(es)+1)
	for _, e := range es {
		p, err := json.Marshal(e)
		if err != nil {
			return err
		}
		bufs = append(bufs, appendFrame(make([]byte, 0, frameHeaderLen+len(p)), frameJSON, p))
	}
	if len(tail) > 0 {
		bufs = append(bufs, tail)
	}
	return c.writeFrames(&bufs, time.Now().Add(c.wt))
}

// writeFrames writes pre-encoded frames back-to-back with one vectored
// write (writev on TCP) under the write deadline by — a host's flush
// shares one across its peers. The buffers are consumed in place — bufs
// is a pointer so the steady-state flush does not box a fresh slice
// header per call.
func (c *conn) writeFrames(bufs *net.Buffers, by time.Time) error {
	if c.wt > 0 {
		c.c.SetWriteDeadline(by)
	}
	_, err := bufs.WriteTo(c.c)
	return err
}

func (c *conn) Close() error { return c.c.Close() }

// appendFrame appends a complete frame — header plus payload — to dst.
func appendFrame(dst []byte, kind byte, payload []byte) []byte {
	dst = append(dst, kind, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(dst[len(dst)-4:], uint32(len(payload)))
	return append(dst, payload...)
}

// appendBatchFrame appends a complete frameBatch frame for b to dst,
// encoding the batch payload in place (no intermediate copy).
func appendBatchFrame(dst []byte, b *stream.Batch) []byte {
	start := len(dst)
	dst = append(dst, frameBatch, 0, 0, 0, 0)
	dst = appendWireBatch(dst, b)
	binary.BigEndian.PutUint32(dst[start+1:start+frameHeaderLen], uint32(len(dst)-start-frameHeaderLen))
	return dst
}

// dial connects, bounded by the dial timeout. wt is the write deadline
// applied to every frame written on the resulting conn.
func dial(addr string, wt time.Duration) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, defaultDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return &conn{c: nc, wt: wt}, nil
}
