package allochygiene

// Seeds is the hand-maintained list of steady-state entry points. The
// hot set checked by the analyzer is everything statically reachable
// from these roots across the module (hotset_gen.go) — regenerate it
// after changing the call graph:
//
//	go generate ./internal/analysis/allochygiene
//
// CI verifies the generated file is current (themis-vet -genroots -check).
//
//go:generate go run repro/cmd/themis-vet -genroots
var Seeds = []string{
	// The virtual-time engine's per-tick step: the path that must stay
	// at 0 allocs in steady state (TestSteadyStateZeroAlloc).
	"(*repro/internal/federation.Engine).Step",
	// The wall-clock runtime's per-tick body on live nodes: same data
	// path, driven from the transport host loop.
	"(*repro/internal/node.Node).TickSpan",
	// The transport write pipeline (PR 9): encode into a pooled buffer
	// and queue per peer, then flush each queue with one vectored write.
	// Both must stay at 0 allocs in steady state
	// (TestSteadyStateSendZeroAlloc).
	"(*repro/internal/transport.NodeServer).routeDownstream",
	"(*repro/internal/transport.NodeServer).flushPeers",
	// The control path every tick: a host drains its results into the
	// tick frame and encodes it from the same free list, and the
	// controller encodes each host's SIC frame into a reused buffer
	// (TestSteadyStateTickFrameZeroAlloc).
	"(*repro/internal/transport.NodeServer).drainOutbox",
	"(*repro/internal/transport.NodeServer).queueResults",
	"(*repro/internal/transport.nodeOut).sicFrame",
	// The host loop's batch-apply path: every inbound batch the read
	// loops decode (from the batch pool) enters the node here.
	"(*repro/internal/transport.NodeServer).enqueue",
}

// Stops are reachability barriers: functions reachable from the roots
// that are, by design, not steady-state, where allocation is expected
// and budgeted separately. The traversal does not descend into them.
var Stops = []string{
	// Dialling happens only on first contact with a peer or after an
	// evict/redial; steady-state flushes hit the connection cache.
	"repro/internal/transport.dial",
}
