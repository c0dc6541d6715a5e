package node

import (
	"errors"
	"fmt"

	"repro/internal/stream"
)

// Per-fragment checkpoint surface (PR 8). A fragment's recoverable state
// is its executor's operator state (windows, capture stores, pending
// buffers) plus the rate-estimator rings of the sources attached to it —
// without the estimators a restored fragment would re-enter warm-start
// extrapolation and mis-stamp Eq. (1) SIC for a window's worth of tuples.
//
// The snapshot payload layout, inside the stream codec's version byte and
// checksum trailer (the caller owns Reset and Seal):
//
//	[fragment executor state]        — FragmentExec.Snapshot
//	[u32 source count]
//	per source, in attach order:     — positional; attach order is
//	  [bool has estimator]             deterministic on both runtimes
//	  [estimator state if present]

// ErrNotHosted reports a state operation against a fragment the node does
// not execute: one it does not hold, or one riding another query's
// instance, which has no private state of its own.
var ErrNotHosted = errors.New("node: fragment not hosted")

// ForEachFragment calls fn for every hosted executing fragment in the
// node's deterministic hosting order. Shared subscribers are skipped —
// they carry no private state.
func (n *Node) ForEachFragment(fn func(q stream.QueryID, f stream.FragID)) {
	for _, key := range n.fragOrder {
		fn(key.q, key.f)
	}
}

// StateSnapshot writes the fragment's full recoverable state into enc.
// The caller owns the encoder lifecycle (Reset before, Seal after), so
// the engine's checkpoint tick reuses one encoder across every fragment
// without allocating. Returns ErrNotHosted for a fragment the node does
// not execute.
func (n *Node) StateSnapshot(q stream.QueryID, f stream.FragID, enc *stream.SnapEncoder) error {
	key := fragKey{q: q, f: f}
	inst, ok := n.frags[key]
	if !ok {
		return ErrNotHosted
	}
	inst.exec.Snapshot(enc)
	cnt := 0
	for _, a := range n.srcs {
		if a.src.Query == q && a.src.Frag == f {
			cnt++
		}
	}
	enc.U32(uint32(cnt))
	for _, a := range n.srcs {
		if a.src.Query == q && a.src.Frag == f {
			enc.Bool(true)
			a.est.Snapshot(enc)
		}
	}
	return nil
}

// RestoreState replaces the fragment's state with a sealed snapshot taken
// from a fragment of the same plan (same query, or one of the same shape
// and rate, which draws the same stream). After the operator state is
// applied, every window's emission cursor is reopened at the node's
// current time, so edges between the checkpoint and the restore are
// skipped rather than re-emitted.
//
// A decode or compatibility error may leave a prefix of the operators
// restored; the executor remains safe to run, and callers respond by
// taking the legacy reset path instead.
func (n *Node) RestoreState(q stream.QueryID, f stream.FragID, data []byte) error {
	key := fragKey{q: q, f: f}
	inst, ok := n.frags[key]
	if !ok {
		return ErrNotHosted
	}
	var dec stream.SnapDecoder
	if err := dec.Init(data); err != nil {
		return err
	}
	if err := inst.exec.Restore(&dec); err != nil {
		return err
	}
	cnt := int(dec.U32())
	if err := dec.Err(); err != nil {
		return err
	}
	applied := 0
	for _, a := range n.srcs {
		if a.src.Query != q || a.src.Frag != f {
			continue
		}
		if applied >= cnt {
			applied++
			continue
		}
		if dec.Bool() {
			if err := a.est.Restore(&dec); err != nil {
				return err
			}
		}
		applied++
	}
	if applied != cnt {
		return fmt.Errorf("node: snapshot has %d source estimators, fragment has %d", cnt, applied)
	}
	if dec.Remaining() != 0 {
		return stream.ErrSnapCorrupt
	}
	if err := dec.Err(); err != nil {
		return err
	}
	inst.exec.Reopen(n.now)
	return nil
}
