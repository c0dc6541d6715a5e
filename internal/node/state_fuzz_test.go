package node

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/operator"
	"repro/internal/query"
	"repro/internal/sources"
	"repro/internal/stream"
)

// loopbackRouter feeds a node's inter-fragment batches back into the same
// node, so downstream fragments (merge, finalize, cov pairing) accumulate
// real window state for the snapshot tests — a recording router would
// leave every non-leaf window empty. Batches are deep-copied through
// NewBatch because Replay recycles the originals after the call.
type loopbackRouter struct {
	batches []*stream.Batch
}

func (r *loopbackRouter) RouteDownstream(_ stream.NodeID, b *stream.Batch) {
	arity := 0
	if len(b.Tuples) > 0 {
		arity = len(b.Tuples[0].V)
	}
	cp := stream.NewBatch(b.Query, b.Frag, -1, b.TS, len(b.Tuples), arity)
	cp.Port = b.Port
	for i := range b.Tuples {
		cp.Tuples[i].TS = b.Tuples[i].TS
		cp.Tuples[i].SIC = b.Tuples[i].SIC
		copy(cp.Tuples[i].V, b.Tuples[i].V)
	}
	cp.SIC = b.SIC
	r.batches = append(r.batches, cp)
}
func (r *loopbackRouter) DeliverResult(stream.QueryID, stream.Time, []stream.Tuple, float64) {}
func (r *loopbackRouter) ReportAccepted(stream.QueryID, stream.Time, float64)                {}

// buildStateNode hosts every fragment of a workload mix covering all
// operator kinds — partial/merge/finalize AVG, COV with window pairing,
// TOP-K, plain aggregation — on one node, warms it with loopback ticks,
// and returns the node plus its hosted fragment list.
func buildStateNode(tb testing.TB) (*Node, []FragRef) {
	tb.Helper()
	n := New(1, Config{
		Interval:       250 * stream.Millisecond,
		STW:            10 * stream.Second,
		CapacityPerSec: 1e6,
		Seed:           1,
	}, core.NewBalanceSIC(1))
	rng := rand.New(rand.NewSource(7))
	sid := stream.SourceID(1)
	host := func(q stream.QueryID, plan *query.Plan) {
		for fi := range plan.Fragments {
			fp := plan.Fragments[fi]
			downstream, downstreamPort := stream.FragID(-1), -1
			if d := plan.Downstream[fi]; d >= 0 {
				downstream = stream.FragID(d)
				downstreamPort = plan.Fragments[d].UpstreamPort
			}
			n.HostFragment(q, stream.FragID(fi), query.NewFragmentExec(fp), plan.NumSources(), downstream, downstreamPort)
			genIdx := plan.SourceIndexOffset(fi)
			for si, ss := range fp.Sources {
				gen := ss.NewGen(rand.New(rand.NewSource(rng.Int63())), genIdx+si)
				n.AttachSource(sources.New(sid, q, stream.FragID(fi), ss.Port, 80, 4, ss.Arity, gen, rng.Int63()))
				sid++
			}
		}
	}
	host(1, query.NewAvgAll(2, sources.Uniform))
	host(2, query.NewCov(2, sources.Exponential))
	host(3, query.NewTop5(2, sources.Gaussian))
	host(4, query.NewAggregate(operator.AggMax, sources.Uniform))

	lr := &loopbackRouter{}
	for i := 0; i < 30; i++ {
		now := stream.Time(i * 250)
		n.Tick(now)
		lr.batches = lr.batches[:0]
		n.TakeOutbox().Replay(n.ID(), lr)
		for _, b := range lr.batches {
			n.Enqueue(b, now)
		}
	}

	var frags []FragRef
	n.ForEachFragment(func(q stream.QueryID, f stream.FragID) {
		frags = append(frags, FragRef{Query: q, Frag: f})
	})
	if len(frags) < 7 {
		tb.Fatalf("state node hosts %d fragments, want >= 7", len(frags))
	}
	return n, frags
}

// snapshotOf seals one fragment's state with a fresh encoder.
func snapshotOf(tb testing.TB, n *Node, fr FragRef) []byte {
	tb.Helper()
	var enc stream.SnapEncoder
	enc.Reset()
	if err := n.StateSnapshot(fr.Query, fr.Frag, &enc); err != nil {
		tb.Fatalf("StateSnapshot(q%d/f%d): %v", fr.Query, fr.Frag, err)
	}
	return append([]byte(nil), enc.Seal()...)
}

// TestStateSnapshotRoundTrip: snapshot → restore → snapshot must be a
// byte-exact fixed point for every hosted fragment, and state operations
// against unknown fragments must fail cleanly.
func TestStateSnapshotRoundTrip(t *testing.T) {
	n, frags := buildStateNode(t)
	for _, fr := range frags {
		s1 := snapshotOf(t, n, fr)
		if err := n.RestoreState(fr.Query, fr.Frag, s1); err != nil {
			t.Fatalf("RestoreState(q%d/f%d) of own snapshot: %v", fr.Query, fr.Frag, err)
		}
		s2 := snapshotOf(t, n, fr)
		if !bytes.Equal(s1, s2) {
			t.Errorf("q%d/f%d: snapshot changed across restore (%d vs %d bytes)",
				fr.Query, fr.Frag, len(s1), len(s2))
		}
	}
	var enc stream.SnapEncoder
	enc.Reset()
	if err := n.StateSnapshot(99, 0, &enc); err != ErrNotHosted {
		t.Errorf("StateSnapshot of unknown fragment: %v, want ErrNotHosted", err)
	}
	if err := n.RestoreState(99, 0, snapshotOf(t, n, frags[0])); err != ErrNotHosted {
		t.Errorf("RestoreState of unknown fragment: %v, want ErrNotHosted", err)
	}
}

// TestStateRestoreRejectsForeignSnapshot: a snapshot from a structurally
// different fragment must be rejected by the per-operator tags, leaving
// the decoder error — never a panic or silent misapply.
func TestStateRestoreRejectsForeignSnapshot(t *testing.T) {
	n, frags := buildStateNode(t)
	// q1/f0 (partial AVG pipeline) vs q2/f0 (partial COV): same entry
	// shape, different operator stacks.
	foreign := snapshotOf(t, n, frags[0])
	var target FragRef
	found := false
	for _, fr := range frags {
		if fr.Query == 2 {
			target, found = fr, true
			break
		}
	}
	if !found {
		t.Fatal("no COV fragment hosted")
	}
	if err := n.RestoreState(target.Query, target.Frag, foreign); err == nil {
		t.Fatal("RestoreState accepted a foreign fragment's snapshot")
	}
}

// asVersion re-seals a snapshot under another codec version: the version
// byte is rewritten and the FNV-1a trailer recomputed, so the blob is
// exactly what a build with that SnapVersion would have sealed.
func asVersion(sealed []byte, version byte) []byte {
	body := append([]byte(nil), sealed[:len(sealed)-8]...)
	body[0] = version
	h := fnv.New64a()
	h.Write(body)
	return binary.LittleEndian.AppendUint64(body, h.Sum64())
}

// TestStateRestoreRejectsVersion1: folded accumulators replaced buffered
// tuples in the operator blobs, so a version-1 snapshot (a checkpoint
// taken by an older build) must be refused by its version byte — named
// as such, before any operator state is touched — and leave the fragment
// exactly as it was.
func TestStateRestoreRejectsVersion1(t *testing.T) {
	if stream.SnapVersion != 2 {
		t.Fatalf("SnapVersion = %d: this test pins the 1 -> 2 bump", stream.SnapVersion)
	}
	n, frags := buildStateNode(t)
	for _, fr := range frags {
		before := snapshotOf(t, n, fr)
		err := n.RestoreState(fr.Query, fr.Frag, asVersion(before, 1))
		if err == nil || !strings.Contains(err.Error(), "version 1") {
			t.Fatalf("q%d/f%d: restore of a version-1 blob: %v, want a version error", fr.Query, fr.Frag, err)
		}
		if after := snapshotOf(t, n, fr); !bytes.Equal(before, after) {
			t.Errorf("q%d/f%d: a refused restore changed the fragment's state", fr.Query, fr.Frag)
		}
	}
}

// FuzzStateCodec is the decode hardening gate (PR 8 satellite): arbitrary
// bytes fed to RestoreState must error, not panic, and any input that
// does decode must reach a self-consistent state — its re-snapshot
// restores and re-snapshots to identical bytes (encode∘decode fixed
// point). Seeds are valid sealed snapshots of every hosted fragment plus
// truncations and bit flips of them.
func FuzzStateCodec(f *testing.F) {
	n, frags := buildStateNode(f)
	for _, fr := range frags {
		sealed := snapshotOf(f, n, fr)
		f.Add(sealed)
		f.Add(sealed[:len(sealed)/2])
		flipped := append([]byte(nil), sealed...)
		flipped[len(flipped)/3] ^= 0x20
		f.Add(flipped)
		f.Add(asVersion(sealed, 1))
	}
	f.Add([]byte{})
	f.Add([]byte{stream.SnapVersion})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fr := range frags {
			if err := n.RestoreState(fr.Query, fr.Frag, data); err != nil {
				continue // errors-not-panics is the property under test
			}
			s1 := snapshotOf(t, n, fr)
			if err := n.RestoreState(fr.Query, fr.Frag, s1); err != nil {
				t.Fatalf("q%d/f%d: restore of own re-snapshot failed: %v", fr.Query, fr.Frag, err)
			}
			s2 := snapshotOf(t, n, fr)
			if !bytes.Equal(s1, s2) {
				t.Fatalf("q%d/f%d: decode did not reach a fixed point (%d vs %d bytes)",
					fr.Query, fr.Frag, len(s1), len(s2))
			}
		}
	})
}
