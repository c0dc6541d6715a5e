package node

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// opBlob returns the named operator's state blob inside a sealed fragment
// snapshot (FragmentExec.Snapshot: a count, then per operator its name
// tag and a length-prefixed blob), aliasing sealed.
func opBlob(tb testing.TB, sealed []byte, name string) []byte {
	tb.Helper()
	var dec stream.SnapDecoder
	if err := dec.Init(sealed); err != nil {
		tb.Fatal(err)
	}
	for ops := dec.U32(); ops > 0 && dec.Err() == nil; ops-- {
		tag, size := dec.Str(), int(dec.U32())
		if tag == name {
			return sealed[dec.Offset() : dec.Offset()+size]
		}
		for ; size > 0; size-- {
			dec.U8()
		}
	}
	tb.Fatalf("snapshot holds no %q operator", name)
	return nil
}

// fragOf returns the first hosted fragment of a query.
func fragOf(tb testing.TB, frags []FragRef, q stream.QueryID) FragRef {
	tb.Helper()
	for _, fr := range frags {
		if fr.Query == q {
			return fr
		}
	}
	tb.Fatalf("no fragment of query %d hosted", q)
	return FragRef{}
}

// windowHeader is what WindowBuffer.Snapshot and the folded operators
// write ahead of their contents: kind, range, slide, next edge.
const (
	windowHeaderEdgeAt = 1 + 8 + 8
	windowHeaderLen    = windowHeaderEdgeAt + 8
)

// TestStateNodeSeedsFoldedCov: the state node's COV fragment is caught
// mid-window, and what its partial-cov operator checkpoints is the folded
// state — an open window of two SIC sums and two columns — not buffered
// tuples.
func TestStateNodeSeedsFoldedCov(t *testing.T) {
	n, frags := buildStateNode(t)
	blob := opBlob(t, snapshotOf(t, n, fragOf(t, frags, 2)), "partial-cov")
	var enc stream.SnapEncoder
	enc.Reset()
	for _, b := range blob[windowHeaderLen:] {
		enc.U8(b)
	}
	var dec stream.SnapDecoder
	if err := dec.Init(enc.Seal()); err != nil {
		t.Fatal(err)
	}
	seen, open := dec.Bool(), dec.U32()
	edge, sicX, sicY := dec.I64(), dec.F64(), dec.F64()
	nx := dec.Count(8)
	for i := 0; i < nx; i++ {
		dec.F64()
	}
	ny := dec.Count(8)
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	// 30 ticks of 250 ms at 80 tuples/s per side: the window closing at
	// 8000 is half full.
	if !seen || open != 1 || edge != 8000 || nx != 40 || ny != 40 || sicX <= 0 || sicY <= 0 || dec.Remaining() != 8*ny {
		t.Fatalf("partial-cov state: seen %v, %d open, edge %d, columns %d and %d, SIC %v and %v, %d bytes left",
			seen, open, edge, nx, ny, sicX, sicY, dec.Remaining())
	}
}

// joinSidesApart returns the TOP-5 fragment's snapshot with the next edge
// of its join's left window moved one slide on, so the two sides of the
// join disagree, re-sealed.
func joinSidesApart(tb testing.TB, n *Node, fr FragRef) []byte {
	sealed := snapshotOf(tb, n, fr)
	at := opBlob(tb, sealed, "join")[windowHeaderEdgeAt:windowHeaderLen]
	binary.LittleEndian.PutUint64(at, binary.LittleEndian.Uint64(at)+1000)
	return asVersion(sealed, stream.SnapVersion)
}

// TestStateRestoreRejectsJoinSidesApart: a checkpoint whose join would
// pair window e with window e' from then on is refused as corrupt.
func TestStateRestoreRejectsJoinSidesApart(t *testing.T) {
	n, frags := buildStateNode(t)
	fr := fragOf(t, frags, 3)
	if err := n.RestoreState(fr.Query, fr.Frag, joinSidesApart(t, n, fr)); !errors.Is(err, stream.ErrSnapCorrupt) {
		t.Fatalf("restore of a join with its sides on different edges: %v, want ErrSnapCorrupt", err)
	}
}

// restoreRejectsVersion: a snapshot sealed under another codec version (a
// checkpoint taken by an older build) must be refused by its version byte
// — named as such, before any operator state is touched — and leave the
// fragment exactly as it was.
func restoreRejectsVersion(t *testing.T, version byte) {
	n, frags := buildStateNode(t)
	want := fmt.Sprintf("version %d", version)
	for _, fr := range frags {
		before := snapshotOf(t, n, fr)
		err := n.RestoreState(fr.Query, fr.Frag, asVersion(before, version))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("q%d/f%d: restore of a version-%d blob: %v, want a version error", fr.Query, fr.Frag, version, err)
		}
		if after := snapshotOf(t, n, fr); !bytes.Equal(before, after) {
			t.Errorf("q%d/f%d: a refused restore changed the fragment's state", fr.Query, fr.Frag)
		}
	}
}

// TestStateRestoreRejectsVersion1: version 1 held buffered tuples where
// version 2 held the folded accumulators of Agg, GroupAgg and PartialAvg.
func TestStateRestoreRejectsVersion1(t *testing.T) { restoreRejectsVersion(t, 1) }

// TestStateRestoreRejectsVersion2: version 2 held PartialCov's two window
// buffers and capture stores where version 3 holds its folded columns.
func TestStateRestoreRejectsVersion2(t *testing.T) {
	if stream.SnapVersion != 3 {
		t.Fatalf("SnapVersion = %d: this test pins the 2 -> 3 bump", stream.SnapVersion)
	}
	restoreRejectsVersion(t, 2)
}

// FuzzStateCodec is the decode hardening gate (PR 8 satellite): arbitrary
// bytes fed to RestoreState must error, not panic, and any input that
// does decode must reach a self-consistent state — its re-snapshot
// restores and re-snapshots to identical bytes (encode∘decode fixed
// point). Seeds are valid sealed snapshots of every hosted fragment plus
// truncations and bit flips of them, the same under the two retired
// codec versions, and a join whose sides disagree on their next edge.
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
		f.Add(asVersion(sealed, 2))
	}
	f.Add(joinSidesApart(f, n, fragOf(f, frags, 3)))
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
