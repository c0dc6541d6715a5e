package federation

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/cql"
	"repro/internal/sources"
	"repro/internal/stream"
)

// Checkpointed recovery tests (PR 8): with Config.Checkpoint set, a kill
// restores the displaced fragment's windows from the newest snapshot and
// keeps the query's SIC accounting running, so recovery settles within a
// couple of result slides instead of one STW refill.

// ckptChurnEngine builds the churn-experiment topology: 4 nodes (one
// spare) and a 3-fragment AVG-all query on nodes {0,1,2}, whose root
// host, node 0, the tests kill.
func ckptChurnEngine(t *testing.T, stw, interval, ckpt stream.Duration) (*Engine, stream.QueryID) {
	t.Helper()
	cfg := Defaults()
	cfg.STW = stw
	cfg.Interval = interval
	cfg.SourceRate = 50
	cfg.Seed = 11
	cfg.Checkpoint = ckpt
	e := NewEngine(cfg)
	e.AddNodes(4, 50_000)
	q, err := e.Submit(QuerySubmit{CQL: cql.AvgAll, Fragments: 3, Dataset: int(sources.Uniform), Placement: []stream.NodeID{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	return e, q
}

// TestCheckpointRecoveryConvergence is the differential acceptance test:
// a run that loses the root fragment's host with checkpointing on must
// converge back to the undisturbed run's per-tick SIC within two result
// slides of the kill — for a long STW that is an order of magnitude
// faster than the window refill the legacy recovery needs.
func TestCheckpointRecoveryConvergence(t *testing.T) {
	const (
		stw      = 10 * stream.Second
		interval = 100 * stream.Millisecond
		slide    = stream.Second // AVG-all result slide
	)
	killTick := 3 * int64(stw) / int64(interval)
	churned, q := ckptChurnEngine(t, stw, interval, interval)
	calm, cq := ckptChurnEngine(t, stw, interval, interval)
	if cq != q {
		t.Fatalf("query ids diverge: %d vs %d", q, cq)
	}
	for i := int64(0); i < killTick; i++ {
		churned.Step()
		calm.Step()
	}
	pre := churned.CurrentSIC(q)
	if pre < 0.9 {
		t.Fatalf("pre-kill SIC %.3f, federation never reached steady state", pre)
	}
	churned.KillNode(0)
	// The restore brings the window back, but the partial batches that
	// were in flight to the dead host when it died are gone for good —
	// one slide's emissions from the two upstream fragments, 2 of the
	// 3·(STW/slide) = 30 partial-units the sliding accumulator covers.
	// That bounds the permissible divergence from the calm twin until
	// the lost slide retires from the window, one STW after the kill.
	transitLoss := 2.0 / (3.0 * float64(stw) / float64(slide))
	deadline := 2 * int64(slide) / int64(interval)
	retire := (int64(stw) + 3*int64(slide)) / int64(interval)
	horizon := 2 * int64(stw) / int64(interval)
	var atDeadline, worstMid, worstLate float64
	for i := int64(0); i <= horizon; i++ {
		churned.Step()
		calm.Step()
		diff := math.Abs(churned.CurrentSIC(q) - calm.CurrentSIC(q))
		switch {
		case i == deadline:
			atDeadline = churned.CurrentSIC(q)
		case i > deadline && i < retire-3*int64(slide)/int64(interval):
			// Settled plateau: no further drift beyond the bounded loss,
			// and no change from the level reached at the deadline.
			if diff > worstMid {
				worstMid = diff
			}
			if d := math.Abs(churned.CurrentSIC(q) - atDeadline); d > 0.005 {
				t.Fatalf("t+%d: SIC %.4f drifted from the 2-slide settle level %.4f", i, churned.CurrentSIC(q), atDeadline)
			}
		case i >= retire:
			if diff > worstLate {
				worstLate = diff
			}
		}
	}
	if worstMid > transitLoss+0.005 {
		t.Errorf("checkpointed run diverges %.4f from the undisturbed run, beyond the %.4f in-transit bound", worstMid, transitLoss)
	}
	if worstLate > 1e-9 {
		t.Errorf("checkpointed run still diverges %.2e after the lost slide retired from the window", worstLate)
	}
	if got := churned.CurrentSIC(q); got < 0.99*pre {
		t.Errorf("settled SIC %.4f below 99%% of pre-kill %.4f", got, pre)
	}
}

// TestCheckpointRecoveryBeatsLegacy pins the headline property: with a
// long STW, the checkpointed run settles within two result slides while
// the legacy run is still refilling its window.
func TestCheckpointRecoveryBeatsLegacy(t *testing.T) {
	const (
		stw      = 20 * stream.Second
		interval = 100 * stream.Millisecond
		slide    = stream.Second
	)
	killTick := 3 * int64(stw) / int64(interval)
	ck, q := ckptChurnEngine(t, stw, interval, interval)
	legacy, _ := ckptChurnEngine(t, stw, interval, 0)
	for i := int64(0); i < killTick; i++ {
		ck.Step()
		legacy.Step()
	}
	pre := ck.CurrentSIC(q)
	ck.KillNode(0)
	legacy.KillNode(0)
	deadline := 2 * int64(slide) / int64(interval)
	for i := int64(0); i <= deadline; i++ {
		ck.Step()
		legacy.Step()
	}
	if got := ck.CurrentSIC(q); got < 0.95*pre {
		t.Errorf("checkpointed SIC %.4f two slides after the kill, want >= 95%% of pre-kill %.4f", got, pre)
	}
	// The legacy recovery epoch resets the sliding accumulator; two
	// slides into a 20 s STW it can only have refilled ~10% of it.
	if got := legacy.CurrentSIC(q); got > 0.5*pre {
		t.Errorf("legacy SIC %.4f two slides after the kill — refill finished implausibly fast", got)
	}
}

// checkpointVersionFallsBack: a checkpoint bank written by a build with
// another snapshot version must be refused at restore, and the query must
// then take the empty-window recovery epoch — the same trajectory, bit
// for bit, as a run that never checkpointed.
func checkpointVersionFallsBack(t *testing.T, version byte) {
	const (
		stw      = 5 * stream.Second
		interval = 100 * stream.Millisecond
	)
	killTick := 2 * int64(stw) / int64(interval)
	old, q := ckptChurnEngine(t, stw, interval, interval)
	legacy, _ := ckptChurnEngine(t, stw, interval, 0)
	for i := int64(0); i < killTick; i++ {
		old.Step()
		legacy.Step()
	}
	downgraded := 0
	for fi := range old.Placement(q) {
		// The bank's own buffer: rewriting it in place rewrites the record.
		data := old.plane.Checkpointed(q, fi)
		if data == nil {
			continue
		}
		body := data[:len(data)-8]
		body[0] = version
		h := fnv.New64a()
		h.Write(body)
		binary.LittleEndian.AppendUint64(body, h.Sum64())
		downgraded++
	}
	if downgraded == 0 {
		t.Fatal("no checkpoint record to downgrade")
	}
	old.KillNode(0)
	legacy.KillNode(0)
	for i := int64(0); i < 2*int64(stw)/int64(interval); i++ {
		old.Step()
		legacy.Step()
		if a, b := old.CurrentSIC(q), legacy.CurrentSIC(q); a != b {
			t.Fatalf("t+%d: SIC %v after refusing the version-%d bank, %v on the legacy path", i, a, version, b)
		}
	}
	if got := old.CurrentSIC(q); got < 0.9 {
		t.Errorf("SIC %.3f one STW after the fallback, want the refilled window", got)
	}
}

// TestCheckpointVersion1FallsBackToLegacy: version 1 held buffered tuples
// where version 2 held folded accumulators.
func TestCheckpointVersion1FallsBackToLegacy(t *testing.T) { checkpointVersionFallsBack(t, 1) }

// TestCheckpointVersion2FallsBackToLegacy: version 2 held PartialCov's
// buffered windows where version 3 holds its folded columns.
func TestCheckpointVersion2FallsBackToLegacy(t *testing.T) { checkpointVersionFallsBack(t, 2) }

// TestCheckpointReadOnlyBitExact: checkpointing is a read-only observer
// until a restore happens, so an undisturbed run with it on must be
// bit-identical to one with it off.
func TestCheckpointReadOnlyBitExact(t *testing.T) {
	const (
		stw      = 5 * stream.Second
		interval = 100 * stream.Millisecond
	)
	on, q := ckptChurnEngine(t, stw, interval, interval)
	off, _ := ckptChurnEngine(t, stw, interval, 0)
	ticks := 4 * int64(stw) / int64(interval)
	for i := int64(0); i < ticks; i++ {
		on.Step()
		off.Step()
		a, b := on.CurrentSIC(q), off.CurrentSIC(q)
		if a != b {
			t.Fatalf("tick %d: SIC %v with checkpointing, %v without — snapshot path mutated state", i, a, b)
		}
	}
}

// TestCheckpointStateNoLeak: records of removed queries must leave the
// bank with the query, so a long-lived federation absorbing query churn
// does not accumulate dead snapshots.
func TestCheckpointStateNoLeak(t *testing.T) {
	cfg := Defaults()
	cfg.Interval = 100 * stream.Millisecond
	cfg.STW = 2 * stream.Second
	cfg.SourceRate = 30
	cfg.Checkpoint = cfg.Interval
	cfg.Seed = 5
	e := NewEngine(cfg)
	e.AddNodes(3, 50_000)
	q1, err := e.Submit(QuerySubmit{CQL: cql.AvgAll, Dataset: int(sources.Uniform), Placement: []stream.NodeID{0}})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := e.Submit(QuerySubmit{CQL: cql.AvgAll, Fragments: 2, Dataset: int(sources.Gaussian), Placement: []stream.NodeID{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		e.Step()
	}
	for _, q := range []stream.QueryID{q1, q2} {
		if e.plane.Checkpointed(q, 0) == nil {
			t.Fatalf("query %d has no valid checkpoint record after 10 ticks", q)
		}
	}
	e.RemoveQuery(q1)
	for i := 0; i < 2; i++ {
		e.Step() // checkpoint ticks after the removal must not re-bank it
	}
	if e.plane.Checkpointed(q1, 0) != nil {
		t.Errorf("removed query %d still owns a checkpoint record", q1)
	}
	if e.plane.Checkpointed(q2, 0) == nil {
		t.Error("surviving query's checkpoint record was dropped by the prune")
	}
}
