package federation

import "repro/internal/stream"

// Virtual-time checkpoint schedule (PR 8). On the configured cadence the
// engine walks every live fragment at the end of a Step and snapshots its
// operator state (windows, capture stores, rate estimators) into a
// per-fragment record. When KillNode re-places a displaced fragment, the
// newest snapshot — the fragment's own, or a shape-and-rate compatible
// query's under keyed sharing (control.Query.CompatKey) — is restored into the fresh executor, so
// recovery resumes from a warm window instead of refilling it over a full
// STW. When every displaced fragment of a query restores, the recovery
// epoch resets are skipped: the query's surviving engine-side accumulator
// stays valid, and the SIC dip is only the mass lost since the last
// checkpoint plus in-transit drops — settled recovery within ~2 slides
// regardless of STW length (themis-bench -run churn).
//
// Checkpoint ticks stay inside the steady-state zero-allocation budget:
// the slot list, the encoder buffer and each record's byte buffer are
// reused, so once capacities stabilise a warm checkpoint walk touches no
// allocator (TestCheckpointSteadyStateZeroAlloc).

// ckptKey identifies one fragment's snapshot record.
type ckptKey struct {
	q  stream.QueryID
	fi int
}

// snapshotRec is the newest sealed snapshot of one fragment. data is
// overwritten in place on every checkpoint tick; valid is false until the
// first successful snapshot and for shared subscribers (whose state lives
// on their primary).
type snapshotRec struct {
	data  []byte
	tick  int64
	valid bool
}

// ckptSlot is one precomputed checkpoint target. Slots are rebuilt only
// when the query set changes (deploy, remove), never on the per-tick walk.
type ckptSlot struct {
	rt  *queryRT
	fi  int
	rec *snapshotRec
}

// rebuildCheckpointSlots re-derives the slot list, the compat index and
// the record map from the live query set. Cold path: runs only after a
// deploy or removal dirtied the set, from the next checkpoint tick.
func (e *Engine) rebuildCheckpointSlots() {
	e.ckptSlots = e.ckptSlots[:0]
	clear(e.ckptCompat)
	live := make(map[ckptKey]bool, len(e.ckptRecs))
	for _, qid := range e.order {
		rt := e.queries[qid]
		if rt == nil || rt.removed {
			continue
		}
		for fi := range rt.ctl.Plan.Fragments {
			key := ckptKey{q: qid, fi: fi}
			live[key] = true
			rec := e.ckptRecs[key]
			if rec == nil {
				rec = &snapshotRec{}
				e.ckptRecs[key] = rec
			}
			e.ckptSlots = append(e.ckptSlots, ckptSlot{rt: rt, fi: fi, rec: rec})
			if ck := rt.ctl.CompatKey(fi); ck != "" {
				// First writer wins: e.order is ascending, so the compat
				// record belongs to the lowest-numbered live query of the
				// shape — the shared primary under SharingFull.
				if _, ok := e.ckptCompat[ck]; !ok {
					e.ckptCompat[ck] = rec
				}
			}
		}
	}
	// Records of departed queries are dropped so a long-lived federation
	// absorbing query churn does not accumulate dead snapshots.
	for k := range e.ckptRecs {
		if !live[k] {
			delete(e.ckptRecs, k)
		}
	}
}

// checkpointTick snapshots every live fragment's end-of-tick state into
// its record, reusing one encoder and each record's buffer.
func (e *Engine) checkpointTick() {
	if e.ckptDirty {
		e.rebuildCheckpointSlots()
		e.ckptDirty = false
	}
	for i := range e.ckptSlots {
		s := &e.ckptSlots[i]
		nd := e.nodes[s.rt.ctl.Placement[s.fi]]
		e.ckptEnc.Reset()
		if err := nd.StateSnapshot(s.rt.ctl.ID, stream.FragID(s.fi), &e.ckptEnc); err != nil {
			// Shared subscribers carry no private state (their primary's
			// record covers them); anything else unexpected simply leaves
			// the fragment without a restorable record.
			s.rec.valid = false
			continue
		}
		s.rec.data = s.rec.data[:0]
		s.rec.data = append(s.rec.data, e.ckptEnc.Seal()...)
		s.rec.tick = e.tick
		s.rec.valid = true
	}
}

// restoreDisplaced restores a just-re-placed fragment from the newest
// compatible snapshot: the fragment's own record, else the compat index
// under keyed sharing. It reports whether the fragment now runs on warm
// state (shared subscribers count as restored — their primary carries the
// state). Restore failures are tolerated: the caller falls back to the
// legacy empty-window recovery for the whole query.
func (e *Engine) restoreDisplaced(rt *queryRT, fi int) bool {
	rec := e.ckptRecs[ckptKey{q: rt.ctl.ID, fi: fi}]
	if rec == nil || !rec.valid {
		if ck := rt.ctl.CompatKey(fi); ck != "" {
			if cr := e.ckptCompat[ck]; cr != nil && cr.valid {
				rec = cr
			}
		}
	}
	if rec == nil || !rec.valid {
		return false
	}
	return e.nodes[rt.ctl.Placement[fi]].RestoreState(rt.ctl.ID, stream.FragID(fi), rec.data) == nil
}
