package coordinator

import (
	"repro/internal/metrics"
	"repro/internal/stream"
)

// Ledger is one deployment's result-SIC bookkeeping: every query's
// coordinator, its measurement epoch and warm-up gate, the sample sum
// behind its reported mean, and the walk that decides what is broadcast
// and what is reported. The virtual-time engine and the TCP controller
// both keep exactly one and feed it the same events — open, result,
// accepted delta, tick, recovery epoch, close — with the time passed in
// (the engine's tick time, the controller's run clock), so a query's
// reported SIC is computed by one piece of arithmetic whichever runtime
// served it. Entries are indexed by the control plane's dense query ids,
// and every walk is in ascending id: nothing a ledger reports depends on
// map order. A Ledger is not safe for concurrent use.
type Ledger struct {
	mode       UpdateMode
	stw, slide stream.Duration
	keep       bool
	entries    []entry
	live       int
	// msgs counts result-SIC update messages sent to fragment hosts, for
	// the §7.6 overhead accounting (30 bytes each).
	msgs int64
}

// entry is one query's record. coord is nil before Open and after Close;
// what survives a Close is what the summary reports.
type entry struct {
	coord  *Coordinator
	opened bool
	// epoch is when the query was opened. Samples count toward its mean
	// only after epoch+warmup, so a query submitted mid-run warms up on its
	// own clock instead of diluting its mean with an empty window; one
	// opened before the run starts (time zero) warms up on the run's.
	epoch stream.Time
	// pending sums the accepted-SIC deltas reported since the last tick,
	// in arrival order, for one accumulator update per query per tick.
	pending    float64
	hasPending bool
	sum        float64
	n          int
	samples    []float64
}

// NewLedger builds an empty ledger whose coordinators estimate under mode
// over the given STW and slide. keepSamples retains every query's
// per-tick series (costs memory on large runs).
func NewLedger(mode UpdateMode, stw, slide stream.Duration, keepSamples bool) *Ledger {
	return &Ledger{mode: mode, stw: stw, slide: slide, keep: keepSamples}
}

// at returns q's entry if the query is open, else nil.
func (l *Ledger) at(q stream.QueryID) *entry {
	if q < 0 || int(q) >= len(l.entries) || l.entries[q].coord == nil {
		return nil
	}
	return &l.entries[q]
}

// Open instantiates q's coordinator at time now — "instantiated when a
// new query is deployed" (§6). Re-opening a known id is a no-op.
func (l *Ledger) Open(q stream.QueryID, now stream.Time) {
	for int(q) >= len(l.entries) {
		l.entries = append(l.entries, entry{})
	}
	if e := &l.entries[q]; !e.opened {
		*e = entry{coord: New(q, l.mode, l.stw, l.slide), opened: true, epoch: now}
		l.live++
	}
}

// Close freezes q at its current mean: the coordinator and its sliding
// accumulators are released, late results and deltas are ignored, and
// only the scalars behind the reported mean (and the opt-in series)
// remain, so a deployment absorbing arrivals and departures does not grow
// with its history. It reports whether an open query was closed.
func (l *Ledger) Close(q stream.QueryID) bool {
	e := l.at(q)
	if e == nil {
		return false
	}
	e.coord = nil
	e.pending, e.hasPending = 0, false
	l.live--
	return true
}

// Live reports whether q is open.
func (l *Ledger) Live(q stream.QueryID) bool { return l.at(q) != nil }

// NumLive reports how many queries hold a coordinator.
func (l *Ledger) NumLive() int { return l.live }

// Result records SIC mass that reached q's result stream at time now and
// reports whether q is open; a result for any other query is dropped.
func (l *Ledger) Result(q stream.QueryID, now stream.Time, mass float64) bool {
	e := l.at(q)
	if e != nil {
		e.coord.ReportResult(now, mass)
	}
	return e != nil
}

// Accepted gathers one accepted-SIC delta for q; the next Tick applies
// the gathered sum as a single update, the bits ReportAcceptedBatch
// gives for the same deltas. Only the Acceptance ablation ever reads the
// accepted estimate, so under RootMeasured the delta is dropped here.
func (l *Ledger) Accepted(q stream.QueryID, delta float64) {
	if l.mode != Acceptance {
		return
	}
	if e := l.at(q); e != nil {
		e.pending += delta
		e.hasPending = true
	}
}

// ResetEpoch starts a fresh measurement epoch for q after a cold
// recovery: SIC mass accepted or measured before its fragments were
// re-placed described a pipeline that no longer exists, so both sliding
// estimates, the sample sum and the kept series restart. The warm-up gate
// does not: the query is as old as it was.
func (l *Ledger) ResetEpoch(q stream.QueryID) {
	if e := l.at(q); e != nil {
		e.coord.ResetEpoch()
		e.pending, e.hasPending = 0, false
		e.sum, e.n = 0, 0
		e.samples = e.samples[:0]
	}
}

// Measured reports q's root-measured result SIC over the STW ending at
// now (zero once closed).
func (l *Ledger) Measured(q stream.QueryID, now stream.Time) float64 {
	if e := l.at(q); e != nil {
		return e.coord.MeasuredSIC(now)
	}
	return 0
}

// Tick closes one interval at time now for every open query in ascending
// id: the gathered accepted deltas are applied, send — when non-nil — is
// handed the value to disseminate and returns how many fragment hosts it
// addressed, and past the query's warm-up the measured result SIC is
// sampled into its mean. A nil send disseminates nothing.
func (l *Ledger) Tick(now stream.Time, warmup stream.Duration, send func(q stream.QueryID, v float64) int) {
	for i := range l.entries {
		e := &l.entries[i]
		if e.coord == nil {
			continue
		}
		if e.hasPending {
			e.coord.ReportAccepted(now, e.pending)
			e.pending, e.hasPending = 0, false
		}
		if send != nil {
			l.msgs += int64(send(stream.QueryID(i), e.coord.Value(now)))
		}
		if now > e.epoch.Add(warmup) {
			s := e.coord.MeasuredSIC(now)
			e.sum += s
			e.n++
			if l.keep {
				e.samples = append(e.samples, s)
			}
		}
	}
}

// UpdateMessages reports how many result-SIC update messages were sent,
// and UpdateBytes their total size (§7.6: 30 bytes per message).
func (l *Ledger) UpdateMessages() int64 { return l.msgs }
func (l *Ledger) UpdateBytes() int64    { return l.msgs * stream.CoordinatorMsgBytes }

// Samples returns q's kept per-tick series (nil unless keepSamples).
func (l *Ledger) Samples(q stream.QueryID) []float64 {
	if q < 0 || int(q) >= len(l.entries) {
		return nil
	}
	return l.entries[q].samples
}

// Summary is what a run reports: the time-averaged measured result SIC
// (Eq. 4) of every query the ledger ever opened — live or closed, a
// closed one at the mean it froze with — in ascending id, and the
// fairness aggregates over those means, as in Figs. 8-14.
type Summary struct {
	Queries         []stream.QueryID
	Means           []float64
	Mean, Jain, Std float64
}

// Summary assembles the current statistics.
func (l *Ledger) Summary() Summary {
	var s Summary
	for i := range l.entries {
		e := &l.entries[i]
		if !e.opened {
			continue
		}
		mean := 0.0
		if e.n > 0 {
			mean = e.sum / float64(e.n)
		}
		s.Queries = append(s.Queries, stream.QueryID(i))
		s.Means = append(s.Means, mean)
	}
	s.Mean = metrics.Mean(s.Means)
	s.Jain = metrics.Jain(s.Means)
	s.Std = metrics.Std(s.Means)
	return s
}
