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
// tick, recovery epoch, close — with the time passed in
// (the engine's tick time, the controller's run clock), so a query's
// reported SIC is computed by one piece of arithmetic whichever runtime
// served it. Entries are indexed by the control plane's dense query ids,
// and every walk is in ascending id: nothing a ledger reports depends on
// map order. A Ledger is not safe for concurrent use.
type Ledger struct {
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
	epoch   stream.Time
	sum     float64
	n       int
	samples []float64
}

// NewLedger builds an empty ledger whose coordinators disseminate the
// root-measured result SIC over the given STW and slide. keepSamples
// retains every query's per-tick series (costs memory on large runs).
func NewLedger(stw, slide stream.Duration, keepSamples bool) *Ledger {
	return &Ledger{stw: stw, slide: slide, keep: keepSamples}
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
		*e = entry{coord: New(q, RootMeasured, l.stw, l.slide), opened: true, epoch: now}
		l.live++
	}
}

// Close freezes q at its current mean: the coordinator and its sliding
// accumulators are released, late results are ignored, and
// only the scalars behind the reported mean (and the opt-in series)
// remain, so a deployment absorbing arrivals and departures does not grow
// with its history. It reports whether an open query was closed.
func (l *Ledger) Close(q stream.QueryID) bool {
	e := l.at(q)
	if e == nil {
		return false
	}
	e.coord = nil
	l.live--
	return true
}

// Live reports whether q is open.
func (l *Ledger) Live(q stream.QueryID) bool { return l.at(q) != nil }

// NumLive reports how many queries hold a coordinator.
func (l *Ledger) NumLive() int { return l.live }

// MaxResultMass bounds the SIC mass one result report may carry. Eq. (1)
// stamps a query's sources with a total mass of 1 per STW and operators
// only divide and sum it, so a report of one window's result carries at
// most about 1; the bound leaves three orders of magnitude for rate
// estimates and windows that stretch that (DESIGN.md §5).
const MaxResultMass = 1e3

// Result records SIC mass that reached q's result stream at time now and
// reports whether it was recorded: a result for a query that is not open
// is dropped, and so is mass no result can carry — negative, NaN, above
// MaxResultMass — which would poison q's sliding sum for good.
func (l *Ledger) Result(q stream.QueryID, now stream.Time, mass float64) bool {
	e := l.at(q)
	if e == nil || !(mass >= 0 && mass <= MaxResultMass) {
		return false
	}
	e.coord.ReportResult(now, mass)
	return true
}

// ResetEpoch starts a fresh measurement epoch for q after a cold
// recovery: SIC mass measured before its fragments were re-placed
// described a pipeline that no longer exists, so the measured estimate,
// the sample sum and the kept series restart. The warm-up gate
// does not: the query is as old as it was.
func (l *Ledger) ResetEpoch(q stream.QueryID) {
	if e := l.at(q); e != nil {
		e.coord.ResetEpoch()
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
// id: the measured result SIC is read once, send — when non-nil — is
// handed it to disseminate and returns how many fragment hosts it
// addressed, and past the query's warm-up the same value is sampled into
// its mean. A nil send disseminates nothing.
func (l *Ledger) Tick(now stream.Time, warmup stream.Duration, send func(q stream.QueryID, v float64) int) {
	for i := range l.entries {
		e := &l.entries[i]
		if e.coord == nil {
			continue
		}
		// The read advances the sliding accumulator, so a tick that
		// neither sends nor samples leaves it alone.
		sampled := now > e.epoch.Add(warmup)
		if send == nil && !sampled {
			continue
		}
		s := e.coord.MeasuredSIC(now)
		if send != nil {
			l.msgs += int64(send(stream.QueryID(i), s))
		}
		if sampled {
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
// fairness aggregates, as in Figs. 8-14. A query with no sample past its
// warmup (say, one closed before its own epoch plus warmup) is listed
// with mean 0 and Measured false, and the aggregates cover only the
// measured queries: it was never measured, so it says nothing about how
// fairly SIC was shared.
type Summary struct {
	Queries         []stream.QueryID
	Means           []float64
	Measured        []bool
	Mean, Jain, Std float64
}

// Summary assembles the current statistics.
func (l *Ledger) Summary() Summary {
	var s Summary
	var measured []float64
	for i := range l.entries {
		e := &l.entries[i]
		if !e.opened {
			continue
		}
		mean := 0.0
		if e.n > 0 {
			mean = e.sum / float64(e.n)
			measured = append(measured, mean)
		}
		s.Queries = append(s.Queries, stream.QueryID(i))
		s.Means = append(s.Means, mean)
		s.Measured = append(s.Measured, e.n > 0)
	}
	s.Mean = metrics.Mean(measured)
	s.Jain = metrics.Jain(measured)
	s.Std = metrics.Std(measured)
	return s
}
