package coordinator

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/stream"
)

const (
	tSTW   = 2 * stream.Second
	tSlide = 250 * stream.Millisecond
)

// mean returns q's reported mean from the summary.
func mean(t *testing.T, l *Ledger, q stream.QueryID) float64 {
	t.Helper()
	s := l.Summary()
	for i, id := range s.Queries {
		if id == q {
			return s.Means[i]
		}
	}
	t.Fatalf("query %d missing from the summary %v", q, s.Queries)
	return 0
}

// TestLedgerWarmupEpochs: a query opened before the run (time zero) warms
// up on the run epoch, one opened mid-run on its own.
func TestLedgerWarmupEpochs(t *testing.T) {
	const warmup = stream.Second
	l := NewLedger(tSTW, tSlide, true)
	l.Open(0, 0)
	for tick := 1; tick <= 20; tick++ {
		now := stream.Time(tick) * stream.Time(tSlide)
		if tick == 8 { // opened at 2 s, warm from 3 s
			l.Open(1, now)
		}
		l.Result(0, now, 0.1)
		l.Result(1, now, 0.1) // dropped until query 1 opens
		l.Tick(now, warmup, nil)
	}
	// Samples count strictly after epoch+warmup: ticks 5..20 and 13..20.
	if got := len(l.Samples(0)); got != 16 {
		t.Errorf("pre-run query has %d samples, want 16 (run-epoch warm-up)", got)
	}
	if got := len(l.Samples(1)); got != 8 {
		t.Errorf("mid-run query has %d samples, want 8 (own-epoch warm-up)", got)
	}
	if got := l.Samples(1)[0]; got == 0 {
		t.Error("mid-run query's first sample read an empty window")
	}
	if l.Samples(7) != nil || l.Live(7) || l.Live(-1) {
		t.Error("unknown query ids must read as absent")
	}
}

// TestLedgerRefusesImpossibleMass: a report of mass no result can carry —
// negative, NaN, ±Inf, above MaxResultMass — is dropped, so a query's
// measured SIC, mean and Jain read exactly as if it never arrived. Two
// reports of 1e308 used to overflow the sliding sum to +Inf, and the
// first slide to expire turned it into NaN for good.
func TestLedgerRefusesImpossibleMass(t *testing.T) {
	const stw, slide = 10 * stream.Second, 250 * stream.Millisecond
	clean, fed := NewLedger(stw, slide, false), NewLedger(stw, slide, false)
	for _, l := range []*Ledger{clean, fed} {
		l.Open(0, 0)
		l.Open(1, 0)
	}
	for tick := 1; tick <= 60; tick++ {
		now := stream.Time(tick) * stream.Time(slide)
		for _, l := range []*Ledger{clean, fed} {
			l.Result(0, now, 0.025)
			l.Result(1, now, 0.02)
		}
		if tick <= 2 {
			for _, bad := range []float64{1e308, math.Inf(1), math.Inf(-1), math.NaN(), -0.5, MaxResultMass * 2} {
				if fed.Result(0, now, bad) {
					t.Errorf("mass %g recorded", bad)
				}
			}
		}
		if !fed.Result(1, now, MaxResultMass) || !clean.Result(1, now, MaxResultMass) {
			t.Fatal("mass at the bound refused")
		}
		for _, l := range []*Ledger{clean, fed} {
			l.Tick(now, stream.Second, nil)
		}
		if got, want := fed.Measured(0, now), clean.Measured(0, now); got != want {
			t.Fatalf("tick %d: measured %g, want %g", tick, got, want)
		}
	}
	got, want := fed.Summary(), clean.Summary()
	if !reflect.DeepEqual(got, want) || math.IsNaN(got.Mean) || math.IsNaN(got.Jain) {
		t.Errorf("summary %+v, want %+v", got, want)
	}
}

// TestLedgerResetEpoch: a cold recovery clears the measured estimate,
// the sample sum and the kept series — and nothing of any other query.
func TestLedgerResetEpoch(t *testing.T) {
	l := NewLedger(tSTW, tSlide, true)
	l.Open(0, 0)
	l.Open(1, 0)
	var now stream.Time
	for tick := 1; tick <= 6; tick++ {
		now = stream.Time(tick) * stream.Time(tSlide)
		for q := stream.QueryID(0); q < 2; q++ {
			l.Result(q, now, 0.1)
		}
		l.Tick(now, 0, nil)
	}
	l.ResetEpoch(0)
	var vals []float64
	l.Tick(now, 0, func(_ stream.QueryID, v float64) int { vals = append(vals, v); return 0 })
	if vals[0] != 0 || vals[1] == 0 {
		t.Errorf("disseminated estimates after reset: %v, want query 0 cleared only", vals)
	}
	if l.Measured(0, now) != 0 || l.Measured(1, now) == 0 {
		t.Errorf("measured after reset: %g / %g", l.Measured(0, now), l.Measured(1, now))
	}
	// One post-reset sample of an empty window, against seven of a filling one.
	if got := l.Samples(0); !reflect.DeepEqual(got, []float64{0}) {
		t.Errorf("kept series after reset: %v, want the single post-reset sample", got)
	}
	if len(l.Samples(1)) != 7 || mean(t, l, 0) != 0 || mean(t, l, 1) == 0 {
		t.Errorf("means after reset: %g / %g", mean(t, l, 0), mean(t, l, 1))
	}
	l.ResetEpoch(9) // unknown: no-op
}

// TestLedgerCloseFreezes: a closed query keeps its mean and its place in
// the summary, releases its coordinator, and ignores whatever arrives late.
func TestLedgerCloseFreezes(t *testing.T) {
	l := NewLedger(tSTW, tSlide, false)
	l.Open(0, 0)
	l.Open(1, 0)
	for tick := 1; tick <= 4; tick++ {
		now := stream.Time(tick) * stream.Time(tSlide)
		l.Result(0, now, 0.1)
		l.Result(1, now, 0.2)
		l.Tick(now, 0, nil)
	}
	frozen := mean(t, l, 0)
	if frozen == 0 {
		t.Fatal("no mean to freeze")
	}
	if !l.Close(0) || l.Close(0) || l.Close(5) {
		t.Error("Close must report exactly the first close of a known query")
	}
	if l.Live(0) || l.NumLive() != 1 || l.entries[0].coord != nil {
		t.Errorf("closed query still holds a coordinator (%d live)", l.NumLive())
	}
	sent := 0
	for tick := 5; tick <= 8; tick++ {
		now := stream.Time(tick) * stream.Time(tSlide)
		l.Result(0, now, 0.9)
		l.Tick(now, 0, func(q stream.QueryID, _ float64) int {
			if q == 0 {
				t.Error("closed query still disseminates")
			}
			sent++
			return 2
		})
	}
	if got := mean(t, l, 0); got != frozen {
		t.Errorf("frozen mean moved: %v -> %v", frozen, got)
	}
	if l.Measured(0, 2000) != 0 {
		t.Error("closed query still reads a measured SIC")
	}
	if s := l.Summary(); !reflect.DeepEqual(s.Queries, []stream.QueryID{0, 1}) {
		t.Errorf("summary lists %v, want the closed query kept", s.Queries)
	}
	l.Open(0, 2000) // a known id is never re-opened
	if l.Live(0) {
		t.Error("re-open resurrected a closed query")
	}
	if sent != 4 || l.UpdateMessages() != 8 {
		t.Errorf("sent %d updates, counted %d messages; want 4 and 8", sent, l.UpdateMessages())
	}
}

// TestUnmeasuredQueryLeavesFairnessAlone: a query closed before its
// warmup ends has no sample. It is listed at mean 0, but the aggregates
// cover the measured queries only, so one query measured at 0.8 beside
// it reads Jain 1 and mean 0.8, not 0.5 and 0.4.
func TestUnmeasuredQueryLeavesFairnessAlone(t *testing.T) {
	const warmup = tSTW // the window is full at every sample
	l := NewLedger(tSTW, tSlide, false)
	l.Open(0, 0)
	l.Open(1, 0)
	for tick := 1; tick <= 20; tick++ {
		now := stream.Time(tick) * stream.Time(tSlide)
		if tick == 2 {
			l.Close(1)
		}
		l.Result(0, now, 0.8*float64(tSlide)/float64(tSTW))
		l.Tick(now, warmup, nil)
	}
	s := l.Summary()
	if !reflect.DeepEqual(s.Queries, []stream.QueryID{0, 1}) || s.Means[1] != 0 {
		t.Fatalf("summary lists %v at %v, want both queries, the unmeasured one at 0", s.Queries, s.Means)
	}
	if math.Abs(s.Means[0]-0.8) > 1e-9 {
		t.Fatalf("measured query's mean %v, want 0.8", s.Means[0])
	}
	if s.Jain != 1 || s.Mean != s.Means[0] || s.Std != 0 {
		t.Errorf("Jain %v, mean %v, std %v: want 1, %v, 0 — the unmeasured query counted", s.Jain, s.Mean, s.Std, s.Means[0])
	}
}

// TestSummaryTellsUnmeasuredFromStarved: a query measured at 0 and one
// closed before its warmup both read mean 0, and only Measured tells the
// starved query from the one that was never sampled.
func TestSummaryTellsUnmeasuredFromStarved(t *testing.T) {
	const warmup = tSTW
	l := NewLedger(tSTW, tSlide, false)
	l.Open(0, 0) // starved: no result mass ever arrives
	l.Open(1, 0) // closed before its warmup ends
	for tick := 1; tick <= 20; tick++ {
		now := stream.Time(tick) * stream.Time(tSlide)
		if tick == 2 {
			l.Close(1)
		}
		l.Tick(now, warmup, nil)
	}
	s := l.Summary()
	if !reflect.DeepEqual(s.Queries, []stream.QueryID{0, 1}) || !reflect.DeepEqual(s.Means, []float64{0, 0}) {
		t.Fatalf("summary lists %v at %v, want both queries at 0", s.Queries, s.Means)
	}
	if !reflect.DeepEqual(s.Measured, []bool{true, false}) {
		t.Errorf("measured %v, want the starved query measured and the closed one not", s.Measured)
	}
}

// TestUpdateAccounting: the ledger totals dissemination traffic (§7.6)
// from what each send reports, closed queries' share included.
func TestUpdateAccounting(t *testing.T) {
	l := NewLedger(stream.Second, tSlide, false)
	l.Open(0, 0)
	l.Open(1, 0)
	hosts := []int{3, 2}
	l.Tick(250, 0, func(q stream.QueryID, _ float64) int { return hosts[q] })
	l.Close(0)
	l.Tick(500, 0, func(q stream.QueryID, _ float64) int { return hosts[q] })
	l.Tick(750, 0, nil) // updates disabled: nothing sent
	if got := l.UpdateMessages(); got != 7 {
		t.Errorf("messages: %d, want 7", got)
	}
	if got := l.UpdateBytes(); got != 7*stream.CoordinatorMsgBytes {
		t.Errorf("bytes: %d", got)
	}
}

// ledgerEvent is one step of a per-query script.
type ledgerEvent struct {
	at    stream.Time
	q     stream.QueryID
	open  bool
	close bool
	mass  float64
}

// TestLedgerOrderIndependence: what a ledger reports depends on each
// query's own events, not on how submissions, results and retracts of
// different queries interleave within a tick — the property the
// controller's map-ordered bookkeeping did not have. Two ledgers fed the
// same per-query events in different interleavings must report bit-equal
// means, mean and Jain, and both walk every tick in ascending id.
func TestLedgerOrderIndependence(t *testing.T) {
	const queries, ticks = 9, 40
	rng := rand.New(rand.NewSource(5))
	byTick := make([][]ledgerEvent, ticks+1)
	for q := stream.QueryID(0); q < queries; q++ {
		opened := rng.Intn(10)
		closed := ticks + 1
		if q%3 == 0 {
			closed = 20 + rng.Intn(15)
		}
		for tick := opened; tick <= ticks && tick <= closed; tick++ {
			at := stream.Time(tick) * stream.Time(tSlide)
			switch {
			case tick == opened:
				byTick[tick] = append(byTick[tick], ledgerEvent{at: at, q: q, open: true})
			case tick == closed:
				byTick[tick] = append(byTick[tick], ledgerEvent{at: at, q: q, close: true})
			default:
				for n := rng.Intn(3); n >= 0; n-- {
					byTick[tick] = append(byTick[tick], ledgerEvent{at: at, q: q, mass: rng.Float64() / 9})
				}
			}
		}
	}
	run := func(shuffle *rand.Rand) Summary {
		l := NewLedger(tSTW, tSlide, false)
		for tick, evs := range byTick {
			if shuffle != nil {
				// Any interleaving across queries, each query's own events
				// kept in order: permute, then deal every query its events
				// back in sequence into the slots it drew.
				own := make(map[stream.QueryID][]ledgerEvent)
				for _, ev := range evs {
					own[ev.q] = append(own[ev.q], ev)
				}
				mixed := make([]ledgerEvent, len(evs))
				for i, from := range shuffle.Perm(len(evs)) {
					q := evs[from].q
					mixed[i], own[q] = own[q][0], own[q][1:]
				}
				evs = mixed
			}
			// Ids are dense and assigned in submission order: opens keep it.
			for _, ev := range evs {
				if ev.open {
					l.Open(ev.q, ev.at)
				}
			}
			for _, ev := range evs {
				switch {
				case ev.close:
					l.Close(ev.q)
				case !ev.open:
					l.Result(ev.q, ev.at, ev.mass)
				}
			}
			last := stream.QueryID(-1)
			l.Tick(stream.Time(tick)*stream.Time(tSlide), stream.Second, func(q stream.QueryID, _ float64) int {
				if q <= last {
					t.Fatalf("tick %d: query %d disseminated after query %d", tick, q, last)
				}
				last = q
				return 1
			})
		}
		return l.Summary()
	}
	want := run(nil)
	if len(want.Queries) != queries || want.Mean == 0 {
		t.Fatalf("degenerate script: %+v", want)
	}
	for seed := int64(1); seed <= 5; seed++ {
		got := run(rand.New(rand.NewSource(seed)))
		if !reflect.DeepEqual(got.Queries, want.Queries) {
			t.Fatalf("seed %d: summary lists %v, want %v", seed, got.Queries, want.Queries)
		}
		for i := range want.Means {
			if math.Float64bits(got.Means[i]) != math.Float64bits(want.Means[i]) {
				t.Errorf("seed %d: query %d mean %v, want %v", seed, want.Queries[i], got.Means[i], want.Means[i])
			}
		}
		if math.Float64bits(got.Mean) != math.Float64bits(want.Mean) ||
			math.Float64bits(got.Jain) != math.Float64bits(want.Jain) ||
			math.Float64bits(got.Std) != math.Float64bits(want.Std) {
			t.Errorf("seed %d: aggregates %v/%v/%v, want %v/%v/%v", seed, got.Mean, got.Jain, got.Std, want.Mean, want.Jain, want.Std)
		}
	}
}

// TestLedgerTickZeroAlloc: the steady-state path — results, the tick
// walk with dissemination and sampling — allocates nothing.
func TestLedgerTickZeroAlloc(t *testing.T) {
	l := NewLedger(tSTW, tSlide, false)
	for q := stream.QueryID(0); q < 64; q++ {
		l.Open(q, 0)
	}
	now := stream.Time(0)
	sent := 0
	step := func() {
		now += stream.Time(tSlide)
		for q := stream.QueryID(0); q < 64; q++ {
			l.Result(q, now, 0.01)
		}
		l.Tick(now, stream.Second, func(stream.QueryID, float64) int { sent++; return 1 })
	}
	for i := 0; i < 16; i++ {
		step()
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("steady-state ledger tick allocates %v times", n)
	}
}
