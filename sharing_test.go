// Multi-query sharing regression tests: CI smoke thresholds for the
// marginal-query cost and the plan-cache submission speedup, plus the
// zero-allocation gate with sharing enabled. BENCH_queries.json holds
// the committed full-sweep record these budgets were derived from.
package themis_test

import (
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/federation"
)

// TestSharedSteadyStateZeroAlloc extends the zero-alloc acceptance gate
// to the shared data path: 480 monitors riding 24 deduplicated fragment
// instances must still tick without touching the allocator — fan-out
// views, refcounted releases and per-subscriber SIC accounting all cycle
// through pooled storage.
func TestSharedSteadyStateZeroAlloc(t *testing.T) {
	e := experiments.NewQueryBenchEngine(480, federation.SharingFull)
	for i := 0; i < 200; i++ { // warm: pool, windows, fan-out views stabilise
		e.Step()
	}
	if avg := testing.AllocsPerRun(200, func() { e.Step() }); avg != 0 {
		t.Fatalf("shared steady-state Engine.Step allocates %.2f objects/step, want 0", avg)
	}
}

// TestQueryBenchMarginalBudget is the CI smoke threshold for the shared
// sweep's 480-query point: the per-query share of one tick must stay
// under budget. The committed record (BENCH_queries.json) measured
// ~510 ns marginal at 480 queries with full sharing on a 1-CPU
// container; the budget leaves ~5x headroom for slower runners.
func TestQueryBenchMarginalBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-scale deployment")
	}
	if raceEnabled {
		t.Skip("wall-clock budget is not meaningful under the race detector")
	}
	const (
		queries          = 480
		marginalBudgetNs = 2500.0
	)
	e := experiments.NewQueryBenchEngine(queries, federation.SharingFull)
	row := experiments.MeasureEngineSteps(e, 20, 60)
	if marginal := row.NsPerStep / queries; marginal > marginalBudgetNs {
		t.Fatalf("marginal per-query cost %.0f ns/step, budget %.0f", marginal, marginalBudgetNs)
	}
	if row.AllocsPerStep > 16 {
		t.Fatalf("shared 480-query step allocates %.1f objects/step, budget 16", row.AllocsPerStep)
	}
}

// TestNonLeafDedupBeatsLeafOnly is the CI smoke threshold for interior-
// subtree sharing: 480 two-fragment monitors under full sharing must
// tick more than 2x cheaper than unshared. The 2x line matters because
// leaf-only dedup (PR 6) cannot cross it on this workload — the
// combining roots stay private, which is half the work — so anything
// above certifies the non-leaf dedup is live. The committed record
// (BENCH_queries.json) measured 18.2x.
func TestNonLeafDedupBeatsLeafOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-scale deployment")
	}
	if raceEnabled {
		t.Skip("wall-clock budget is not meaningful under the race detector")
	}
	const queries = 480
	off := experiments.MeasureEngineSteps(
		experiments.NewQueryBenchEngineFrags(queries, 2, federation.SharingOff), 20, 60)
	full := experiments.MeasureEngineSteps(
		experiments.NewQueryBenchEngineFrags(queries, 2, federation.SharingFull), 20, 60)
	if full.NsPerStep <= 0 || off.NsPerStep/full.NsPerStep < 2.5 {
		t.Fatalf("non-leaf dedup: off %.0f ns/step vs full %.0f ns/step (%.1fx), want >= 2.5x",
			off.NsPerStep, full.NsPerStep, off.NsPerStep/full.NsPerStep)
	}
}

// TestNetQueryBenchMarginalFloor is the CI smoke threshold for the
// networked sweep: over real loopback sockets, the marginal per-query
// tick cost of 480 fully shared monitors must undercut the linear
// extrapolation of 48 unshared ones by at least 3x. The committed
// record (BENCH_queries.json) measured 12.7x at this pair and 50.9x at
// the full 4,800-query point; the CI floor is lower because wall-clock
// tick costs on a loaded runner are noisy. Interference from the host
// only ever slows a run, so each side is measured up to three times and
// the fastest run of each side is compared.
func TestNetQueryBenchMarginalFloor(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock loopback federation")
	}
	if raceEnabled {
		t.Skip("wall-clock budget is not meaningful under the race detector")
	}
	const d = 4 * time.Second
	var off, full float64 // fastest marginal seen per side, ns per query-tick
	for try := 1; try <= 3; try++ {
		o, err := experiments.NetBenchPoint(48, federation.SharingOff, d)
		if err != nil {
			t.Fatal(err)
		}
		f, err := experiments.NetBenchPoint(480, federation.SharingFull, d)
		if err != nil {
			t.Fatal(err)
		}
		if f.SharedInstances == 0 || f.Subscriptions == 0 {
			t.Fatalf("networked full sharing deduplicated nothing: %+v", f)
		}
		if o.MarginalNs <= 0 || f.MarginalNs <= 0 {
			t.Fatalf("a run measured no ticks: unshared %+v, shared %+v", o, f)
		}
		t.Logf("try %d: unshared %.0f ns/q, shared %.0f ns/q (%.1fx)",
			try, o.MarginalNs, f.MarginalNs, o.MarginalNs/f.MarginalNs)
		if try == 1 || o.MarginalNs < off {
			off = o.MarginalNs
		}
		if try == 1 || f.MarginalNs < full {
			full = f.MarginalNs
		}
		if off/full >= 3 {
			return
		}
	}
	t.Fatalf("networked marginal: fastest unshared %.0f ns/q vs fastest shared %.0f ns/q (%.1fx), want >= 3x",
		off, full, off/full)
}

// TestSubmitCacheSpeedup is the CI smoke threshold for the submission
// path: a plan-cache-hit SubmitCQL must beat a cold one by at least 3x.
// The committed record measured 5.7x; the CI floor is lower because the
// cold side's absolute cost (tens of microseconds) makes the ratio
// noisy on loaded runners.
func TestSubmitCacheSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-scale measurement")
	}
	if raceEnabled {
		t.Skip("wall-clock budget is not meaningful under the race detector")
	}
	cold, warm := experiments.SubmitTiming()
	if warm <= 0 || cold/warm < 3 {
		t.Fatalf("cached submit %.0f ns vs cold %.0f ns: %.1fx, want >= 3x", warm, cold, cold/warm)
	}
}
