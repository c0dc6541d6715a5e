package federation

import (
	"math/rand"
	"testing"

	"repro/internal/control"
	"repro/internal/cql"
	"repro/internal/metrics"
	"repro/internal/sources"
	"repro/internal/stream"
)

func newTestRand() *rand.Rand { return rand.New(rand.NewSource(123)) }

// TestFigure4UpdateSICConvergence reproduces the phenomenon of Figure 4:
// two nodes host three queries, one of which (q2) spans both nodes.
// Without updateSIC dissemination each node balances only its local view
// and the multi-fragment query ends up with a different result SIC than
// the single-fragment ones; with dissemination all queries converge.
func TestFigure4UpdateSICConvergence(t *testing.T) {
	run := func(disableUpdates bool) *Results {
		cfg := Defaults()
		cfg.Duration = 60 * stream.Second
		cfg.Warmup = 20 * stream.Second
		cfg.Seed = 11
		cfg.SourceRate = 40
		cfg.DisableUpdates = disableUpdates
		e := NewEngine(cfg)
		// Two nodes with half the demanded capacity each.
		// Demand per node: q1 (or q3) 10 sources × 40 + q2 fragment
		// 10 × 40 = 800 t/s.
		e.AddNodes(2, 400)
		// q1 on node a, q3 on node b, q2 spanning both.
		if _, err := e.Submit(QuerySubmit{CQL: cql.AvgAll, Dataset: int(sources.Uniform), Placement: []stream.NodeID{0}}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Submit(QuerySubmit{CQL: cql.AvgAll, Fragments: 2, Dataset: int(sources.Uniform), Placement: []stream.NodeID{0, 1}, Feed: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Submit(QuerySubmit{CQL: cql.AvgAll, Dataset: int(sources.Uniform), Placement: []stream.NodeID{1}, Feed: 2}); err != nil {
			t.Fatal(err)
		}
		return e.Run()
	}

	with := run(false)
	without := run(true)
	sic := func(r *Results) []float64 {
		out := make([]float64, len(r.Queries))
		for i, q := range r.Queries {
			out[i] = q.MeanSIC
		}
		return out
	}
	jw := metrics.Jain(sic(with))
	jo := metrics.Jain(sic(without))
	t.Logf("with updateSIC:    SIC=%v jain=%.4f", sic(with), jw)
	t.Logf("without updateSIC: SIC=%v jain=%.4f", sic(without), jo)
	if jw < 0.98 {
		t.Errorf("with updates: Jain %.4f, want near-perfect convergence", jw)
	}
	// Without updates the spanning query is over-served by both nodes
	// (Figure 4 top: q2 ends ahead of q1 and q3).
	if without.Queries[1].MeanSIC <= without.Queries[0].MeanSIC {
		t.Errorf("without updates, spanning query should be over-served: q2=%.3f q1=%.3f",
			without.Queries[1].MeanSIC, without.Queries[0].MeanSIC)
	}
	if jw <= jo {
		t.Errorf("updateSIC should improve fairness: %.4f (with) vs %.4f (without)", jw, jo)
	}
}

// TestRunDeterminism: identical configuration and seed must give
// identical results, bit for bit — the experiments depend on it.
func TestRunDeterminism(t *testing.T) {
	run := func() *Results {
		cfg := Defaults()
		cfg.Duration = 20 * stream.Second
		cfg.Warmup = 5 * stream.Second
		cfg.Seed = 99
		cfg.SourceRate = 30
		e := NewEngine(cfg)
		e.AddNodes(3, 500)
		for i := 0; i < 6; i++ {
			k := 1 + i%3
			place := make([]stream.NodeID, k)
			for j := range place {
				place[j] = stream.NodeID((i + j) % 3)
			}
			if _, err := e.Submit(mixedSubmit(i, k, sources.PlanetLab, place)); err != nil {
				t.Fatal(err)
			}
		}
		return e.Run()
	}
	a, b := run(), run()
	for i := range a.Queries {
		if a.Queries[i].MeanSIC != b.Queries[i].MeanSIC {
			t.Fatalf("query %d differs across identical runs: %g vs %g",
				i, a.Queries[i].MeanSIC, b.Queries[i].MeanSIC)
		}
	}
	if a.Jain != b.Jain || a.MeanSIC != b.MeanSIC {
		t.Error("aggregate metrics differ across identical runs")
	}
}

// TestDeployValidation exercises the engine's deployment checks.
func TestDeployValidation(t *testing.T) {
	e := NewEngine(Defaults())
	e.AddNodes(2, 1000)
	at := func(placement ...stream.NodeID) QuerySubmit {
		return QuerySubmit{CQL: cql.AvgAll, Fragments: 2, Dataset: int(sources.Uniform), Placement: placement}
	}
	if _, err := e.Submit(at(0)); err == nil {
		t.Error("placement length mismatch accepted")
	}
	if _, err := e.Submit(at(0, 0)); err == nil {
		t.Error("duplicate node placement accepted")
	}
	if _, err := e.Submit(at(0, 7)); err == nil {
		t.Error("missing node accepted")
	}
	if _, err := e.Submit(at(0, 1)); err != nil {
		t.Errorf("valid deployment rejected: %v", err)
	}
}

// TestPlacementHelpers checks the three placement strategies.
func TestPlacementHelpers(t *testing.T) {
	rng := newTestRand()
	for _, k := range []int{1, 3, 6} {
		p := control.UniformPlacement(rng, 10, k)
		if len(p) != k || hasDup(p) {
			t.Errorf("uniform placement: %v", p)
		}
		z := control.ZipfPlacement(rng, 10, k, 1.5)
		if len(z) != k || hasDup(z) {
			t.Errorf("zipf placement: %v", z)
		}
	}
	next := 0
	a := control.RoundRobinPlacement(&next, 5, 3)
	b := control.RoundRobinPlacement(&next, 5, 3)
	if a[0] != 0 || a[2] != 2 || b[0] != 3 || b[2] != 0 {
		t.Errorf("round robin: %v then %v", a, b)
	}
	// Zipf must actually skew: node 0 should appear far more often.
	counts := make([]int, 10)
	for i := 0; i < 500; i++ {
		for _, nd := range control.ZipfPlacement(rng, 10, 1, 1.5) {
			counts[nd]++
		}
	}
	if counts[0] < counts[9]*3 {
		t.Errorf("zipf placement not skewed: %v", counts)
	}
}

func hasDup(p []stream.NodeID) bool {
	seen := map[stream.NodeID]bool{}
	for _, n := range p {
		if seen[n] {
			return true
		}
		seen[n] = true
	}
	return false
}

// TestPlacementPanics checks over-subscription panics.
func TestPlacementPanics(t *testing.T) {
	for _, f := range []func(){
		func() { control.UniformPlacement(newTestRand(), 2, 3) },
		func() { control.ZipfPlacement(newTestRand(), 2, 3, 1.5) },
		func() { next := 0; control.RoundRobinPlacement(&next, 2, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("k > nodes should panic")
				}
			}()
			f()
		}()
	}
}

// TestResultCallback verifies the user feedback channel.
func TestResultCallback(t *testing.T) {
	cfg := Defaults()
	cfg.Duration = 10 * stream.Second
	cfg.Policy = PolicyKeepAll
	e := NewEngine(cfg)
	nd := e.AddNode(1e9)
	qid, err := e.Submit(QuerySubmit{CQL: cql.AvgAll, Dataset: int(sources.Uniform), Rate: 50, Placement: []stream.NodeID{nd}})
	if err != nil {
		t.Fatal(err)
	}
	var results int
	e.OnResult(qid, func(now stream.Time, tuples []stream.Tuple) {
		results += len(tuples)
		for i := range tuples {
			if len(tuples[i].V) != 1 {
				t.Errorf("result arity: %v", tuples[i].V)
			}
		}
	})
	e.Run()
	if results < 8 {
		t.Errorf("results delivered: %d, want ~9 windows", results)
	}
}

// TestCoordinatorTrafficAccounting checks the §7.6 counters.
func TestCoordinatorTrafficAccounting(t *testing.T) {
	cfg := Defaults()
	cfg.Duration = 10 * stream.Second
	e := NewEngine(cfg)
	e.AddNodes(2, 100)
	if _, err := e.Submit(QuerySubmit{CQL: cql.AvgAll, Fragments: 2, Dataset: int(sources.Uniform), Rate: 50, Placement: []stream.NodeID{0, 1}}); err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	// 40 ticks × 2 hosts.
	if res.CoordinatorMessages != 80 {
		t.Errorf("coordinator messages: %d, want 80", res.CoordinatorMessages)
	}
	if res.CoordinatorBytes != 80*stream.CoordinatorMsgBytes {
		t.Errorf("coordinator bytes: %d", res.CoordinatorBytes)
	}
}
