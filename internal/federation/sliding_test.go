package federation

import (
	"math/rand"
	"testing"

	"repro/internal/operator"
	"repro/internal/query"
	"repro/internal/sources"
	"repro/internal/stream"
)

// slidingShape is the shape key slidingAggPlan deploys under, as a CQL
// statement's plan-cache shape key would be.
const slidingShape = "test/avg-sliding"

// slidingAggPlan builds a single-fragment query whose aggregate runs over
// a sliding window (range 2 s, slide 500 ms) — exercising the per-slide
// SIC division of §6 inside a full federation run.
func slidingAggPlan() *query.Plan {
	win := stream.SlidingTime(2*stream.Second, 500*stream.Millisecond)
	fp := &query.FragmentPlan{
		Ops: []query.OpSpec{
			{Name: "receive", New: func() operator.Operator { return operator.NewReceive() }, Outs: []query.Edge{{To: 1}}},
			{Name: "avg", New: func() operator.Operator { return operator.NewAgg(operator.AggAvg, win, 0, nil) }, Outs: []query.Edge{{To: 2}}},
			{Name: "output", New: func() operator.Operator { return operator.NewOutput() }},
		},
		Entries: map[int]query.Entry{0: {Op: 0}},
		OutOp:   2,
		Sources: []query.SourceSpec{{Port: 0, Arity: 1,
			NewGen: func(rng *rand.Rand, _ int) sources.ValueGen {
				return sources.NewValueGen(sources.Uniform, rng)
			}}},
		UpstreamPort: -1,
	}
	return &query.Plan{Type: "AVG-sliding", Fragments: []*query.FragmentPlan{fp}, Downstream: []int{-1}}
}

// TestSlidingWindowSICConservation: with a sliding window each tuple
// appears in range/slide = 4 windows, each consuming 1/4 of its SIC; the
// measured result SIC must still be ≈ 1 when nothing is shed.
func TestSlidingWindowSICConservation(t *testing.T) {
	cfg := Defaults()
	cfg.Duration = 40 * stream.Second
	cfg.Warmup = 15 * stream.Second
	cfg.Policy = PolicyKeepAll
	cfg.SourceRate = 100
	e := NewEngine(cfg)
	nd := e.AddNode(1e9)
	if _, err := e.submit(slidingAggPlan(), slidingShape, QuerySubmit{Placement: []stream.NodeID{nd}}); err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	if res.Queries[0].MeanSIC < 0.9 || res.Queries[0].MeanSIC > 1.1 {
		t.Errorf("sliding-window underloaded SIC %.4f, want ~1", res.Queries[0].MeanSIC)
	}
}

// TestSlidingWindowUnderShedding: sliding-window queries degrade
// proportionally under overload, like tumbling ones.
func TestSlidingWindowUnderShedding(t *testing.T) {
	cfg := Defaults()
	cfg.Duration = 40 * stream.Second
	cfg.Warmup = 15 * stream.Second
	cfg.SourceRate = 100
	e := NewEngine(cfg)
	nd := e.AddNode(100) // half of the 2 × 100 t/s demand
	for i := 0; i < 2; i++ {
		if _, err := e.submit(slidingAggPlan(), slidingShape, QuerySubmit{Placement: []stream.NodeID{nd}, Feed: i}); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Run()
	if res.MeanSIC < 0.3 || res.MeanSIC > 0.7 {
		t.Errorf("sliding-window 2x-overload SIC %.3f, want ~0.5", res.MeanSIC)
	}
	if res.Jain < 0.95 {
		t.Errorf("sliding-window Jain %.3f", res.Jain)
	}
}
