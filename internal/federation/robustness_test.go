package federation

import (
	"testing"

	"repro/internal/query"
	"repro/internal/sources"
	"repro/internal/stream"
)

// Robustness and failure-injection tests: the engine must stay sane under
// noisy cost observations, extreme overload, bursty sources, long
// latencies and degenerate configurations.

func TestHighCostNoiseStaysStable(t *testing.T) {
	cfg := Defaults()
	cfg.Duration = 30 * stream.Second
	cfg.Warmup = 10 * stream.Second
	cfg.CostNoise = 0.5 // ±50% measurement noise on processing times
	cfg.SourceRate = 50
	e := NewEngine(cfg)
	nd := e.AddNode(500)
	for i := 0; i < 4; i++ {
		if _, err := e.DeployQuery(query.NewAvgAll(1, sources.Uniform), []stream.NodeID{nd}, 0); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Run()
	if res.MeanSIC <= 0.05 || res.MeanSIC > 1.0 {
		t.Errorf("mean SIC %.3f under noisy cost model", res.MeanSIC)
	}
	if res.Jain < 0.9 {
		t.Errorf("Jain %.3f under noisy cost model", res.Jain)
	}
}

func TestExtremeOverloadTenX(t *testing.T) {
	cfg := Defaults()
	cfg.Duration = 30 * stream.Second
	cfg.Warmup = 10 * stream.Second
	cfg.SourceRate = 50
	e := NewEngine(cfg)
	nd := e.AddNode(150) // demand 10 queries × 10 src × 50 t/s = 5,000 t/s
	for i := 0; i < 10; i++ {
		if _, err := e.DeployQuery(query.NewAvgAll(1, sources.Uniform), []stream.NodeID{nd}, 0); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Run()
	// ~3% of data survives; fairness must hold anyway (Fig. 8's message).
	if res.MeanSIC > 0.15 {
		t.Errorf("mean SIC %.3f too high for 33x overload", res.MeanSIC)
	}
	if res.Jain < 0.8 {
		t.Errorf("Jain %.3f collapsed under extreme overload", res.Jain)
	}
}

func TestBurstySourcesDoNotDeadlock(t *testing.T) {
	cfg := Defaults()
	cfg.Duration = 30 * stream.Second
	cfg.Warmup = 10 * stream.Second
	cfg.SourceRate = 40
	cfg.Burst = &sources.DefaultBurst
	e := NewEngine(cfg)
	e.AddNodes(2, 800)
	for i := 0; i < 4; i++ {
		if _, err := e.DeployQuery(query.NewCov(2, sources.Gaussian), []stream.NodeID{0, 1}, 0); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Run()
	for _, q := range res.Queries {
		if q.MeanSIC <= 0 {
			t.Errorf("query %d starved to zero under bursts", q.ID)
		}
	}
}

func TestLatencyLongerThanInterval(t *testing.T) {
	// 900 ms links with a 250 ms shedding interval: coordinator updates
	// and inter-fragment batches arrive 4 ticks late. The system must
	// still converge (the §6 projection absorbs staleness).
	cfg := Defaults()
	cfg.Duration = 40 * stream.Second
	cfg.Warmup = 15 * stream.Second
	cfg.Latency = 900 * stream.Millisecond
	cfg.SourceRate = 40
	e := NewEngine(cfg)
	e.AddNodes(3, 1200)
	for i := 0; i < 6; i++ {
		if _, err := e.DeployQuery(query.NewAvgAll(3, sources.Uniform), []stream.NodeID{0, 1, 2}, 0); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Run()
	if res.Jain < 0.9 {
		t.Errorf("Jain %.3f under 900 ms latency", res.Jain)
	}
	if res.MeanSIC <= 0.05 {
		t.Errorf("mean SIC %.3f under 900 ms latency", res.MeanSIC)
	}
}

func TestKeepSamplesRecordsSeries(t *testing.T) {
	cfg := Defaults()
	cfg.Duration = 20 * stream.Second
	cfg.Warmup = 5 * stream.Second
	cfg.KeepSamples = true
	cfg.SourceRate = 40
	e := NewEngine(cfg)
	nd := e.AddNode(200)
	if _, err := e.DeployQuery(query.NewAvgAll(1, sources.Uniform), []stream.NodeID{nd}, 0); err != nil {
		t.Fatal(err)
	}
	res := e.Run()
	want := int((cfg.Duration - cfg.Warmup) / cfg.Interval)
	if len(res.Queries[0].Samples) != want {
		t.Errorf("samples: %d, want %d", len(res.Queries[0].Samples), want)
	}
}

func TestZeroConfigDefaults(t *testing.T) {
	// A zero-value config must be normalised to runnable defaults.
	e := NewEngine(Config{Seed: 1, SourceRate: 50, Warmup: stream.Second})
	nd := e.AddNode(0) // clamped node capacity
	if _, err := e.DeployQuery(query.NewAvgAll(1, sources.Uniform), []stream.NodeID{nd}, 0); err != nil {
		t.Fatal(err)
	}
	res := e.Run() // must not panic or hang
	if len(res.Queries) != 1 {
		t.Fatal("no results")
	}
}

func TestStepAndResultsIncremental(t *testing.T) {
	// Results() may be taken mid-run without disturbing the engine.
	cfg := Defaults()
	cfg.Duration = 10 * stream.Second
	cfg.Warmup = 2 * stream.Second
	cfg.SourceRate = 40
	e := NewEngine(cfg)
	nd := e.AddNode(300)
	if _, err := e.DeployQuery(query.NewAvgAll(1, sources.Uniform), []stream.NodeID{nd}, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		e.Step()
	}
	mid := e.Results()
	for i := 0; i < 20; i++ {
		e.Step()
	}
	end := e.Results()
	if mid.Queries[0].MeanSIC <= 0 || end.Queries[0].MeanSIC <= 0 {
		t.Error("incremental results missing")
	}
}
