// Public API tests: everything an external user of the themis package
// touches, exercised through the façade only.
package themis_test

import (
	"math/rand"
	"testing"

	themis "repro"
)

// Table 1's statements, as a user of the façade writes them.
const (
	avgQuery    = `Select Avg(t.v) From Src[Range 1 sec]`
	maxQuery    = `Select Max(t.v) From Src[Range 1 sec]`
	countQuery  = `Select Count(t.v) From Src[Range 1 sec] Having t.v >= 50`
	avgAllQuery = `Select Avg(t.v) From AllSrc[Range 1 sec]`
	top5Query   = `Select Top5(AllSrcCPU.id) From AllSrcCPU[Range 1 sec], AllSrcMem[Range 1 sec] ` +
		`Where AllSrcMem.free >= 100,000 and AllSrcCPU.id = AllSrcMem.id`
	covQuery = `Select Cov(SrcCPU1.value, SrcCPU2.value) From SrcCPU1[Range 1 sec], SrcCPU2[Range 1 sec]`
)

func TestPublicQuickstartFlow(t *testing.T) {
	cfg := themis.Defaults()
	cfg.Duration = 30 * themis.Second
	cfg.Warmup = 10 * themis.Second
	engine, node := themis.LocalTestbed(cfg, 1000)

	sub := themis.QuerySubmit{CQL: avgQuery, Dataset: int(themis.Gaussian), Rate: 400, Placement: []themis.NodeID{node}}
	if _, err := engine.Submit(sub); err != nil {
		t.Fatal(err)
	}
	sub = themis.QuerySubmit{CQL: countQuery, Dataset: int(themis.Uniform), Rate: 800, Placement: []themis.NodeID{node}}
	if _, err := engine.Submit(sub); err != nil {
		t.Fatal(err)
	}
	res := engine.Run()
	if len(res.Queries) != 2 {
		t.Fatalf("queries: %d", len(res.Queries))
	}
	if res.MeanSIC <= 0.3 || res.MeanSIC > 1.05 {
		t.Errorf("mean SIC %.3f implausible for ~20%% overload", res.MeanSIC)
	}
	if res.Jain < 0.8 {
		t.Errorf("Jain %.3f", res.Jain)
	}
}

func TestPublicMultiSiteFlow(t *testing.T) {
	cfg := themis.Defaults()
	cfg.Duration = 30 * themis.Second
	cfg.Warmup = 10 * themis.Second
	cfg.Policy = themis.BalanceSIC
	cfg.Burst = &themis.DefaultBurst
	engine := themis.Emulab(cfg, 4, 2000)

	planetLab := int(themis.PlanetLab)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		placement := themis.UniformPlacement(rng, 4, 2)
		sub := themis.QuerySubmit{CQL: top5Query, Fragments: 2, Dataset: planetLab, Rate: 20, Placement: placement, Feed: i}
		if _, err := engine.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	z := themis.ZipfPlacement(rng, 4, 3, 1.5)
	sub := themis.QuerySubmit{CQL: avgAllQuery, Fragments: 3, Dataset: planetLab, Rate: 20, Placement: z, Feed: 4}
	if _, err := engine.Submit(sub); err != nil {
		t.Fatal(err)
	}

	var feedback int
	engine.OnResult(0, func(now themis.Time, tuples []themis.Tuple) { feedback += len(tuples) })

	res := engine.Run()
	if len(res.Queries) != 5 {
		t.Fatalf("queries: %d", len(res.Queries))
	}
	if feedback == 0 {
		t.Error("no user feedback delivered")
	}
	if res.Jain < 0.6 {
		t.Errorf("Jain %.3f", res.Jain)
	}
}

func TestPublicJainIndex(t *testing.T) {
	if got := themis.JainIndex([]float64{1, 1, 1}); got != 1 {
		t.Errorf("JainIndex: %g", got)
	}
}

// TestPublicQueryBuilders submits every Table 1 statement through the
// façade, each planned over its usual fragments.
func TestPublicQueryBuilders(t *testing.T) {
	engine := themis.Emulab(themis.Defaults(), 3, 2000)
	for _, sub := range []themis.QuerySubmit{
		{CQL: avgQuery, Dataset: int(themis.Gaussian)},
		{CQL: maxQuery, Dataset: int(themis.Exponential)},
		{CQL: countQuery, Dataset: int(themis.Mixed)},
		{CQL: avgAllQuery, Fragments: 2, Dataset: int(themis.Uniform)},
		{CQL: top5Query, Fragments: 3, Dataset: int(themis.PlanetLab)},
		{CQL: covQuery, Fragments: 2, Dataset: int(themis.PlanetLab)},
	} {
		if _, err := engine.Submit(sub); err != nil {
			t.Errorf("%s: %v", sub.CQL, err)
		}
	}
}

func TestPublicParseErrors(t *testing.T) {
	engine := themis.Emulab(themis.Defaults(), 1, 2000)
	if _, err := engine.Submit(themis.QuerySubmit{CQL: "not cql"}); err == nil {
		t.Error("garbage accepted")
	}
}
