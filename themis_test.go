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

	catalog := themis.DefaultCatalog(themis.Gaussian)
	plan, err := themis.ParseQuery(avgQuery, catalog, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engine.DeployQuery(plan, []themis.NodeID{node}, 400); err != nil {
		t.Fatal(err)
	}
	if _, err := engine.DeployQuery(themis.MustParseQuery(countQuery, themis.DefaultCatalog(themis.Uniform), 1), []themis.NodeID{node}, 800); err != nil {
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

	catalog := themis.DefaultCatalog(themis.PlanetLab)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		placement := themis.UniformPlacement(rng, 4, 2)
		if _, err := engine.DeployQuery(themis.MustParseQuery(top5Query, catalog, 2), placement, 20); err != nil {
			t.Fatal(err)
		}
	}
	z := themis.ZipfPlacement(rng, 4, 3, 1.5)
	if _, err := engine.DeployQuery(themis.MustParseQuery(avgAllQuery, catalog, 3), z, 20); err != nil {
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

func TestPublicQueryBuilders(t *testing.T) {
	plans := []*themis.Plan{
		themis.MustParseQuery(avgQuery, themis.DefaultCatalog(themis.Gaussian), 1),
		themis.MustParseQuery(maxQuery, themis.DefaultCatalog(themis.Exponential), 1),
		themis.MustParseQuery(countQuery, themis.DefaultCatalog(themis.Mixed), 1),
		themis.MustParseQuery(avgAllQuery, themis.DefaultCatalog(themis.Uniform), 2),
		themis.MustParseQuery(top5Query, themis.DefaultCatalog(themis.PlanetLab), 3),
		themis.MustParseQuery(covQuery, themis.DefaultCatalog(themis.PlanetLab), 2),
	}
	for _, p := range plans {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Type, err)
		}
	}
}

func TestPublicParseErrors(t *testing.T) {
	if _, err := themis.ParseQuery("not cql", themis.DefaultCatalog(themis.Gaussian), 1); err == nil {
		t.Error("garbage accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustParseQuery should panic")
		}
	}()
	themis.MustParseQuery("still not cql", themis.DefaultCatalog(themis.Gaussian), 1)
}
