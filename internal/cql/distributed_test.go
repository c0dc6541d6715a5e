package cql_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cql"
	"repro/internal/federation"
	"repro/internal/query"
	"repro/internal/sources"
	"repro/internal/stream"
)

// distributable lists one statement per distributable aggregate shape.
var distributable = []string{
	"Select Avg(t.v) From Src[Range 1 sec]",
	"Select Max(t.v) From Src[Range 1 sec]",
	"Select Sum(t.v) From Src[Range 1 sec]",
	"Select Count(t.v) From Src[Range 1 sec] Having t.v >= 50",
	"Select Cov(SrcCPU1.value, SrcCPU2.value) From SrcCPU1[Range 1 sec], SrcCPU2[Range 1 sec]",
	"Select Top5(AllSrcCPU.id) From AllSrcCPU[Range 1 sec], AllSrcMem[Range 1 sec] Where AllSrcCPU.id = AllSrcMem.id",
}

func TestPlanDistributedValidates(t *testing.T) {
	cat := cql.DefaultCatalog(sources.Uniform)
	for _, src := range distributable {
		st, err := cql.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		for _, frags := range []int{1, 2, 3, 4} {
			p, err := cql.PlanDistributed(st, cat, frags)
			if err != nil {
				t.Fatalf("%s x%d: %v", src, frags, err)
			}
			if err := p.Validate(); err != nil {
				t.Errorf("%s x%d: invalid plan: %v", src, frags, err)
			}
			if p.NumFragments() != frags {
				t.Errorf("%s x%d: got %d fragments", src, frags, p.NumFragments())
			}
		}
	}
}

// runDistributed deploys the statement across `frags` fragments on a
// 3-node underloaded virtual federation and returns mean SIC and result
// values.
func runDistributed(t *testing.T, src string, frags int, rate float64) (float64, []float64) {
	t.Helper()
	cfg := federation.Defaults()
	// Short STW so the sliding SIC window fills well inside the warmup.
	cfg.STW = 4 * stream.Second
	cfg.Duration = 20 * stream.Second
	cfg.Warmup = 8 * stream.Second
	cfg.SourceRate = rate
	cfg.BatchesPerSec = 4
	cfg.Seed = 7
	e := federation.NewEngine(cfg)
	e.AddNodes(3, 100_000) // far above demand: nothing sheds
	placement := make([]stream.NodeID, frags)
	for i := range placement {
		placement[i] = stream.NodeID(i % 3)
	}
	q, err := e.Submit(federation.QuerySubmit{CQL: src, Fragments: frags, Dataset: int(sources.Uniform), Rate: rate, Placement: placement})
	if err != nil {
		t.Fatal(err)
	}
	var vals []float64
	e.OnResult(q, func(now stream.Time, tuples []stream.Tuple) {
		if now < stream.Time(cfg.Warmup) {
			return
		}
		for i := range tuples {
			vals = append(vals, tuples[i].V[0])
		}
	})
	res := e.Run()
	return res.Queries[0].MeanSIC, vals
}

// TestDistributedCountAddsUp checks end-to-end semantics of the tree
// merge: an underloaded distributed COUNT (no HAVING filter effect at
// threshold 0) must count every source tuple across all fragments.
func TestDistributedCountAddsUp(t *testing.T) {
	const frags, rate = 3, 40.0
	sic, vals := runDistributed(t,
		"Select Count(t.v) From Src[Range 1 sec] Having t.v >= 0", frags, rate)
	if sic < 0.85 {
		t.Errorf("underloaded distributed COUNT: mean SIC %.3f", sic)
	}
	if len(vals) == 0 {
		t.Fatal("no results")
	}
	// Each window should hold ~frags*rate tuples (1 source per fragment).
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / float64(len(vals))
	want := float64(frags) * rate
	if math.Abs(mean-want) > want*0.25 {
		t.Errorf("mean window count %.1f, want ~%.0f", mean, want)
	}
}

// TestDistributedAvgMatchesSingle compares the distributed average
// against the single-fragment plan of the same statement: same uniform
// distribution, so the window averages must agree closely.
func TestDistributedAvgMatchesSingle(t *testing.T) {
	const src = "Select Avg(t.v) From Src[Range 1 sec]"
	_, single := runDistributed(t, src, 1, 60)
	sic, dist := runDistributed(t, src, 3, 60)
	if sic < 0.85 {
		t.Errorf("underloaded distributed AVG: mean SIC %.3f", sic)
	}
	if len(single) == 0 || len(dist) == 0 {
		t.Fatalf("missing results: single %d, dist %d", len(single), len(dist))
	}
	m1, m2 := meanOf(single), meanOf(dist)
	if math.Abs(m1-m2) > 5 { // uniform [0,100): means near 50
		t.Errorf("single mean %.2f vs distributed mean %.2f", m1, m2)
	}
}

// TestTopKProducesResults is the regression test for the catalog host-id
// bug: CQL top-k plans used the deployer's query-global source index as
// the trace host id, so CPU sources reported hosts 0..n-1 while mem
// sources reported n..2n-1 and the equi-join matched nothing — zero
// results forever. The planner now pins per-side host indices.
func TestTopKProducesResults(t *testing.T) {
	const src = "Select Top5(AllSrcCPU.id) From AllSrcCPU[Range 1 sec], AllSrcMem[Range 1 sec] Where AllSrcCPU.id = AllSrcMem.id"
	for _, frags := range []int{1, 3} {
		sic, vals := runDistributed(t, src, frags, 40)
		if sic < 0.9 {
			t.Errorf("frags=%d: underloaded TOP-5 SIC %.3f", frags, sic)
		}
		if len(vals) == 0 {
			t.Errorf("frags=%d: TOP-5 emitted no results", frags)
		}
	}
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestPlanDistributedDeterministic: failure recovery ships only the CQL
// text to a replacement host, which re-parses and re-plans it there.
// That is sound only if planning the same statement twice yields the
// identical fragment layout — operator list, wiring, source count,
// downstream table — regardless of which process runs the planner.
func TestPlanDistributedDeterministic(t *testing.T) {
	stmts := []string{
		"Select Avg(t.v) From AllSrc[Range 1 sec]",
		"Select Max(t.v) From AllSrc[Range 1 sec]",
		"Select Count(t.v) From AllSrc[Range 1 sec]",
		"Select Cov(SrcCPU1.value, SrcCPU2.value) From SrcCPU1[Range 1 sec], SrcCPU2[Range 1 sec]",
		"Select Top5(AllSrcCPU.id) From AllSrcCPU[Range 1 sec], AllSrcMem[Range 1 sec] Where AllSrcCPU.id = AllSrcMem.id",
	}
	for _, src := range stmts {
		for _, frags := range []int{1, 3} {
			plan := func() *query.Plan {
				st, err := cql.Parse(src)
				if err != nil {
					t.Fatalf("%s: %v", src, err)
				}
				p, err := cql.PlanDistributed(st, cql.DefaultCatalog(sources.Uniform), frags)
				if err != nil {
					t.Fatalf("%s: %v", src, err)
				}
				return p
			}
			a, b := plan(), plan()
			if a.Type != b.Type || a.NumFragments() != b.NumFragments() {
				t.Fatalf("%s frags=%d: plan shape diverged: %s/%d vs %s/%d",
					src, frags, a.Type, a.NumFragments(), b.Type, b.NumFragments())
			}
			for i := range a.Downstream {
				if a.Downstream[i] != b.Downstream[i] {
					t.Errorf("%s frags=%d: downstream[%d] %d vs %d", src, frags, i, a.Downstream[i], b.Downstream[i])
				}
			}
			for fi := range a.Fragments {
				fa, fb := a.Fragments[fi], b.Fragments[fi]
				if len(fa.Ops) != len(fb.Ops) || fa.OutOp != fb.OutOp ||
					fa.UpstreamPort != fb.UpstreamPort || len(fa.Sources) != len(fb.Sources) {
					t.Fatalf("%s frags=%d fragment %d: layout diverged", src, frags, fi)
				}
				for oi := range fa.Ops {
					if fa.Ops[oi].Name != fb.Ops[oi].Name || len(fa.Ops[oi].Outs) != len(fb.Ops[oi].Outs) {
						t.Errorf("%s frags=%d fragment %d op %d: %s vs %s",
							src, frags, fi, oi, fa.Ops[oi].Name, fb.Ops[oi].Name)
					}
					for ei := range fa.Ops[oi].Outs {
						if fa.Ops[oi].Outs[ei] != fb.Ops[oi].Outs[ei] {
							t.Errorf("%s frags=%d fragment %d op %d edge %d differs", src, frags, fi, oi, ei)
						}
					}
				}
				for port, ent := range fa.Entries {
					if fb.Entries[port] != ent {
						t.Errorf("%s frags=%d fragment %d entry %d differs", src, frags, fi, port)
					}
				}
			}
		}
	}
}

// TestTable1Layouts pins the plan of every Table 1 statement over one,
// two and three fragments: the operator names of each fragment (a run of
// n equal names written name*n) with its upstream port, the downstream
// table and the source count. Scalar aggregates are flat at k = 1 and
// trees at k > 1; COV and TOP-5 are chains at every k.
func TestTable1Layouts(t *testing.T) {
	const (
		avgRoot  = "receive union partial-avg avg-merge avg-finalize output | up 1"
		avgLeaf  = "receive union partial-avg avg-merge | up -1"
		allRoot  = "receive*10 union partial-avg avg-merge avg-finalize output | up 10"
		allLeaf  = "receive*10 union partial-avg avg-merge | up -1"
		top5Frag = "receive*20 union*2 filter group-avg*2 join top-k output | up 20"
		covRoot  = "receive*2 partial-cov cov-merge cov-finalize output | up 2"
		covLink  = "receive*2 partial-cov cov-merge | up 2"
	)
	golden := []struct {
		src        string
		k          int
		downstream []int
		sources    int
		frags      []string
	}{
		{cql.Avg, 1, []int{-1}, 1, []string{"receive union avg output | up -1"}},
		{cql.Avg, 2, []int{-1, 0}, 2, []string{avgRoot, avgLeaf}},
		{cql.Avg, 3, []int{-1, 0, 0}, 3, []string{avgRoot, avgLeaf, avgLeaf}},
		{cql.Max, 1, []int{-1}, 1, []string{"receive union max output | up -1"}},
		{cql.Max, 2, []int{-1, 0}, 2, []string{"receive union max merge-max output | up 1", "receive union max | up -1"}},
		{cql.Max, 3, []int{-1, 0, 0}, 3, []string{"receive union max merge-max output | up 1", "receive union max | up -1", "receive union max | up -1"}},
		{cql.Count, 1, []int{-1}, 1, []string{"receive union count output | up -1"}},
		{cql.Count, 2, []int{-1, 0}, 2, []string{"receive union count merge-sum output | up 1", "receive union count | up -1"}},
		{cql.Count, 3, []int{-1, 0, 0}, 3, []string{"receive union count merge-sum output | up 1", "receive union count | up -1", "receive union count | up -1"}},
		{cql.AvgAll, 1, []int{-1}, 10, []string{"receive*10 union avg output | up -1"}},
		{cql.AvgAll, 2, []int{-1, 0}, 20, []string{allRoot, allLeaf}},
		{cql.AvgAll, 3, []int{-1, 0, 0}, 30, []string{allRoot, allLeaf, allLeaf}},
		{cql.Top5, 1, []int{-1}, 20, []string{"receive*20 union*2 filter group-avg*2 join top-k output | up -1"}},
		{cql.Top5, 2, []int{-1, 0}, 40, []string{top5Frag, top5Frag}},
		{cql.Top5, 3, []int{-1, 0, 1}, 60, []string{top5Frag, top5Frag, top5Frag}},
		{cql.Cov, 1, []int{-1}, 2, []string{"receive*2 partial-cov cov-merge cov-finalize output | up -1"}},
		{cql.Cov, 2, []int{-1, 0}, 4, []string{covRoot, covLink}},
		{cql.Cov, 3, []int{-1, 0, 1}, 6, []string{covRoot, covLink, covLink}},
	}
	cat := cql.DefaultCatalog(sources.Uniform)
	for _, g := range golden {
		p := cql.MustPlan(g.src, cat, g.k)
		if err := p.Validate(); err != nil {
			t.Errorf("%s x%d: invalid plan: %v", g.src, g.k, err)
		}
		if !reflect.DeepEqual(p.Downstream, g.downstream) {
			t.Errorf("%s x%d: downstream %v, want %v", g.src, g.k, p.Downstream, g.downstream)
		}
		if p.NumSources() != g.sources {
			t.Errorf("%s x%d: %d sources, want %d", g.src, g.k, p.NumSources(), g.sources)
		}
		var frags []string
		for _, fp := range p.Fragments {
			frags = append(frags, fragmentLayout(fp))
		}
		if !reflect.DeepEqual(frags, g.frags) {
			t.Errorf("%s x%d: fragments\n  %q\nwant\n  %q", g.src, g.k, frags, g.frags)
		}
	}
	// Table 1's operator counts per fragment (see DESIGN.md for the
	// window-counting difference).
	for _, k := range []int{1, 3} {
		if got := len(cql.MustPlan(cql.AvgAll, cat, k).Fragments[k-1].Ops); got != 13 {
			t.Errorf("AVG-all x%d ops/fragment: %d, want 13", k, got)
		}
	}
	if got := len(cql.MustPlan(cql.Top5, cat, 3).Fragments[1].Ops); got != 28 {
		t.Errorf("TOP-5 ops/fragment: %d, want 28 (~29 in the paper)", got)
	}
}

// fragmentLayout renders a fragment's operator names, runs of equal names
// folded to name*n, and its upstream port.
func fragmentLayout(fp *query.FragmentPlan) string {
	var names []string
	for i := 0; i < len(fp.Ops); {
		j := i
		for j < len(fp.Ops) && fp.Ops[j].Name == fp.Ops[i].Name {
			j++
		}
		name := fp.Ops[i].Name
		if j-i > 1 {
			name = fmt.Sprintf("%s*%d", name, j-i)
		}
		names = append(names, name)
		i = j
	}
	return fmt.Sprintf("%s | up %d", strings.Join(names, " "), fp.UpstreamPort)
}

// TestTop5DatasetsDrawDifferentHosts: the CPU/memory streams are host
// traces whatever the dataset, and the dataset reseeds them. Planning
// TOP-5 twice over one dataset must draw the same values, and the five
// datasets must draw five different host populations — else every TOP-5
// series of a per-dataset figure would run on the same data.
func TestTop5DatasetsDrawDifferentHosts(t *testing.T) {
	draw := func(d sources.Dataset) []float64 {
		fp := cql.MustPlan(cql.Top5, cql.DefaultCatalog(d), 1).Fragments[0]
		var vals []float64
		for i, ss := range fp.Sources {
			batch := make([]stream.Tuple, 8)
			for j := range batch {
				batch[j] = stream.Tuple{TS: stream.Time(j * 100), V: make([]float64, ss.Arity)}
			}
			ss.NewGen(rand.New(rand.NewSource(int64(i+1))), i).FillBatch(batch)
			for _, tp := range batch {
				vals = append(vals, tp.V...)
			}
		}
		return vals
	}
	seen := make([][]float64, len(sources.AllDatasets))
	for i, d := range sources.AllDatasets {
		seen[i] = draw(d)
		if again := draw(d); !reflect.DeepEqual(seen[i], again) {
			t.Errorf("%s: two plans drew different values", d)
		}
		for j := 0; j < i; j++ {
			if reflect.DeepEqual(seen[i], seen[j]) {
				t.Errorf("%s and %s drew the same values", d, sources.AllDatasets[j])
			}
		}
	}
}
