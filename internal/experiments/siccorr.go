package experiments

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/cql"
	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/sources"
	"repro/internal/stream"
)

// SIC correlation experiments (§7.1, Figures 6 and 7): deploy queries of
// one type on a single node with a random shedder, emulate increasing
// overload by increasing the number of co-located queries, and measure
// how the result error (vs. a perfect, unshedded reference run over the
// *same* source data) relates to the measured SIC value.

// errKind selects the error metric per query type.
type errKind int

const (
	errMAE     errKind = iota // mean absolute relative error (AVG/COUNT/MAX)
	errKendall                // normalised Kendall top-k distance (TOP-5)
	errRMS                    // RMS deviation from the perfect value (COV)
)

// CorrPoint is one (query, overload level) observation.
type CorrPoint struct {
	SIC float64
	Err float64
}

// CorrSeries is one dataset's point cloud plus a bucketed summary.
type CorrSeries struct {
	Dataset string
	Points  []CorrPoint
	// Bucketed holds mean error per SIC decile [0,0.1), [0.1,0.2), ...;
	// NaN marks empty buckets.
	Bucketed [10]float64
}

// CorrResult reproduces one panel of Fig. 6/7.
type CorrResult struct {
	QueryType string
	Metric    string
	Series    []CorrSeries
}

// capture records a query's result series during a run.
type capture struct {
	vals  map[stream.Time]float64
	lists map[stream.Time][]int
	sic   float64
}

func newCapture() *capture {
	return &capture{vals: make(map[stream.Time]float64), lists: make(map[stream.Time][]int)}
}

func (c *capture) observe(tuples []stream.Tuple) {
	if len(tuples) == 0 {
		return
	}
	ts := tuples[0].TS
	if len(tuples) == 1 && len(tuples[0].V) == 1 {
		c.vals[ts] = tuples[0].V[0]
		return
	}
	ids := make([]int, 0, len(tuples))
	for i := range tuples {
		ids = append(ids, int(tuples[i].V[0]))
	}
	c.lists[ts] = ids
}

// corrSpec describes one query type's correlation run.
type corrSpec struct {
	name     string
	metric   errKind
	rate     float64 // per-source tuple rate
	overload []int   // numbers of co-located queries to sweep
	stmt     string  // the query's CQL text, planned over one fragment
}

// runCorr executes the spec for one dataset, returning one point per
// (query, overload level).
func runCorr(spec corrSpec, d sources.Dataset, scale Scale, seed int64) []CorrPoint {
	var points []CorrPoint
	plan := cql.MustPlan(spec.stmt, cql.DefaultCatalog(d), 1)
	for _, n := range spec.overload {
		// Capacity grants ~2.5 queries' demand, so the sweep spans
		// SIC ≈ 1 down to ≈ 2.5/max(overload).
		demand := spec.rate * float64(plan.NumSources())
		capacity := 2.5 * demand

		run := func(policy federation.Policy, cap float64) []*capture {
			cfg := federation.Defaults()
			cfg.Duration = scale.Duration
			cfg.Warmup = scale.Warmup
			cfg.Policy = policy
			cfg.Seed = seed
			cfg.SourceRate = spec.rate
			cfg.BatchesPerSec = 5
			e, nd := federation.LocalTestbed(cfg, cap)
			caps := make([]*capture, n)
			for i := 0; i < n; i++ {
				qid, err := e.Submit(federation.QuerySubmit{CQL: spec.stmt, Fragments: 1, Dataset: int(d), Rate: spec.rate, Placement: []stream.NodeID{nd}, Feed: i})
				if err != nil {
					panic(err)
				}
				c := newCapture()
				caps[i] = c
				e.OnResult(qid, func(_ stream.Time, tuples []stream.Tuple) { c.observe(tuples) })
			}
			res := e.Run()
			// Stash per-query SIC in the capture order.
			for i, qr := range res.Queries {
				caps[i].sic = qr.MeanSIC
			}
			return caps
		}

		degraded := run(federation.PolicyRandom, capacity)
		perfect := run(federation.PolicyKeepAll, 1e12)
		for i := range degraded {
			e := seriesError(spec.metric, degraded[i], perfect[i], scale.Warmup)
			if math.IsNaN(e) {
				continue
			}
			points = append(points, CorrPoint{SIC: degraded[i].sic, Err: e})
		}
	}
	return points
}

// seriesError compares a degraded capture against the perfect reference
// over the perfect run's post-warm-up windows, in time order, so the
// float sums come out the same bits on every run.
func seriesError(kind errKind, deg, perf *capture, warmup stream.Duration) float64 {
	switch kind {
	case errKendall:
		var sum float64
		var n int
		for _, ts := range windowsAfter(perf.lists, warmup) {
			dlist, ok := deg.lists[ts]
			if !ok {
				// A fully-shed window: maximal disagreement.
				sum += 1
				n++
				continue
			}
			sum += metrics.KendallTopK(dlist, perf.lists[ts])
			n++
		}
		if n == 0 {
			return math.NaN()
		}
		return sum / float64(n)
	case errRMS:
		var ss float64
		var n int
		for _, ts := range windowsAfter(perf.vals, warmup) {
			dv, ok := deg.vals[ts]
			if !ok {
				continue
			}
			d := dv - perf.vals[ts]
			ss += d * d
			n++
		}
		if n == 0 {
			return math.NaN()
		}
		return math.Sqrt(ss / float64(n))
	default:
		var dvals, pvals []float64
		for _, ts := range windowsAfter(perf.vals, warmup) {
			dv, ok := deg.vals[ts]
			if !ok {
				continue
			}
			dvals = append(dvals, dv)
			pvals = append(pvals, perf.vals[ts])
		}
		if len(dvals) == 0 {
			return math.NaN()
		}
		return metrics.MeanAbsRelErr(dvals, pvals)
	}
}

// windowsAfter lists a capture's window times past the warm-up, ascending.
func windowsAfter[V any](m map[stream.Time]V, warmup stream.Duration) []stream.Time {
	keys := make([]stream.Time, 0, len(m))
	for ts := range m {
		if ts > stream.Time(warmup) {
			keys = append(keys, ts)
		}
	}
	slices.Sort(keys)
	return keys
}

// bucketise summarises a point cloud into SIC deciles.
func bucketise(points []CorrPoint) [10]float64 {
	var sum, cnt [10]float64
	for _, p := range points {
		b := int(p.SIC * 10)
		if b < 0 {
			b = 0
		}
		if b > 9 {
			b = 9
		}
		sum[b] += p.Err
		cnt[b]++
	}
	var out [10]float64
	for i := range out {
		if cnt[i] > 0 {
			out[i] = sum[i] / cnt[i]
		} else {
			out[i] = math.NaN()
		}
	}
	return out
}

// aggCorrSpecs are the Fig. 6 panels.
func aggCorrSpecs(scale Scale) []corrSpec {
	overload := []int{2, 3, 4, 6, 8, 12, 16}
	if scale.LoadFactor < 0.5 {
		overload = []int{2, 4, 8, 14}
	}
	return []corrSpec{
		{name: "AVG", metric: errMAE, rate: 400, overload: overload, stmt: cql.Avg},
		{name: "COUNT", metric: errMAE, rate: 400, overload: overload, stmt: cql.Count},
		{name: "MAX", metric: errMAE, rate: 400, overload: overload, stmt: cql.Max},
	}
}

// complexCorrSpecs are the Fig. 7 panels: TOP-5 at 20 tuples/sec/source
// and COV at 400 tuples/sec/source (§7.1).
func complexCorrSpecs(scale Scale) []corrSpec {
	overload := []int{2, 3, 4, 6, 8, 12}
	if scale.LoadFactor < 0.5 {
		overload = []int{2, 4, 8}
	}
	return []corrSpec{
		{name: "TOP-5", metric: errKendall, rate: 20, overload: overload, stmt: cql.Top5},
		{name: "COV", metric: errRMS, rate: 400, overload: overload, stmt: cql.Cov},
	}
}

// Fig6 reproduces Figure 6: SIC correlation with result correctness for
// the aggregate workload, one CorrResult per query type (AVG, COUNT,
// MAX), each with one series per dataset.
func Fig6(scale Scale, seed int64) []*CorrResult {
	return corrResults(aggCorrSpecs(scale), scale, seed)
}

// Fig7 reproduces Figure 7: SIC correlation for the complex workload
// (TOP-5 via Kendall's distance, COV via deviation from the perfect
// covariance).
func Fig7(scale Scale, seed int64) []*CorrResult {
	return corrResults(complexCorrSpecs(scale), scale, seed)
}

func corrResults(specs []corrSpec, scale Scale, seed int64) []*CorrResult {
	out := make([]*CorrResult, len(specs))
	for si, spec := range specs {
		r := &CorrResult{QueryType: spec.name}
		switch spec.metric {
		case errKendall:
			r.Metric = "Kendall's distance"
		case errRMS:
			r.Metric = "std"
		default:
			r.Metric = "mean absolute error"
		}
		r.Series = make([]CorrSeries, len(sources.AllDatasets))
		out[si] = r
	}
	// Every (query type, dataset) cell is an independent degraded/perfect
	// run pair; sweep the cells concurrently under the shared budget.
	type cell struct{ si, di int }
	cells := make([]cell, 0, len(specs)*len(sources.AllDatasets))
	for si := range specs {
		for di := range sources.AllDatasets {
			cells = append(cells, cell{si, di})
		}
	}
	forEach(len(cells), func(k int) {
		c := cells[k]
		d := sources.AllDatasets[c.di]
		pts := runCorr(specs[c.si], d, scale, seed)
		out[c.si].Series[c.di] = CorrSeries{
			Dataset:  d.String(),
			Points:   pts,
			Bucketed: bucketise(pts),
		}
	})
	return out
}

// Render prints the bucketed series, one row per SIC decile.
func (r *CorrResult) Render() string {
	header := []string{"SIC"}
	for _, s := range r.Series {
		header = append(header, s.Dataset)
	}
	var rows [][]string
	for b := 0; b < 10; b++ {
		row := []string{fmt.Sprintf("%.1f-%.1f", float64(b)/10, float64(b+1)/10)}
		any := false
		for _, s := range r.Series {
			if math.IsNaN(s.Bucketed[b]) {
				row = append(row, "-")
			} else {
				row = append(row, f3(s.Bucketed[b]))
				any = true
			}
		}
		if any {
			rows = append(rows, row)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s queries — %s vs SIC (random shedding)\n", r.QueryType, r.Metric)
	b.WriteString(table(header, rows))
	return b.String()
}
