package cql

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sources"
)

// table1Statements are the paper's Table 1 workloads plus window/filter
// variants exercising every clause the grammar accepts.
var table1Statements = []string{
	Avg, Max, Count, AvgAll, Top5, Cov,
	"Select Avg(t.v) From Src",
	"Select Sum(t.v) From AllSrc[Range 2 sec Slide 500 ms]",
	"Select Max(t.v) From AllSrc[Range 1 min]",
	"Select Min(t.v) From Src[Rows 100]",
	"Select Avg(t.v) From Src[Range 0.5 sec]",
	"Select Count(t.v) From Src[Range 1 sec] Having t.v < 12.75",
}

// checkFixedPoint asserts that parse → String → parse is a fixed point
// for a statement that parses: the re-parsed statement is structurally
// identical and its rendering and shape are stable.
func checkFixedPoint(t testing.TB, src string) {
	t.Helper()
	st1, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	canon := st1.String()
	st2, err := Parse(canon)
	if err != nil {
		t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, src, err)
	}
	if !reflect.DeepEqual(st1, st2) {
		t.Fatalf("re-parse of %q changed the statement:\n  canon: %s\n  st1: %+v\n  st2: %+v", src, canon, st1, st2)
	}
	if again := st2.String(); again != canon {
		t.Fatalf("String not a fixed point for %q: %q then %q", src, canon, again)
	}
	if sh1, sh2 := st1.Shape(), st2.Shape(); sh1 != sh2 {
		t.Fatalf("Shape unstable across re-parse of %q: %q vs %q", src, sh1, sh2)
	}
}

// TestStringParseFixedPoint checks the fixed point
// (String(parse(String(st))) == String(st)) on Table 1 and on randomly
// assembled statements.
func TestStringParseFixedPoint(t *testing.T) {
	for _, src := range table1Statements {
		checkFixedPoint(t, src)
	}

	// Property test over randomly assembled statements.
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 500; i++ {
		checkFixedPoint(t, randomStatement(rng))
	}
}

// randomStatement assembles a random parseable statement exercising
// aggregates, windows in every unit spelling, digit-grouped and fractional
// literals, WHERE chains and HAVING.
func randomStatement(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString("select ")
	aggs := []string{"avg", "Max", "MIN", "sum", "Count", "top3", "Top12"}
	b.WriteString(aggs[rng.Intn(len(aggs))])
	b.WriteString("(s.v")
	if rng.Intn(3) == 0 {
		b.WriteString(", s.w")
	}
	b.WriteString(") from Str")
	switch rng.Intn(4) {
	case 0: // implicit default window
	case 1:
		fmt.Fprintf(&b, "[Range %d sec]", 1+rng.Intn(10))
	case 2:
		fmt.Fprintf(&b, "[Range %d ms Slide %d ms]", 500+rng.Intn(10)*250, 250+rng.Intn(2)*250)
	case 3:
		fmt.Fprintf(&b, "[Rows %d]", 1+rng.Intn(1000))
	}
	if rng.Intn(2) == 0 {
		ops := []string{">=", "<=", ">", "<", "="}
		fmt.Fprintf(&b, " where s.v %s %g", ops[rng.Intn(len(ops))], float64(rng.Intn(100000))/4)
		if rng.Intn(2) == 0 {
			b.WriteString(" and s.w = t.w")
		}
	}
	if rng.Intn(3) == 0 {
		fmt.Fprintf(&b, " having s.v >= %d,000", 1+rng.Intn(99))
	}
	return b.String()
}

// TestShapeEquivalence checks that superficial rewrites — case,
// whitespace, duration units, digit grouping, explicit defaults — map to
// one shape, and that structural changes map to distinct shapes.
func TestShapeEquivalence(t *testing.T) {
	shape := func(src string) string {
		st, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return st.Shape()
	}
	same := [][2]string{
		{"Select Avg(t.v) From Src[Range 1 sec]", "select avg(T.V) from SRC [range 1000 ms]"},
		{"Select Avg(t.v) From Src", "Select Avg(t.v) From Src[Range 1 sec]"},
		{"Select Sum(t.v) From Src[Range 1 min]", "Select Sum(t.v) From Src[Range 60 sec]"},
		{"Select Count(t.v) From Src Having t.v >= 100,000", "select count(t.v) from src having t.v >= 100000"},
	}
	for _, p := range same {
		if a, b := shape(p[0]), shape(p[1]); a != b {
			t.Errorf("shapes differ for equivalent statements:\n  %q -> %q\n  %q -> %q", p[0], a, p[1], b)
		}
	}
	distinct := []string{
		"Select Avg(t.v) From Src[Range 1 sec]",
		"Select Avg(t.v) From Src[Range 2 sec]",
		"Select Avg(t.v) From Src[Range 2 sec Slide 1 sec]",
		"Select Sum(t.v) From Src[Range 1 sec]",
		"Select Avg(t.v) From AllSrc[Range 1 sec]",
		"Select Avg(t.v) From Src[Rows 1000]",
		"Select Count(t.v) From Src[Range 1 sec] Having t.v >= 50",
		"Select Count(t.v) From Src[Range 1 sec] Having t.v >= 51",
	}
	seen := map[string]string{}
	for _, src := range distinct {
		sh := shape(src)
		if prev, dup := seen[sh]; dup {
			t.Errorf("distinct statements share a shape %q:\n  %q\n  %q", sh, prev, src)
		}
		seen[sh] = src
	}
}

// TestPlanCache checks the two cache levels, stats, structural sharing of
// the returned plan pointer, and invalidation.
func TestPlanCache(t *testing.T) {
	cat := DefaultCatalog(sources.Gaussian)
	pc := NewPlanCache()

	p1, shape1, err := pc.PlanDistributed("Select Avg(t.v) From Src[Range 1 sec]", cat, "gaussian", 3)
	if err != nil {
		t.Fatal(err)
	}
	if s := pc.Stats(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("after cold plan: %+v", s)
	}

	// Exact text: hit without re-parsing.
	p2, shape2, err := pc.PlanDistributed("Select Avg(t.v) From Src[Range 1 sec]", cat, "gaussian", 3)
	if err != nil {
		t.Fatal(err)
	}
	if p2 != p1 || shape2 != shape1 {
		t.Fatal("text-level hit returned a different plan or shape")
	}
	// Same shape, different spelling: hit at the shape level.
	p3, shape3, err := pc.PlanDistributed("select AVG(t.v) from src [range 1000 ms]", cat, "gaussian", 3)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 || shape3 != shape1 {
		t.Fatal("shape-level hit returned a different plan or shape")
	}
	if s := pc.Stats(); s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("after two hits: %+v", s)
	}

	// Different fragment count, catalog key, or window: distinct plans.
	p4, shape4, err := pc.PlanDistributed("Select Avg(t.v) From Src[Range 1 sec]", cat, "gaussian", 4)
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p1 || shape4 == shape1 {
		t.Fatal("fragment count must partition the cache")
	}
	p5, shape5, err := pc.PlanDistributed("Select Avg(t.v) From Src[Range 1 sec]", cat, "uniform", 3)
	if err != nil {
		t.Fatal(err)
	}
	if p5 == p1 || shape5 == shape1 {
		t.Fatal("catalog key must partition the cache")
	}
	if _, _, err := pc.PlanDistributed("Select Nope(t.v) From Src", cat, "gaussian", 3); err == nil {
		t.Fatal("expected plan error for unknown aggregate")
	}

	// Invalidate: next submit is a miss building a fresh plan value.
	pc.Invalidate()
	p6, shape6, err := pc.PlanDistributed("Select Avg(t.v) From Src[Range 1 sec]", cat, "gaussian", 3)
	if err != nil {
		t.Fatal(err)
	}
	if shape6 != shape1 {
		t.Fatal("shape key must be stable across invalidation")
	}
	if p6 == p1 {
		t.Fatal("invalidated cache should re-plan")
	}
	if s := pc.Stats(); s.Misses < 3 {
		t.Fatalf("stats after invalidate: %+v", s)
	}
}

// TestPlanCacheSharedPlanDeploys checks a cached plan deploys under many
// query IDs: fragments validate and instantiate independently.
func TestPlanCacheSharedPlanDeploys(t *testing.T) {
	cat := DefaultCatalog(sources.Uniform)
	pc := NewPlanCache()
	var last string
	for i := 0; i < 5; i++ {
		p, shape, err := pc.PlanDistributed("Select Sum(t.v) From AllSrc[Range 2 sec Slide 1 sec]", cat, "uniform", 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("cached plan invalid on reuse %d: %v", i, err)
		}
		if last != "" && shape != last {
			t.Fatalf("shape drifted across submissions: %q vs %q", shape, last)
		}
		last = shape
	}
}
