package cql

import (
	"strings"
	"testing"

	"repro/internal/sources"
	"repro/internal/stream"
)

func TestParseAggregateQuery(t *testing.T) {
	st, err := Parse("Select Avg(t.v) from Src[Range 1 sec]")
	if err != nil {
		t.Fatal(err)
	}
	if st.Agg != "avg" || len(st.Args) != 1 || st.Args[0].Field != "v" {
		t.Errorf("parsed: %+v", st)
	}
	if len(st.From) != 1 || st.From[0].Name != "Src" {
		t.Errorf("from: %+v", st.From)
	}
	w := st.From[0].Window
	if w.Kind != stream.TimeWindow || w.Range != 1000 || w.Slide != 1000 {
		t.Errorf("window: %+v", w)
	}
}

func TestParseHaving(t *testing.T) {
	st, err := Parse("Select Count(t.v) from Src[Range 1 sec] Having t.v >= 50")
	if err != nil {
		t.Fatal(err)
	}
	if st.Having == nil || st.Having.Op != ">=" || st.Having.Lit != 50 {
		t.Errorf("having: %+v", st.Having)
	}
}

func TestParseTop5WithJoinAndDigitGroups(t *testing.T) {
	st, err := Parse("Select Top5(AllSrcCPU.id) From AllSrcCPU[Range 1 sec], AllSrcMem[Range 1 sec] " +
		"Where AllSrcMem.free >= 100,000 and AllSrcCPU.id = AllSrcMem.id")
	if err != nil {
		t.Fatal(err)
	}
	if st.Agg != "top" || st.K != 5 {
		t.Errorf("agg: %q k=%d", st.Agg, st.K)
	}
	if len(st.Where) != 2 {
		t.Fatalf("where: %+v", st.Where)
	}
	if st.Where[0].IsJoin || st.Where[0].Lit != 100000 {
		t.Errorf("filter cond: %+v", st.Where[0])
	}
	if !st.Where[1].IsJoin {
		t.Errorf("join cond: %+v", st.Where[1])
	}
}

func TestParseCov(t *testing.T) {
	st, err := Parse("Select Cov(SrcCPU1.value, SrcCPU2.value) From SrcCPU1[Range 1 sec], SrcCPU2[Range 1 sec]")
	if err != nil {
		t.Fatal(err)
	}
	if st.Agg != "cov" || len(st.Args) != 2 || len(st.From) != 2 {
		t.Errorf("cov: %+v", st)
	}
}

func TestParseWindowVariants(t *testing.T) {
	st, err := Parse("Select Avg(t.v) from Src[Range 10 sec Slide 2 sec]")
	if err != nil {
		t.Fatal(err)
	}
	w := st.From[0].Window
	if w.Range != 10000 || w.Slide != 2000 {
		t.Errorf("sliding window: %+v", w)
	}
	st, err = Parse("Select Avg(t.v) from Src[Rows 100]")
	if err != nil {
		t.Fatal(err)
	}
	if st.From[0].Window.Kind != stream.CountWindow || st.From[0].Window.Range != 100 {
		t.Errorf("rows window: %+v", st.From[0].Window)
	}
	st, err = Parse("Select Avg(t.v) from Src[Range 500 ms]")
	if err != nil {
		t.Fatal(err)
	}
	if st.From[0].Window.Range != 500 {
		t.Errorf("ms window: %+v", st.From[0].Window)
	}
	// Default window when none given.
	st, err = Parse("Select Avg(t.v) from Src")
	if err != nil {
		t.Fatal(err)
	}
	if st.From[0].Window.Range != 1000 {
		t.Errorf("default window: %+v", st.From[0].Window)
	}
}

// parseErrorCases are statements the parser must reject, with the
// fragment the error must mention.
var parseErrorCases = []struct {
	src  string
	frag string // expected error substring
}{
	{"", "expected \"select\""},
	{"Select", "aggregate function"},
	{"Select Avg", "("},
	{"Select Avg(t.v)", "from"},
	{"Select Avg(t.v) from", "stream name"},
	{"Select Avg(t.v) from Src[Range]", "duration value"},
	{"Select Avg(t.v) from Src[Range 1]", "time unit"},
	{"Select Avg(t.v) from Src[Range 0 sec]", "positive"},
	{"Select Avg(t.v) from Src[Wat 1 sec]", "Range or Rows"},
	{"Select Avg(t.v) from Src extra", "trailing"},
	{"Select Top0(x.id) from A, B", "bad top-k"},
	{"Select Avg(t.v) from Src where t.v > a.b and", "'='"},
	{"Select Avg(t.v) from Src having t.v ! 5", "unexpected character"},
	{"Select Avg(t.v) from Src where t.v = 1 and", "field reference"},
	{"Select Avg(t.v) from Src where t.v >= a.b", "'='"},
}

func TestParseErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("%q: no error", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%q: error %q does not mention %q", c.src, err, c.frag)
		}
	}
}

func TestLexerRejectsGarbage(t *testing.T) {
	if _, err := Parse("Select Avg(t.v) from Src # comment"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestPlanTable1Queries(t *testing.T) {
	cat := DefaultCatalog(sources.Gaussian)
	queries := []string{Avg, Max, Count, AvgAll, Top5, Cov}
	for _, q := range queries {
		st, err := Parse(q)
		if err != nil {
			t.Errorf("%q: parse: %v", q, err)
			continue
		}
		plan, err := PlanDistributed(st, cat, 1)
		if err != nil {
			t.Errorf("%q: plan: %v", q, err)
			continue
		}
		if err := plan.Validate(); err != nil {
			t.Errorf("%q: invalid plan: %v", q, err)
		}
	}
}

func TestPlanShapes(t *testing.T) {
	cat := DefaultCatalog(sources.Gaussian)
	p := MustPlan(AvgAll, cat, 1)
	if p.NumSources() != 10 {
		t.Errorf("AllSrc sources: %d", p.NumSources())
	}
	if p.Type != "AVG" {
		t.Errorf("type: %s", p.Type)
	}
	top := MustPlan(Top5, cat, 1)
	if top.NumSources() != 20 {
		t.Errorf("TOP-5 sources: %d", top.NumSources())
	}
	if top.Type != "TOP-5" {
		t.Errorf("type: %s", top.Type)
	}
}

// planErrorCases parse (or not) but must never plan.
var planErrorCases = []string{
	"Select Avg(t.v) from Nope[Range 1 sec]",                                            // unknown stream
	"Select Avg(t.nope) from Src[Range 1 sec]",                                          // unknown field
	"Select Avg(t.v) from Src[Range 1 sec], AllSrc[Range 1 sec]",                        // two streams for scalar agg
	"Select Cov(SrcCPU1.value, AllSrc.v) from SrcCPU1, AllSrc",                          // multi-source cov input
	"Select Top5(AllSrcCPU.id) From AllSrcCPU, AllSrcMem",                               // top-k without join
	"Select Median(t.v) from Src",                                                       // unsupported aggregate
	"Select Avg(t.v) from Src where t.v >= 5",                                           // WHERE on single stream
	"Select Top5(Wrong.id) From AllSrcCPU, AllSrcMem Where AllSrcCPU.id = AllSrcMem.id", // bad key stream
	// Two-stream statements pair their streams window by window.
	"Select Cov(SrcCPU1.value, SrcCPU2.value) From SrcCPU1[Range 1 sec], SrcCPU2[Range 5 sec]",
	"Select Top5(AllSrcCPU.id) From AllSrcCPU[Range 1 sec], AllSrcMem[Rows 50] Where AllSrcCPU.id = AllSrcMem.id",
}

func TestPlanErrors(t *testing.T) {
	cat := DefaultCatalog(sources.Gaussian)
	for _, q := range planErrorCases {
		st, err := Parse(q)
		if err != nil {
			continue // parse-level rejection is fine too
		}
		for _, frags := range []int{1, 3} {
			if _, err := PlanDistributed(st, cat, frags); err == nil {
				t.Errorf("%q x%d: planned without error", q, frags)
			}
		}
	}
}

func TestMustPlanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustPlan should panic on bad input")
		}
	}()
	MustPlan("not a query", DefaultCatalog(sources.Gaussian), 1)
}

func TestCatalogLookupCaseInsensitive(t *testing.T) {
	cat := DefaultCatalog(sources.Gaussian)
	if _, ok := cat.Lookup("allsrccpu"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := cat.Lookup("missing"); ok {
		t.Error("phantom stream")
	}
}

func TestFieldRefString(t *testing.T) {
	if (FieldRef{Stream: "A", Field: "x"}).String() != "A.x" {
		t.Error("qualified ref")
	}
	if (FieldRef{Field: "x"}).String() != "x" {
		t.Error("bare ref")
	}
}
