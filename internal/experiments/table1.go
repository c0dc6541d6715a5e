package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cql"
	"repro/internal/sources"
)

// Table1 reproduces Table 1: it parses each query of the aggregate and
// complex workloads from its CQL-like text, plans it, and reports the
// per-fragment operator counts next to the paper's numbers (13 ops for an
// AVG-all fragment, 29 for TOP-5, 5 for COV; small deviations come from
// counting windows as part of their windowed operators, which DESIGN.md
// discusses).
type Table1 struct {
	Rows []Table1Row
}

// Table1Row is one workload query.
type Table1Row struct {
	Name     string
	CQL      string
	Type     string
	Ops      int
	PaperOps string
	Sources  int
}

// Table1Queries runs the inventory: each statement over one fragment,
// and the complex workload's three over three, whose middle fragment is
// the one the paper's per-fragment counts describe.
func Table1Queries() *Table1 {
	cat := cql.DefaultCatalog(sources.Gaussian)
	res := &Table1{}
	add := func(name, text, paperOps string, fragments int) {
		plan := cql.MustPlan(text, cat, fragments)
		res.Rows = append(res.Rows, Table1Row{
			Name:     name,
			CQL:      text,
			Type:     plan.Type,
			Ops:      len(plan.Fragments[fragments/2].Ops),
			PaperOps: paperOps,
			Sources:  plan.NumSources(),
		})
	}
	add("AVG", cql.Avg, "-", 1)
	add("MAX", cql.Max, "-", 1)
	add("COUNT", cql.Count, "-", 1)
	add("AVG-all", cql.AvgAll, "13", 1)
	add("TOP-5", cql.Top5, "29", 1)
	add("COV", cql.Cov, "5", 1)
	add("AVG-all (3 fragments)", cql.AvgAll, "13", 3)
	add("TOP-5 (3 fragments)", cql.Top5, "29", 3)
	add("COV (3 fragments)", cql.Cov, "5", 3)
	return res
}

// Render prints the inventory.
func (t *Table1) Render() string {
	rows := make([][]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		rows = append(rows, []string{r.Name, r.Type, fmt.Sprint(r.Ops), r.PaperOps, fmt.Sprint(r.Sources)})
	}
	var b strings.Builder
	b.WriteString("Table 1: workload queries (ops per fragment; paper counts windows as separate operators)\n")
	b.WriteString(table([]string{"query", "type", "ops/fragment", "paper", "sources"}, rows))
	return b.String()
}
