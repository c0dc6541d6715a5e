package cql

import (
	"fmt"
	"strings"

	"repro/internal/operator"
	"repro/internal/query"
)

// Fragment layouts. A statement planned over k fragments puts one
// fragment on each of k federation sites, and every fragment hosts its
// own copy of the statement's source streams, so |S| — the Eq. (1)
// normaliser — grows with k. Fragment 0 is the root and emits the result.
//
//   - A scalar aggregate over one fragment is a flat plan: receivers →
//     union → aggregate → output (13 ops for AvgAll's 10 sources).
//   - AVG over k > 1 fragments is a tree: every fragment unions its
//     sources into a (sum, count) partial; the root merges its own and
//     the other fragments' partials and finalizes the average.
//   - MAX, MIN, SUM and COUNT over k > 1 fragments are the same tree with
//     the aggregate itself as the partial and a merge aggregate at the
//     root.
//   - COV and TOP-k are chains at every k (planner.go): each fragment
//     merges its own partial with the one upstream of it.

// scalarInputs resolves the stream, aggregate field and optional HAVING
// predicate of a single-stream scalar aggregate.
func scalarInputs(st *Statement, cat *Catalog) (StreamDef, int, operator.Predicate, error) {
	var def StreamDef
	if len(st.From) != 1 {
		return def, 0, nil, fmt.Errorf("cql: %s expects exactly one input stream, got %d", st.Agg, len(st.From))
	}
	if len(st.Args) != 1 {
		return def, 0, nil, fmt.Errorf("cql: %s expects one argument", st.Agg)
	}
	def, ok := cat.Lookup(st.From[0].Name)
	if !ok {
		return def, 0, nil, fmt.Errorf("cql: unknown stream %q", st.From[0].Name)
	}
	field, err := resolveField(st.Args[0], def)
	if err != nil {
		return def, 0, nil, err
	}
	var pred operator.Predicate
	if st.Having != nil {
		hf, err := resolveField(st.Having.Left, def)
		if err != nil {
			return def, 0, nil, err
		}
		pred, err = predFromCond(*st.Having, hf)
		if err != nil {
			return def, 0, nil, err
		}
	}
	if len(st.Where) > 0 {
		return def, 0, nil, fmt.Errorf("cql: WHERE on a single-stream aggregate is unsupported; use HAVING")
	}
	return def, field, pred, nil
}

// planDistAvg builds the AVG tree: every fragment unions its sources into
// a (sum, count) partial; the root merges its own and the other
// fragments' partials and finalizes the average.
func planDistAvg(st *Statement, cat *Catalog, fragments int) (*query.Plan, error) {
	def, field, pred, err := scalarInputs(st, cat)
	if err != nil {
		return nil, err
	}
	win := st.From[0].Window
	n := def.NumSources
	plans := make([]*query.FragmentPlan, fragments)
	for f := 0; f < fragments; f++ {
		root := f == 0
		fp := &query.FragmentPlan{Entries: map[int]query.Entry{}, UpstreamPort: -1}
		union := n
		for i := 0; i < n; i++ {
			i := i
			fp.Ops = append(fp.Ops, query.OpSpec{
				Name: "receive",
				New:  func() operator.Operator { return operator.NewReceive() },
				Outs: []query.Edge{{To: union, Port: i}},
			})
			fp.Entries[i] = query.Entry{Op: i}
			fp.Sources = append(fp.Sources, query.SourceSpec{Port: i, Arity: def.Schema.Arity(), NewGen: def.NewGen})
		}
		next := union + 1
		fp.Ops = append(fp.Ops, query.OpSpec{
			Name: "union", New: func() operator.Operator { return operator.NewUnion(n) }, Outs: []query.Edge{{To: next}},
		})
		if pred != nil {
			p := pred
			fp.Ops = append(fp.Ops, query.OpSpec{
				Name: "filter", New: func() operator.Operator { return operator.NewFilter(p) }, Outs: []query.Edge{{To: next + 1}},
			})
			next++
		}
		merge := next + 1
		fld := field
		fp.Ops = append(fp.Ops,
			query.OpSpec{Name: "partial-avg", New: func() operator.Operator { return operator.NewPartialAvg(win, fld) }, Outs: []query.Edge{{To: merge}}},
		)
		if root {
			fin := merge + 1
			out := merge + 2
			fp.Ops = append(fp.Ops,
				query.OpSpec{Name: "avg-merge", New: func() operator.Operator { return operator.NewAvgMerge(win) }, Outs: []query.Edge{{To: fin}}},
				query.OpSpec{Name: "avg-finalize", New: func() operator.Operator { return operator.NewAvgFinalize() }, Outs: []query.Edge{{To: out}}},
				query.OpSpec{Name: "output", New: func() operator.Operator { return operator.NewOutput() }},
			)
			fp.OutOp = out
			fp.Entries[n] = query.Entry{Op: merge}
			fp.UpstreamPort = n
		} else {
			fp.Ops = append(fp.Ops,
				query.OpSpec{Name: "avg-merge", New: func() operator.Operator { return operator.NewAvgMerge(win) }},
			)
			fp.OutOp = merge
		}
		plans[f] = fp
	}
	return &query.Plan{Type: "AVG", Fragments: plans, Downstream: query.TreeDownstream(fragments)}, nil
}

// planDistScalar builds the tree for max/min/sum/count: every fragment
// aggregates its local sources; the root folds its own partial together
// with the other fragments' partials under the merge aggregate (max of
// maxes, min of mins, sum of sums, sum of counts).
func planDistScalar(st *Statement, cat *Catalog, fragments int) (*query.Plan, error) {
	def, field, pred, err := scalarInputs(st, cat)
	if err != nil {
		return nil, err
	}
	kind := aggKind(st.Agg)
	mergeKind := kind
	if kind == operator.AggCount {
		mergeKind = operator.AggSum
	}
	win := st.From[0].Window
	n := def.NumSources
	plans := make([]*query.FragmentPlan, fragments)
	for f := 0; f < fragments; f++ {
		root := f == 0
		fp := &query.FragmentPlan{Entries: map[int]query.Entry{}, UpstreamPort: -1}
		union := n
		local := n + 1
		for i := 0; i < n; i++ {
			i := i
			fp.Ops = append(fp.Ops, query.OpSpec{
				Name: "receive",
				New:  func() operator.Operator { return operator.NewReceive() },
				Outs: []query.Edge{{To: union, Port: i}},
			})
			fp.Entries[i] = query.Entry{Op: i}
			fp.Sources = append(fp.Sources, query.SourceSpec{Port: i, Arity: def.Schema.Arity(), NewGen: def.NewGen})
		}
		fld, p := field, pred
		fp.Ops = append(fp.Ops,
			query.OpSpec{Name: "union", New: func() operator.Operator { return operator.NewUnion(n) }, Outs: []query.Edge{{To: local}}},
		)
		if root {
			merge := local + 1
			out := local + 2
			fp.Ops = append(fp.Ops,
				query.OpSpec{Name: kind.String(), New: func() operator.Operator { return operator.NewAgg(kind, win, fld, p) }, Outs: []query.Edge{{To: merge}}},
				// Partials carry the aggregate value at field 0.
				query.OpSpec{Name: "merge-" + mergeKind.String(), New: func() operator.Operator { return operator.NewAgg(mergeKind, win, 0, nil) }, Outs: []query.Edge{{To: out}}},
				query.OpSpec{Name: "output", New: func() operator.Operator { return operator.NewOutput() }},
			)
			fp.OutOp = out
			fp.Entries[n] = query.Entry{Op: merge}
			fp.UpstreamPort = n
		} else {
			fp.Ops = append(fp.Ops,
				query.OpSpec{Name: kind.String(), New: func() operator.Operator { return operator.NewAgg(kind, win, fld, p) }},
			)
			fp.OutOp = local
		}
		plans[f] = fp
	}
	return &query.Plan{Type: strings.ToUpper(st.Agg), Fragments: plans, Downstream: query.TreeDownstream(fragments)}, nil
}
