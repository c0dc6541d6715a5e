package cql

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/operator"
	"repro/internal/query"
	"repro/internal/sources"
	"repro/internal/stream"
)

// StreamDef describes a named input stream in the catalog: a union of
// NumSources physical sources sharing a schema and a generator.
type StreamDef struct {
	Name       string
	NumSources int
	Schema     *stream.Schema
	// NewGen builds the generator for the idx-th member source.
	NewGen func(rng *rand.Rand, idx int) sources.ValueGen
}

// Catalog maps stream names (case-insensitively) to definitions.
type Catalog struct {
	defs map[string]StreamDef
}

// NewCatalog builds a catalog from definitions.
func NewCatalog(defs ...StreamDef) *Catalog {
	c := &Catalog{defs: make(map[string]StreamDef, len(defs))}
	for _, d := range defs {
		c.defs[strings.ToLower(d.Name)] = d
	}
	return c
}

// Lookup resolves a stream name.
func (c *Catalog) Lookup(name string) (StreamDef, bool) {
	d, ok := c.defs[strings.ToLower(name)]
	return d, ok
}

// DefaultCatalog returns a catalog with the streams Table 1 references,
// backed by the given dataset for scalar streams and by synthetic
// PlanetLab traces for the CPU/memory streams.
func DefaultCatalog(d sources.Dataset) *Catalog {
	scalar := func(rng *rand.Rand, idx int) sources.ValueGen {
		if d == sources.PlanetLab {
			return sources.NewTrace(rng, idx).ScalarGen()
		}
		return sources.NewValueGen(d, rng)
	}
	// The CPU/memory streams are host traces whatever the dataset, so the
	// dataset reseeds each trace instead: the five datasets then draw five
	// different host populations (§7 plots TOP-5 over all five). Reseeding
	// the generator handed in spares allocating a second one per source.
	trace := func(rng *rand.Rand, idx int) *sources.Trace {
		rng.Seed(rng.Int63() + int64(d)*7919)
		return sources.NewTrace(rng, idx)
	}
	return NewCatalog(
		StreamDef{Name: "Src", NumSources: 1, Schema: stream.NewSchema("v"), NewGen: scalar},
		StreamDef{Name: "AllSrc", NumSources: 10, Schema: stream.NewSchema("v"), NewGen: scalar},
		StreamDef{Name: "AllSrcCPU", NumSources: 10, Schema: stream.NewSchema("id", "cpu"),
			NewGen: func(rng *rand.Rand, idx int) sources.ValueGen { return trace(rng, idx).CPUGen() }},
		StreamDef{Name: "AllSrcMem", NumSources: 10, Schema: stream.NewSchema("id", "free"),
			NewGen: func(rng *rand.Rand, idx int) sources.ValueGen { return trace(rng, idx).MemGen() }},
		StreamDef{Name: "SrcCPU1", NumSources: 1, Schema: stream.NewSchema("value"), NewGen: scalar},
		StreamDef{Name: "SrcCPU2", NumSources: 1, Schema: stream.NewSchema("value"), NewGen: scalar},
	)
}

// Table 1's six statements over DefaultCatalog's streams. Avg, Max and
// Count are the aggregate workload, one source each; AvgAll, Top5 and Cov
// are the complex workload, whose fragment count is chosen at plan time.
const (
	Avg    = "Select Avg(t.v) From Src[Range 1 sec]"
	Max    = "Select Max(t.v) From Src[Range 1 sec]"
	Count  = "Select Count(t.v) From Src[Range 1 sec] Having t.v >= 50"
	AvgAll = "Select Avg(t.v) From AllSrc[Range 1 sec]"
	Top5   = "Select Top5(AllSrcCPU.id) From AllSrcCPU[Range 1 sec], AllSrcMem[Range 1 sec] " +
		"Where AllSrcMem.free >= 100,000 and AllSrcCPU.id = AllSrcMem.id"
	Cov = "Select Cov(SrcCPU1.value, SrcCPU2.value) From SrcCPU1[Range 1 sec], SrcCPU2[Range 1 sec]"
)

// PlanDistributed compiles a parsed statement into a plan with the given
// number of fragments, one per federation site (§3: placing fragments is
// the query user's decision). fragments <= 1 yields the single-fragment
// plan. The layouts are described in distributed.go.
func PlanDistributed(st *Statement, cat *Catalog, fragments int) (*query.Plan, error) {
	switch st.Agg {
	case "avg", "max", "min", "sum", "count":
		switch {
		case fragments <= 1:
			return planScalarAgg(st, cat)
		case st.Agg == "avg":
			return planDistAvg(st, cat, fragments)
		default:
			return planDistScalar(st, cat, fragments)
		}
	case "cov":
		return planCov(st, cat, max(fragments, 1))
	case "top":
		return planTopK(st, cat, max(fragments, 1))
	default:
		return nil, fmt.Errorf("cql: unsupported aggregate %q", st.Agg)
	}
}

// MustPlan parses and plans src over the given number of fragments,
// panicking on error — for tests, examples and the paper's figures, whose
// statements are literals.
func MustPlan(src string, cat *Catalog, fragments int) *query.Plan {
	st, err := Parse(src)
	if err != nil {
		panic(err)
	}
	p, err := PlanDistributed(st, cat, fragments)
	if err != nil {
		panic(err)
	}
	return p
}

func aggKind(name string) operator.AggKind {
	switch name {
	case "avg":
		return operator.AggAvg
	case "max":
		return operator.AggMax
	case "min":
		return operator.AggMin
	case "sum":
		return operator.AggSum
	default:
		return operator.AggCount
	}
}

// resolveField maps a field reference to its index in the (single)
// stream's schema, accepting the tuple alias shorthand "t.v".
func resolveField(ref FieldRef, def StreamDef) (int, error) {
	if ref.Stream != "" && !strings.EqualFold(ref.Stream, def.Name) && !strings.EqualFold(ref.Stream, "t") {
		return 0, fmt.Errorf("cql: field %s does not belong to stream %s", ref, def.Name)
	}
	if i, ok := def.Schema.Index(ref.Field); ok {
		return i, nil
	}
	return 0, fmt.Errorf("cql: stream %s has no field %q (schema %s)", def.Name, ref.Field, def.Schema)
}

func predFromCond(c Cond, field int) (operator.Predicate, error) {
	switch c.Op {
	case ">=":
		return operator.FieldAtLeast(field, c.Lit), nil
	case ">":
		lit := c.Lit
		return func(t *stream.Tuple) bool { return t.V[field] > lit }, nil
	case "<=":
		lit := c.Lit
		return func(t *stream.Tuple) bool { return t.V[field] <= lit }, nil
	case "<":
		lit := c.Lit
		return func(t *stream.Tuple) bool { return t.V[field] < lit }, nil
	case "=":
		lit := c.Lit
		return func(t *stream.Tuple) bool { return t.V[field] == lit }, nil
	default:
		return nil, fmt.Errorf("cql: unsupported operator %q", c.Op)
	}
}

// planScalarAgg handles the aggregate workload shape: one stream, one
// scalar aggregate, optional HAVING.
func planScalarAgg(st *Statement, cat *Catalog) (*query.Plan, error) {
	def, field, pred, err := scalarInputs(st, cat)
	if err != nil {
		return nil, err
	}
	kind := aggKind(st.Agg)
	win := st.From[0].Window

	n := def.NumSources
	fp := &query.FragmentPlan{Entries: map[int]query.Entry{}, UpstreamPort: -1}
	union := n
	agg := n + 1
	out := n + 2
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
	fp.Ops = append(fp.Ops,
		query.OpSpec{Name: "union", New: func() operator.Operator { return operator.NewUnion(n) }, Outs: []query.Edge{{To: agg}}},
		query.OpSpec{Name: kind.String(), New: func() operator.Operator { return operator.NewAgg(kind, win, field, pred) }, Outs: []query.Edge{{To: out}}},
		query.OpSpec{Name: "output", New: func() operator.Operator { return operator.NewOutput() }},
	)
	fp.OutOp = out
	return &query.Plan{Type: strings.ToUpper(st.Agg), Fragments: []*query.FragmentPlan{fp}, Downstream: []int{-1}}, nil
}

// pairedWindow returns the window of a two-stream statement. Cov and
// top-k pair their two streams window by window, so both must declare the
// same window: planning with only the first would silently drop the
// second, and Shape would still key the statement by both.
func pairedWindow(st *Statement) (stream.WindowSpec, error) {
	a, b := st.From[0].Window, st.From[1].Window
	if a != b {
		return a, fmt.Errorf("cql: %s pairs its streams window by window, but %s%s and %s%s differ",
			st.Agg, st.From[0].Name, renderWindow(a), st.From[1].Name, renderWindow(b))
	}
	return a, nil
}

// planCov handles Cov(a.x, b.y) over two single-source streams. The
// fragments form a chain merging partial covariance states: each fragment
// pairs its own copy of the two streams into a partial, merges it with
// the partial of the fragment upstream of it, and the root (fragment 0)
// finalizes the merged state.
func planCov(st *Statement, cat *Catalog, fragments int) (*query.Plan, error) {
	if len(st.From) != 2 || len(st.Args) != 2 {
		return nil, fmt.Errorf("cql: cov expects two arguments over two streams")
	}
	win, err := pairedWindow(st)
	if err != nil {
		return nil, err
	}
	defs := make([]StreamDef, 2)
	fields := make([]int, 2)
	for i := 0; i < 2; i++ {
		d, ok := cat.Lookup(st.From[i].Name)
		if !ok {
			return nil, fmt.Errorf("cql: unknown stream %q", st.From[i].Name)
		}
		if d.NumSources != 1 {
			return nil, fmt.Errorf("cql: cov inputs must be single-source streams")
		}
		defs[i] = d
		f, err := resolveField(st.Args[i], d)
		if err != nil {
			return nil, err
		}
		fields[i] = f
	}
	plans := make([]*query.FragmentPlan, fragments)
	for f := 0; f < fragments; f++ {
		root := f == 0
		fp := &query.FragmentPlan{Entries: map[int]query.Entry{}, UpstreamPort: -1}
		// ops: 0,1 receivers → 2 partial-cov → 3 cov-merge [root: → 4 finalize → 5 output]
		fp.Ops = append(fp.Ops,
			query.OpSpec{Name: "receive", New: func() operator.Operator { return operator.NewReceive() }, Outs: []query.Edge{{To: 2, Port: 0}}},
			query.OpSpec{Name: "receive", New: func() operator.Operator { return operator.NewReceive() }, Outs: []query.Edge{{To: 2, Port: 1}}},
			query.OpSpec{Name: "partial-cov", New: func() operator.Operator { return operator.NewPartialCov(win, fields[0], fields[1]) }, Outs: []query.Edge{{To: 3}}},
		)
		fp.Entries[0] = query.Entry{Op: 0}
		fp.Entries[1] = query.Entry{Op: 1}
		fp.Sources = append(fp.Sources,
			query.SourceSpec{Port: 0, Arity: defs[0].Schema.Arity(), NewGen: defs[0].NewGen},
			query.SourceSpec{Port: 1, Arity: defs[1].Schema.Arity(), NewGen: defs[1].NewGen},
		)
		if root {
			fp.Ops = append(fp.Ops,
				query.OpSpec{Name: "cov-merge", New: func() operator.Operator { return operator.NewCovMerge(win) }, Outs: []query.Edge{{To: 4}}},
				query.OpSpec{Name: "cov-finalize", New: func() operator.Operator { return operator.NewCovFinalize() }, Outs: []query.Edge{{To: 5}}},
				query.OpSpec{Name: "output", New: func() operator.Operator { return operator.NewOutput() }},
			)
			fp.OutOp = 5
		} else {
			fp.Ops = append(fp.Ops,
				query.OpSpec{Name: "cov-merge", New: func() operator.Operator { return operator.NewCovMerge(win) }},
			)
			fp.OutOp = 3
		}
		if fragments > 1 {
			// Upstream partial states from the next chain fragment feed the
			// merge.
			fp.Entries[2] = query.Entry{Op: 3}
			fp.UpstreamPort = 2
		}
		plans[f] = fp
	}
	return &query.Plan{Type: "COV", Fragments: plans, Downstream: query.ChainDownstream(fragments)}, nil
}

// planTopK handles the TOP-5 shape: TopK(stream.key) over two streams
// with an equi-join on key and optional filters; ids are ranked by the
// per-key average of the key stream's value field. The fragments form a
// chain: each merges its local top-k candidates with those of the
// fragment upstream of it, and the root (fragment 0) emits the final
// ranking.
func planTopK(st *Statement, cat *Catalog, fragments int) (*query.Plan, error) {
	if len(st.Args) != 1 {
		return nil, fmt.Errorf("cql: top-k expects one key argument")
	}
	if len(st.From) != 2 {
		return nil, fmt.Errorf("cql: top-k expects two input streams (value and predicate streams)")
	}
	win, err := pairedWindow(st)
	if err != nil {
		return nil, err
	}
	var join *Cond
	var filters []Cond
	for i := range st.Where {
		c := st.Where[i]
		if c.IsJoin {
			if join != nil {
				return nil, fmt.Errorf("cql: multiple join conditions unsupported")
			}
			join = &c
		} else {
			filters = append(filters, c)
		}
	}
	if join == nil {
		return nil, fmt.Errorf("cql: top-k over two streams requires a join condition")
	}

	// Identify the key (ranking) stream as the stream of the top-k
	// argument; the other stream is the predicate side.
	keyName := st.Args[0].Stream
	var keyIdx int
	switch {
	case strings.EqualFold(st.From[0].Name, keyName):
		keyIdx = 0
	case strings.EqualFold(st.From[1].Name, keyName):
		keyIdx = 1
	default:
		return nil, fmt.Errorf("cql: top-k argument %s names no FROM stream", st.Args[0])
	}
	otherIdx := 1 - keyIdx

	defs := make([]StreamDef, 2)
	for i := 0; i < 2; i++ {
		d, ok := cat.Lookup(st.From[i].Name)
		if !ok {
			return nil, fmt.Errorf("cql: unknown stream %q", st.From[i].Name)
		}
		defs[i] = d
	}
	if defs[keyIdx].NumSources != defs[otherIdx].NumSources {
		return nil, fmt.Errorf("cql: top-k streams must have matching source counts")
	}

	keyField, err := resolveField(st.Args[0], defs[keyIdx])
	if err != nil {
		return nil, err
	}
	// Join keys per side.
	resolveSide := func(ref FieldRef) (int, int, error) {
		for i := 0; i < 2; i++ {
			if strings.EqualFold(ref.Stream, defs[i].Name) {
				f, err := resolveField(ref, defs[i])
				return i, f, err
			}
		}
		return 0, 0, fmt.Errorf("cql: %s names no FROM stream", ref)
	}
	ls, lf, err := resolveSide(join.Left)
	if err != nil {
		return nil, err
	}
	rs, rf, err := resolveSide(join.Right)
	if err != nil {
		return nil, err
	}
	if ls == rs {
		return nil, fmt.Errorf("cql: join condition must span both streams")
	}
	joinField := [2]int{}
	joinField[ls] = lf
	joinField[rs] = rf

	// Ranking value: the first non-key field of the key stream.
	valField := -1
	for i := 0; i < defs[keyIdx].Schema.Arity(); i++ {
		if i != keyField {
			valField = i
			break
		}
	}
	if valField < 0 {
		return nil, fmt.Errorf("cql: key stream %s has no value field to rank by", defs[keyIdx].Name)
	}

	// Per-side filters.
	sidePred := [2]operator.Predicate{}
	for _, c := range filters {
		s, f, err := resolveSide(c.Left)
		if err != nil {
			return nil, err
		}
		p, err := predFromCond(c, f)
		if err != nil {
			return nil, err
		}
		if sidePred[s] != nil {
			prev := sidePred[s]
			sidePred[s] = func(t *stream.Tuple) bool { return prev(t) && p(t) }
		} else {
			sidePred[s] = p
		}
	}

	n := defs[0].NumSources
	plans := make([]*query.FragmentPlan, fragments)
	for frag := 0; frag < fragments; frag++ {
		plans[frag] = topKFragment(st, defs, keyIdx, otherIdx, keyField, valField,
			joinField, sidePred, win, n, frag, fragments > 1)
	}
	return &query.Plan{Type: fmt.Sprintf("TOP-%d", st.K), Fragments: plans, Downstream: query.ChainDownstream(fragments)}, nil
}

// topKFragment builds one fragment of the top-k plan. chained maps the
// chain's candidate port (2n) into the top-k operator so upstream
// fragments' candidates merge with the local ones.
func topKFragment(st *Statement, defs []StreamDef, keyIdx, otherIdx, keyField, valField int,
	joinField [2]int, sidePred [2]operator.Predicate, win stream.WindowSpec, n, fragIdx int, chained bool) *query.FragmentPlan {
	fp := &query.FragmentPlan{Entries: map[int]query.Entry{}, UpstreamPort: -1}
	// Receivers: key-side sources on ports 0..n-1, other side n..2n-1.
	var (
		unionKey   = 2 * n
		unionOther = 2*n + 1
		next       = 2*n + 2
	)
	// hostIdx pins the generator identity per stream position rather than
	// taking the deployer's query-global source index: the key and
	// predicate streams must see the SAME host ids position for position
	// (CPU source i and mem source i both report host i) or the equi-join
	// never matches. Distinct fragments monitor distinct host ranges.
	addRecv := func(port, unionOp, unionPort, hostIdx int, def StreamDef) {
		op := len(fp.Ops)
		fp.Ops = append(fp.Ops, query.OpSpec{
			Name: "receive",
			New:  func() operator.Operator { return operator.NewReceive() },
			Outs: []query.Edge{{To: unionOp, Port: unionPort}},
		})
		fp.Entries[port] = query.Entry{Op: op}
		gen := def.NewGen
		fp.Sources = append(fp.Sources, query.SourceSpec{
			Port: port, Arity: def.Schema.Arity(),
			NewGen: func(rng *rand.Rand, _ int) sources.ValueGen { return gen(rng, hostIdx) },
		})
	}
	for i := 0; i < n; i++ {
		addRecv(i, unionKey, i, fragIdx*n+i, defs[keyIdx])
	}
	for i := 0; i < n; i++ {
		addRecv(n+i, unionOther, i, fragIdx*n+i, defs[otherIdx])
	}
	fp.Ops = append(fp.Ops,
		query.OpSpec{Name: "union", New: func() operator.Operator { return operator.NewUnion(n) }},
		query.OpSpec{Name: "union", New: func() operator.Operator { return operator.NewUnion(n) }},
	)
	// Optional filters feed into per-side group averages.
	keyChain := unionKey
	otherChain := unionOther
	if sidePred[keyIdx] != nil {
		fp.Ops[unionKey].Outs = []query.Edge{{To: next}}
		p := sidePred[keyIdx]
		fp.Ops = append(fp.Ops, query.OpSpec{Name: "filter", New: func() operator.Operator { return operator.NewFilter(p) }})
		keyChain = next
		next++
	}
	if sidePred[otherIdx] != nil {
		fp.Ops[unionOther].Outs = []query.Edge{{To: next}}
		p := sidePred[otherIdx]
		fp.Ops = append(fp.Ops, query.OpSpec{Name: "filter", New: func() operator.Operator { return operator.NewFilter(p) }})
		otherChain = next
		next++
	}
	gavgKey := next
	gavgOther := next + 1
	joinOp := next + 2
	topkOp := next + 3
	outOp := next + 4
	fp.Ops[keyChain].Outs = []query.Edge{{To: gavgKey}}
	fp.Ops[otherChain].Outs = []query.Edge{{To: gavgOther}}
	// For the Table 1 shape the top-k key and the join key of the key
	// stream coincide (both are the node id); the group-by therefore uses
	// the top-k key and the join consumes the grouped output.
	kf, vf := keyField, valField
	jfOther := joinField[otherIdx]
	otherVal := -1
	for i := 0; i < defs[otherIdx].Schema.Arity(); i++ {
		if i != jfOther {
			otherVal = i
			break
		}
	}
	if otherVal < 0 {
		otherVal = 0
	}
	fp.Ops = append(fp.Ops,
		query.OpSpec{Name: "group-avg", New: func() operator.Operator { return operator.NewGroupAgg(operator.AggAvg, win, kf, vf) }, Outs: []query.Edge{{To: joinOp, Port: 0}}},
		query.OpSpec{Name: "group-avg", New: func() operator.Operator { return operator.NewGroupAgg(operator.AggAvg, win, jfOther, otherVal) }, Outs: []query.Edge{{To: joinOp, Port: 1}}},
		// Group-avg emits (key, value) on both sides, so both join keys
		// are field 0 of their respective inputs.
		query.OpSpec{Name: "join", New: func() operator.Operator { return operator.NewJoin(win, 0, 0) }, Outs: []query.Edge{{To: topkOp}}},
		query.OpSpec{Name: "top-k", New: func() operator.Operator { return operator.NewTopK(st.K, win, 0, 1) }, Outs: []query.Edge{{To: outOp}}},
		query.OpSpec{Name: "output", New: func() operator.Operator { return operator.NewOutput() }},
	)
	fp.OutOp = outOp
	if chained {
		// Upstream candidates (id, value) feed the top-k directly; the
		// first fragment of the chain keeps the port mapped — pushes simply
		// never arrive.
		fp.Entries[2*n] = query.Entry{Op: topkOp}
		fp.UpstreamPort = 2 * n
	}
	return fp
}
