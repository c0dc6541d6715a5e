package query_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cql"
	"repro/internal/operator"
	"repro/internal/query"
	"repro/internal/sources"
	"repro/internal/stream"
)

// refExec is a fragment executor without entry resolution: every push
// lands on the entry operator the plan names, and forwarders hand their
// input on when they tick. It is the reference FragmentExec must match.
type refExec struct {
	plan  *query.FragmentPlan
	ops   []operator.Operator
	emits []func([]stream.Tuple)
	sink  func([]stream.Tuple)
}

func newRefExec(p *query.FragmentPlan) *refExec {
	e := &refExec{plan: p, ops: make([]operator.Operator, len(p.Ops))}
	for i, spec := range p.Ops {
		e.ops[i] = spec.New()
	}
	e.emits = make([]func([]stream.Tuple), len(e.ops))
	for i := range e.ops {
		outs, isOut := p.Ops[i].Outs, i == p.OutOp
		e.emits[i] = func(batch []stream.Tuple) {
			if len(batch) == 0 {
				return
			}
			if isOut {
				e.sink(batch)
				return
			}
			for _, edge := range outs {
				e.ops[edge.To].Push(edge.Port, batch)
			}
		}
	}
	return e
}

func (e *refExec) Push(port int, in []stream.Tuple) {
	if ent, ok := e.plan.Entries[port]; ok {
		e.ops[ent.Op].Push(ent.Port, in)
	}
}

func (e *refExec) Tick(now stream.Time, sink func([]stream.Tuple)) {
	e.sink = sink
	for i, op := range e.ops {
		op.Tick(now, e.emits[i])
	}
}

// clobber overwrites a pushed batch the way a recycled pool batch is
// overwritten by its next owner.
func clobber(in []stream.Tuple) {
	for i := range in {
		in[i].TS, in[i].SIC = -1, math.NaN()
		for j := range in[i].V {
			in[i].V[j] = math.NaN()
		}
	}
}

// deepCopy copies tuples and payloads.
func deepCopy(in []stream.Tuple) []stream.Tuple {
	out := make([]stream.Tuple, len(in))
	for i, t := range in {
		t.V = append([]float64(nil), t.V...)
		out[i] = t
	}
	return out
}

// sameBits compares two emissions bit for bit.
func sameBits(a, b []stream.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].TS != b[i].TS || math.Float64bits(a[i].SIC) != math.Float64bits(b[i].SIC) || len(a[i].V) != len(b[i].V) {
			return false
		}
		for j := range a[i].V {
			if math.Float64bits(a[i].V[j]) != math.Float64bits(b[i].V[j]) {
				return false
			}
		}
	}
	return true
}

// TestResolvedEntriesMatchForwarding runs every fragment of the plans the
// CQL planner builds for the benchmark and figure shapes twice, tick by
// tick: on a FragmentExec, which pushes a resolved entry straight to the
// operator behind its forwarders, and on refExec, which pushes every
// entry operator and forwards at Tick. Each tick's emissions must be the
// same bits.
//
// The input is fed as a node's input buffer holds it under an ascending
// keep order: first the upstream fragments' partials that arrived since
// the last tick (Enqueue runs between ticks), then the local sources'
// batches grouped by source, sources in port order, each source's batches
// in time order — the order emitSources appends them in. Port p of these
// plans enters a Receive with a lower operator index than port p+1's, so
// the old Receive-by-Receive forwarding at Tick delivered the same
// sequence to the operator behind the Union as pushing straight to it in
// buffer order does. Every source gets its own per-tick SIC, so a
// reordered fold shows in the emitted SIC bits.
//
// A push FragmentExec reports as consumed is clobbered at once, as the
// node's next pool draw would overwrite it; any other push stays intact
// until the tick ends.
func TestResolvedEntriesMatchForwarding(t *testing.T) {
	shapes := []struct {
		cql   string
		frags int
	}{
		{cql.Avg, 1}, {cql.Max, 1}, {cql.Count, 1},
		{cql.AvgAll, 1}, {cql.AvgAll, 3},
		{"Select Max(t.v) From AllSrc[Range 1 sec]", 3},
		{"Select Count(t.v) From AllSrc[Range 1 sec]", 3},
		{"Select Avg(t.v) From AllSrc[Range 1 sec] Having t.v >= 50", 2},
		{cql.Top5, 1}, {cql.Top5, 3},
		{cql.Cov, 1}, {cql.Cov, 3},
		// The one-fragment monitors of the sharing benchmark.
		{"Select Avg(t.v) From Src [Range 2 sec Slide 500 ms]", 1},
		{"Select Count(t.v) From Src [Range 2 sec Slide 500 ms]", 1},
		{"Select Max(t.v) From Src [Range 1 sec]", 1},
		{"Select Avg(t.v) From Src [Rows 200]", 1},
	}
	for _, sh := range shapes {
		t.Run(fmt.Sprintf("%s/%d", sh.cql, sh.frags), func(t *testing.T) {
			checkResolvedPlan(t, cql.MustPlan(sh.cql, cql.DefaultCatalog(sources.PlanetLab), sh.frags))
		})
	}
}

func checkResolvedPlan(t *testing.T, p *query.Plan) {
	const ticks = 24
	rng := rand.New(rand.NewSource(5))
	nf := p.NumFragments()
	execs := make([]*query.FragmentExec, nf)
	refs := make([]*refExec, nf)
	gens := make([][]sources.ValueGen, nf)
	for f, fp := range p.Fragments {
		execs[f], refs[f] = query.NewFragmentExec(fp), newRefExec(fp)
		off := p.SourceIndexOffset(f)
		for i, ss := range fp.Sources {
			gens[f] = append(gens[f], ss.NewGen(rand.New(rand.NewSource(rng.Int63())), off+i))
		}
	}
	inbox := make([][][]stream.Tuple, nf) // partials delivered next tick
	consumed, emitted := 0, 0
	for tick := 0; tick < ticks; tick++ {
		from := stream.Time(tick * 250)
		next := make([][][]stream.Tuple, nf)
		for f, fp := range p.Fragments {
			var held [][]stream.Tuple // pushes borrowed until the tick ends
			push := func(port int, in []stream.Tuple) {
				refs[f].Push(port, deepCopy(in))
				mine := deepCopy(in)
				if execs[f].Push(port, mine) {
					consumed++
					clobber(mine)
				} else {
					held = append(held, mine)
				}
			}
			for _, in := range inbox[f] {
				push(fp.UpstreamPort, in)
			}
			for i, ss := range fp.Sources {
				sicPer := 0.001 * (1 + rng.Float64())
				for j := 0; j < 3; j++ {
					n := 1 + rng.Intn(12)
					b := stream.NewBatch(0, stream.FragID(f), 0, from, n, ss.Arity)
					b0 := from + stream.Time(j*250/3)
					for k := range b.Tuples {
						b.Tuples[k].TS = b0 + stream.Time(k*(250/3)/n)
						b.Tuples[k].SIC = sicPer
					}
					gens[f][i].FillBatch(b.Tuples)
					push(ss.Port, b.Tuples)
				}
			}
			now := from + 250
			var got, want [][]stream.Tuple
			execs[f].Tick(now, func(out []stream.Tuple) { got = append(got, deepCopy(out)) })
			refs[f].Tick(now, func(out []stream.Tuple) { want = append(want, deepCopy(out)) })
			if len(got) != len(want) {
				t.Fatalf("tick %d fragment %d: %d emissions, reference %d", tick, f, len(got), len(want))
			}
			for k := range got {
				if !sameBits(got[k], want[k]) {
					t.Fatalf("tick %d fragment %d emission %d:\n got %v\nwant %v", tick, f, k, got[k], want[k])
				}
				emitted += len(got[k])
			}
			for _, h := range held {
				clobber(h) // the tick is over: the node recycles it now
			}
			if d := p.Downstream[f]; d >= 0 {
				next[d] = append(next[d], want...)
			}
		}
		inbox = next
	}
	if consumed == 0 || emitted == 0 {
		t.Fatalf("%d pushes consumed, %d tuples emitted: the comparison saw nothing", consumed, emitted)
	}
}
