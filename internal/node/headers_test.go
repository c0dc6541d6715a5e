package node

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/operator"
	"repro/internal/query"
	"repro/internal/sic"
	"repro/internal/sources"
	"repro/internal/stream"
)

// Header-first tests: the node enqueues source batches as headers, sheds
// from the headers and generates only the batches it keeps. Nothing a
// query, a coordinator or a counter can observe may depend on that.

// countGen counts the tuples that reach a generator either way.
type countGen struct {
	sources.ValueGen
	filled, skipped int
}

func (g *countGen) FillBatch(t []stream.Tuple) {
	g.filled += len(t)
	g.ValueGen.FillBatch(t)
}

func (g *countGen) Skip(first, last stream.Time, n int) {
	g.skipped += n
	g.ValueGen.Skip(first, last, n)
}

// identityPlan is a fragment that forwards whatever it keeps: a union of
// ports entry ports into the output operator, so a tick's root result is
// the tick's kept tuples verbatim — timestamps, SIC and payloads, in
// push order.
func identityPlan(ports int) *query.FragmentPlan {
	fp := &query.FragmentPlan{
		Ops: []query.OpSpec{
			{Name: "union", New: func() operator.Operator { return operator.NewUnion(ports) }, Outs: []query.Edge{{To: 1}}},
			{Name: "output", New: func() operator.Operator { return operator.NewOutput() }},
		},
		Entries:      map[int]query.Entry{},
		OutOp:        1,
		UpstreamPort: -1,
	}
	for p := 0; p < ports; p++ {
		fp.Entries[p] = query.Entry{Op: 0, Port: p}
	}
	return fp
}

// diffNode hosts three queries on one node: an identity fragment over two
// scalar sources (PlanetLab trace, gaussian) plus a port for derived
// batches, an identity fragment over the two arity-2 trace adapters, and
// a windowed AVG over the mixed dataset. Sources emit 1,200 t/s in 12
// batches/s, bursts on.
func diffNode(shedder core.Shedder, capacityPerSec float64) (*Node, []*countGen) {
	n := New(1, Config{
		Interval:       250 * stream.Millisecond,
		STW:            10 * stream.Second,
		CapacityPerSec: capacityPerSec,
		CostNoise:      0.05,
		Seed:           3,
	}, shedder)
	var gens []*countGen
	nextID := stream.SourceID(0)
	attach := func(q stream.QueryID, port, arity int, gen sources.ValueGen) {
		g := &countGen{ValueGen: gen}
		gens = append(gens, g)
		src := sources.New(nextID, q, 0, port, 1200, 12, arity, g, 100+int64(nextID))
		src.Burst = &sources.BurstConfig{Prob: 0.2, Factor: 3}
		nextID++
		n.attachSource(src)
	}
	rng := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

	n.hostFragment(1, 0, query.NewFragmentExec(identityPlan(3)), 2, -1, -1, "")
	attach(1, 0, 1, sources.NewTrace(rng(11), 0).ScalarGen())
	attach(1, 1, 1, sources.NewValueGen(sources.Gaussian, rng(12)))

	n.hostFragment(2, 0, query.NewFragmentExec(identityPlan(2)), 2, -1, -1, "")
	attach(2, 0, 2, sources.NewTrace(rng(13), 1).CPUGen())
	attach(2, 1, 2, sources.NewTrace(rng(14), 2).MemGen())

	avg := cql.MustPlan(cql.Avg, cql.DefaultCatalog(sources.Mixed), 1)
	n.hostFragment(3, 0, query.NewFragmentExec(avg.Fragments[0]), 1, -1, -1, "")
	attach(3, 0, 1, sources.NewValueGen(sources.Mixed, rng(15)))
	return n, gens
}

// eagerSink is the node's source path before header-first emission,
// kept as the reference: every emitted batch is SIC-stamped tuple by
// tuple, summed, and enqueued fully generated before Select runs.
type eagerSink struct {
	n    *Node
	from stream.Time
}

func (e eagerSink) Accept(src *sources.Source, b *stream.Batch) {
	n := e.n
	est := n.srcByID[src.ID].est
	est.Observe(b.TS, b.Len())
	per := sic.SourceTupleSIC(est.PerSTW(b.TS), n.frags[fragKey{src.Query, src.Frag}].numSources)
	for i := range b.Tuples {
		b.Tuples[i].SIC = per
	}
	b.RecomputeSIC()
	n.Enqueue(b, e.from)
}

// describe renders an outbox exactly (%v prints the shortest decimal that
// round-trips a float64) and releases its batches.
func describe(o *Outbox) string {
	var sb strings.Builder
	for _, b := range o.Results {
		fmt.Fprintf(&sb, "result q%d now %d sic %v: %v\n", b.Query, b.TS, b.SIC, b.Tuples)
		b.Release()
	}
	for _, b := range o.Downstream {
		fmt.Fprintf(&sb, "downstream %v\n", b.Tuples)
		b.Release()
	}
	o.Reset()
	return sb.String()
}

func TestHeaderFirstMatchesEagerReference(t *testing.T) {
	for _, tc := range []struct {
		name     string
		shedder  func() core.Shedder
		capacity float64 // tuples/s; sources offer ~6,000–18,000
		split    bool    // capacity below one batch: splitOversized runs
	}{
		{"balance-sic", func() core.Shedder { return core.NewBalanceSIC(5) }, 2400, false},
		{"random", func() core.Shedder { return core.NewRandom(5) }, 2400, false},
		{"underloaded", func() core.Shedder { return core.NewBalanceSIC(5) }, 1e6, false},
		{"below-one-batch", func() core.Shedder { return core.NewBalanceSIC(5) }, 200, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			subject, gens := diffNode(tc.shedder(), tc.capacity)
			ref, refGens := diffNode(tc.shedder(), tc.capacity)
			refSrcs := ref.srcs
			ref.srcs = nil // the reference emits its sources itself, eagerly

			for tick := 0; tick < 120; tick++ {
				from := stream.Time(tick * 250)
				to := from + 250
				for _, n := range []*Node{subject, ref} {
					for q := stream.QueryID(1); q <= 3; q++ {
						n.SetResultSIC(q, float64((tick*7+int(q)*3)%10)/10)
					}
					// A derived batch ahead of the sources in the buffer.
					d := n.pool.Get(1, 0, -1, from, 40, 1)
					d.Port = 2
					for i := range d.Tuples {
						d.Tuples[i].TS, d.Tuples[i].SIC = from, 1e-4
						d.Tuples[i].V[0] = float64(tick*40 + i)
					}
					d.RecomputeSIC()
					n.Enqueue(d, from)
				}
				for _, a := range refSrcs {
					a.src.Emit(from, to, ref.pool, eagerSink{ref, from})
				}
				subject.TickSpan(from, to)
				ref.TickSpan(from, to)
				got, want := describe(subject.TakeOutbox()), describe(ref.TakeOutbox())
				if got != want {
					t.Fatalf("tick %d: outbox differs\n got: %.400s\nwant: %.400s", tick, got, want)
				}
			}

			gs, ws := subject.Stats(), ref.Stats()
			gs.SelectNanos, ws.SelectNanos = 0, 0
			if gs != ws {
				t.Fatalf("stats differ\n got: %+v\nwant: %+v", gs, ws)
			}
			if tc.capacity < 1e6 && gs.ShedTuples == 0 {
				t.Fatal("nothing was shed")
			}
			if live := subject.pool.Live(); live != 0 {
				t.Fatalf("%d batches live after the run", live)
			}

			// The reference generated everything; the subject generated
			// what it kept and skipped what it shed (everything offered
			// is generated when batches had to be split).
			var filled, skipped, offered int
			for i, g := range gens {
				filled += g.filled
				skipped += g.skipped
				offered += refGens[i].filled
				if g.filled+g.skipped != refGens[i].filled {
					t.Fatalf("generator %d saw %d+%d tuples, reference generated %d", i, g.filled, g.skipped, refGens[i].filled)
				}
			}
			const derived = 120 * 40
			if int64(offered) != gs.ArrivedTuples-derived {
				t.Fatalf("reference generated %d source tuples, %d arrived", offered, gs.ArrivedTuples-derived)
			}
			if tc.split {
				if skipped != 0 {
					t.Fatalf("split run skipped %d tuples; it materialises the buffer first", skipped)
				}
				return
			}
			// Derived batches are kept or shed like any other; bound the
			// source share from both sides.
			if int64(filled) > gs.KeptTuples || int64(filled) < gs.KeptTuples-derived {
				t.Fatalf("generated %d tuples but kept %d (of which up to %d derived)", filled, gs.KeptTuples, derived)
			}
			if int64(skipped) > gs.ShedTuples || int64(skipped) < gs.ShedTuples-derived {
				t.Fatalf("skipped %d tuples but shed %d (of which up to %d derived)", skipped, gs.ShedTuples, derived)
			}
		})
	}
}

// TestShedHeaderCostsNoStorage walks one shedding round by hand: after
// emission the buffer holds headers only, one pool draw each; settling
// trades each kept header for exactly one real batch and leaves each
// shed one as it was — it reaches neither Pool.Get nor FillBatch.
func TestShedHeaderCostsNoStorage(t *testing.T) {
	n, gens := diffNode(core.NewBalanceSIC(1), 2400)
	n.emitSources(0, 250)
	if len(n.ib) < 15 {
		t.Fatalf("%d batches emitted, want 3 per source", len(n.ib))
	}
	offered := 0
	for i, b := range n.ib {
		cnt, _, per := b.Pending()
		if cnt == 0 || b.Tuples != nil || b.Len() != cnt {
			t.Fatalf("buffer entry %d is not a header: pending %d, len %d, tuples %v", i, cnt, b.Len(), b.Tuples != nil)
		}
		sum := 0.0
		for j := 0; j < cnt; j++ {
			sum += per
		}
		if b.SIC != sum || b.SIC <= 0 {
			t.Fatalf("header %d SIC %v, want the sum of %d × %v = %v", i, b.SIC, cnt, per, sum)
		}
		offered += cnt
	}
	if n.ibTuples != offered || n.Stats().ArrivedTuples != int64(offered) {
		t.Fatalf("buffer accounts %d tuples, stats %d, headers stand for %d", n.ibTuples, n.Stats().ArrivedTuples, offered)
	}
	if live := n.pool.Live(); live != int64(len(n.ib)) {
		t.Fatalf("%d draws live for %d headers", live, len(n.ib))
	}

	mark := make([]bool, len(n.ib))
	kept := 0
	for i := range mark {
		if mark[i] = i%3 == 1; mark[i] {
			kept += n.ib[i].Len()
		}
	}
	n.settle(0, len(n.ib), mark)
	if live := n.pool.Live(); live != int64(len(n.ib)) {
		t.Fatalf("%d draws live after settling %d headers: a kept header is one batch, a shed one stays a header", live, len(n.ib))
	}
	for i, b := range n.ib {
		if cnt, _, _ := b.Pending(); mark[i] == (cnt > 0) || mark[i] == (b.Tuples == nil) {
			t.Fatalf("entry %d: kept=%v but pending %d, tuples %v", i, mark[i], cnt, b.Tuples != nil)
		}
		if mark[i] {
			want := b.SIC
			if b.RecomputeSIC(); b.SIC != want {
				t.Fatalf("entry %d: header SIC %v, tuples sum to %v", i, want, b.SIC)
			}
		}
	}
	filled, skipped := 0, 0
	for _, g := range gens {
		filled += g.filled
		skipped += g.skipped
	}
	if filled != kept || skipped != offered-kept {
		t.Fatalf("generated %d and skipped %d tuples, want %d and %d", filled, skipped, kept, offered-kept)
	}
	n.ReleaseBuffers()
	if live := n.pool.Live(); live != 0 {
		t.Fatalf("%d batches live after ReleaseBuffers", live)
	}
}

// TestMemoisedHeaderSICMatchesMaterialisedBatch: a header's SIC comes out
// of the per-source memo, and a kept batch inherits it unchecked, so it
// must be the very sum RecomputeSIC finds over the tuples Fill then
// writes — while (N, per) wanders: rates that change mid-run, bursts,
// spans of uneven length (another number of batches per tick), and
// sources removed and attached again under the same id.
func TestMemoisedHeaderSICMatchesMaterialisedBatch(t *testing.T) {
	n, _ := diffNode(core.NewBalanceSIC(1), 1e9)
	rng := rand.New(rand.NewSource(9))
	var hits, misses, headers, reattached int
	from := stream.Time(0)
	for tick := 0; tick < 1500; tick++ {
		switch rng.Intn(50) {
		case 0: // a rate change
			a := n.srcs[rng.Intn(len(n.srcs))]
			a.src.Rate = float64(200 + rng.Intn(3000))
		case 1: // query 2 leaves and comes back, same source ids
			n.RemoveFragment(2, 0)
			n.hostFragment(2, 0, query.NewFragmentExec(identityPlan(2)), 2, -1, -1, "")
			for i, gen := range []sources.ValueGen{sources.NewTrace(rng, 1).CPUGen(), sources.NewTrace(rng, 2).MemGen()} {
				n.attachSource(sources.New(stream.SourceID(2+i), 2, 0, i, 1200, 12, 2, gen, rng.Int63()))
			}
			reattached++
		}
		to := from + 250
		if rng.Intn(10) == 0 {
			to = from + stream.Time(40+rng.Intn(600))
		}
		memo := map[*attached][]headerSum{}
		for _, a := range n.srcs {
			memo[a] = append([]headerSum(nil), a.sums...)
		}
		n.emitSources(from, to)
		nth := map[stream.SourceID]int{} // headers are buffered in plan order
		for _, h := range n.ib {
			cnt, _, per := h.Pending()
			a, i := n.srcByID[h.Source], nth[h.Source]
			nth[h.Source]++
			if was := memo[a]; i < len(was) && was[i].n == cnt && was[i].per == per {
				hits++
			} else {
				misses++
			}
		}
		n.settle(0, len(n.ib), nil)
		for i, b := range n.ib {
			want := b.SIC
			if b.RecomputeSIC(); b.SIC != want || want <= 0 {
				t.Fatalf("tick %d batch %d (source %d, %d tuples): header SIC %v, tuples sum to %v", tick, i, b.Source, b.Len(), want, b.SIC)
			}
			headers++
		}
		n.ReleaseBuffers()
		from = to
	}
	if hits == 0 || misses == 0 || reattached == 0 {
		t.Fatalf("%d memo hits, %d misses, %d re-attachments: the schedule missed a path", hits, misses, reattached)
	}
	t.Logf("%d headers: %d out of the memo, %d summed", headers, hits, misses)
}

// TestHeadersInFlightDrainOnTeardown removes fragments and drops the
// buffer while it holds unsettled headers.
func TestHeadersInFlightDrainOnTeardown(t *testing.T) {
	n, _ := diffNode(core.NewBalanceSIC(1), 2400)
	n.emitSources(0, 250)
	before := len(n.ib)
	n.RemoveFragment(2, 0)
	if len(n.ib) >= before || n.pool.Live() != int64(len(n.ib)) {
		t.Fatalf("after RemoveFragment: %d of %d headers buffered, %d live", len(n.ib), before, n.pool.Live())
	}
	for _, b := range n.ib {
		if b.Query == 2 {
			t.Fatal("removed fragment's header still buffered")
		}
	}
	n.settle(0, len(n.ib), nil) // the survivors still find their sources
	n.RemoveQuery(1, nil)
	n.RemoveQuery(3, nil)
	if live := n.pool.Live(); live != 0 || len(n.ib) != 0 {
		t.Fatalf("%d live, %d buffered after removing every query", live, len(n.ib))
	}

	n, _ = diffNode(core.NewBalanceSIC(1), 2400)
	n.emitSources(0, 250)
	n.ReleaseBuffers()
	if live := n.pool.Live(); live != 0 {
		t.Fatalf("%d headers live after ReleaseBuffers", live)
	}
	n.Tick(250) // and the node carries on
	if n.Stats().KeptTuples == 0 {
		t.Fatal("node kept nothing after dropping its buffer")
	}
}

// BenchmarkNodeTickOverloaded is the layer benchmark behind the
// overload_24x48 workload: one node hosting four MIX-shaped fragments
// (AVG-all, TOP-5, COV, AVG-all; PlanetLab; 1,200 t/s per source in 12
// batches/s) at a capacity of 4,000 tuples per 250 ms tick, which sheds
// about 72% of what the sources offer.
func BenchmarkNodeTickOverloaded(b *testing.B) { benchNodeTick(b, 16000) }

// BenchmarkNodeTickKeepAll is the same node at a capacity it never
// reaches, the underload_24x48 workload's keep-all path: every batch is
// settled, pushed and, where its fragment consumes it on push, recycled
// before the next one is drawn.
func BenchmarkNodeTickKeepAll(b *testing.B) { benchNodeTick(b, 1e9) }

// benchNodeTick measures steady-state ticks of the four-fragment MIX node
// at the given capacity.
func benchNodeTick(b *testing.B, capacityPerSec float64) {
	n := New(0, Config{
		Interval:       250 * stream.Millisecond,
		STW:            10 * stream.Second,
		CapacityPerSec: capacityPerSec,
		CostNoise:      0.05,
		Seed:           1,
	}, core.NewBalanceSIC(1))
	seeds := rand.New(rand.NewSource(1))
	sid := stream.SourceID(0)
	for q := 0; q < 4; q++ {
		fp := mixedPlan(q, 1, sources.PlanetLab).Fragments[0]
		n.hostFragment(stream.QueryID(q), 0, query.NewFragmentExec(fp), len(fp.Sources), -1, -1, "")
		for i, ss := range fp.Sources {
			gen := ss.NewGen(rand.New(rand.NewSource(seeds.Int63())), i)
			n.attachSource(sources.New(sid, stream.QueryID(q), 0, ss.Port, 1200, 12, ss.Arity, gen, seeds.Int63()))
			sid++
		}
	}
	tick := 0
	step := func() {
		n.Tick(stream.Time(tick * 250))
		tick++
		o := n.TakeOutbox()
		for q := stream.QueryID(0); q < 4; q++ {
			n.SetResultSIC(q, float64(tick%10)/10)
		}
		for _, b := range o.Results {
			b.Release()
		}
		o.Reset()
	}
	for tick < 80 { // two STWs: pool, windows and rate estimators settle
		step()
	}
	start := n.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	end := n.Stats()
	arrived := end.ArrivedTuples - start.ArrivedTuples
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(arrived), "ns/offered-tuple")
	b.ReportMetric(float64(end.ShedTuples-start.ShedTuples)/float64(arrived), "shed-frac")
}

// mixedPlan plans the i-th query of the complex workload, which cycles
// AVG-all, TOP-5 and COV, over k fragments.
func mixedPlan(i, k int, d sources.Dataset) *query.Plan {
	return cql.MustPlan([...]string{cql.AvgAll, cql.Top5, cql.Cov}[i%3], cql.DefaultCatalog(d), k)
}
