package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/coordinator"
	"repro/internal/core"
	"repro/internal/cql"
	"repro/internal/query"
	"repro/internal/sic"
	"repro/internal/sources"
	"repro/internal/stream"
)

// Layer probes: each times a fixed number of calls into one public
// function of one layer, on inputs made from the seed and shaped like an
// overload_24x48 node tick (1,200 tuples/s per source in 12 batches/s,
// 250 ms intervals, so 100-tuple batches, three per source per tick).
// Each result lands in a package-level sink so the call is kept.
const (
	probeRate       = 1200.0
	probeBatches    = 12.0
	probeInterval   = 250 * stream.Millisecond
	probeBatchLen   = 100
	probeTicks      = 2000
	probeSelectIB   = 144 // batches in one node's input buffer
	probeSelectCap  = 4000
	probeSelectRuns = 2000
	probePlans      = 2000
	probeSpeedSteps = 200
)

var (
	sinkF   float64
	sinkI   int
	sinkIdx []int
)

type prober struct {
	r      *result
	tr     *tracer
	parent int
	rng    *rand.Rand
	// shrink divides every operation count (see options.Shrink).
	shrink int
}

// n is an operation count at the run's size.
func (p *prober) n(count int) int { return max(1, count/p.shrink) }

// timed runs fn once under a span and returns its wall time in ns.
func (p *prober) timed(name, layer string, fn func()) float64 {
	sp := p.tr.begin(p.parent, name, layer)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	p.tr.end(sp)
	return float64(d.Nanoseconds())
}

// runProbes fills in every probe metric of the traced run.
func runProbes(r *result, opt options, tr *tracer) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	seed := opt.Seed
	p := &prober{r: r, tr: tr, rng: rand.New(rand.NewSource(seed)), shrink: opt.Shrink}
	p.parent = tr.begin(-1, "probes", "bench")
	defer tr.end(p.parent)
	p.sourcesEmit()
	p.poolGetRelease()
	p.windowPushTick()
	if err := p.queryExec(); err != nil {
		return err
	}
	p.selectBatch()
	p.coordinatorReport()
	p.accumulatorAdd()
	if err := p.planCache(); err != nil {
		return err
	}
	if err := p.snapshotRestore(seed); err != nil {
		return err
	}
	return p.stepSpeedup(seed)
}

// releaseSink recycles every batch a source emits and counts its tuples.
type releaseSink struct{ tuples int }

func (s *releaseSink) Accept(_ *sources.Source, b *stream.Batch) {
	s.tuples += b.Len()
	b.Release()
}

func (p *prober) sourcesEmit() {
	pool := stream.NewPool()
	src := sources.New(0, 0, 0, 0, probeRate, probeBatches, 1,
		sources.NewValueGen(sources.PlanetLab, rand.New(rand.NewSource(p.rng.Int63()))), p.rng.Int63())
	var sink releaseSink
	ns := p.timed("Source.Emit", "sources", func() {
		for i := 0; i < p.n(probeTicks); i++ {
			from := stream.Time(i) * stream.Time(probeInterval)
			src.Emit(from, from.Add(probeInterval), pool, &sink)
		}
	})
	sinkI = sink.tuples
	p.r.set("sources.emit_ns_per_tuple", ns/float64(sink.tuples))
}

func (p *prober) poolGetRelease() {
	pool := stream.NewPool()
	n := p.n(probeTicks * 100)
	ns := p.timed("Pool.Get+Release", "stream", func() {
		for i := 0; i < n; i++ {
			b := pool.Get(0, 0, 0, stream.Time(i), probeBatchLen, 1)
			sinkI += b.Len()
			b.Release()
		}
	})
	p.r.set("stream.pool_ns_per_get_release", ns/float64(n))
}

// tupleBatch makes one batch of probeBatchLen tuples spread over span
// starting at ts, values drawn from the probe's generator.
func (p *prober) tupleBatch(ts stream.Time, span stream.Duration, arity int) []stream.Tuple {
	b := stream.NewBatch(0, 0, 0, ts, probeBatchLen, arity)
	for j := range b.Tuples {
		b.Tuples[j].TS = ts + stream.Time(int64(span)*int64(j)/probeBatchLen)
		b.Tuples[j].SIC = 1e-4
		for k := range b.Tuples[j].V {
			b.Tuples[j].V[k] = p.rng.Float64() * 100
		}
	}
	return b.Tuples
}

func (p *prober) windowPushTick() {
	wb := stream.NewWindowBuffer(stream.TumblingTime(stream.Second))
	per := int(probeBatches * probeInterval.Seconds())
	ticks := p.n(probeTicks)
	batches := make([][]stream.Tuple, ticks*per)
	for i := range batches {
		span := probeInterval / stream.Duration(per)
		batches[i] = p.tupleBatch(stream.Time(i)*stream.Time(span), span, 1)
	}
	emitted := 0
	emit := func(win []stream.Tuple, _ stream.Time) { emitted += len(win) }
	ns := p.timed("WindowBuffer.Push+Tick", "stream", func() {
		for i := 0; i < ticks; i++ {
			for _, b := range batches[i*per : (i+1)*per] {
				wb.Push(b)
			}
			wb.Tick(stream.Time(i+1)*stream.Time(probeInterval), emit)
		}
	})
	sinkI = emitted
	p.r.set("stream.window_ns_per_tuple", ns/float64(len(batches)*probeBatchLen))
}

// queryExec pushes one tick's batches into each source port of every MIX
// plan's single fragment and ticks it.
func (p *prober) queryExec() error {
	cat := cql.DefaultCatalog(sources.PlanetLab)
	per := int(probeBatches * probeInterval.Seconds())
	span := probeInterval / stream.Duration(per)
	totalNs, tuples, emitted := 0.0, 0, 0
	sink := func(out []stream.Tuple) { emitted += len(out) }
	for _, text := range mixCQL {
		st, err := cql.Parse(text)
		if err != nil {
			return fmt.Errorf("probe: parse %q: %w", text, err)
		}
		plan, err := cql.PlanDistributed(st, cat, 1)
		if err != nil {
			return fmt.Errorf("probe: plan %q: %w", text, err)
		}
		fp := plan.Fragments[0]
		exec := query.NewFragmentExec(fp)
		ticks := p.n(probeTicks / 10)
		// One tick's input per source, reused with shifted timestamps.
		in := make([][][]stream.Tuple, len(fp.Sources))
		for si, s := range fp.Sources {
			in[si] = make([][]stream.Tuple, per)
			for bi := range in[si] {
				in[si][bi] = p.tupleBatch(stream.Time(bi)*stream.Time(span), span, s.Arity)
			}
		}
		totalNs += p.timed("FragmentExec.Push+Tick "+plan.Type, "query", func() {
			for i := 0; i < ticks; i++ {
				for si, s := range fp.Sources {
					for _, b := range in[si] {
						for j := range b {
							b[j].TS += stream.Time(probeInterval)
						}
						exec.Push(s.Port, b)
						tuples += len(b)
					}
				}
				exec.Tick(stream.Time(i+2)*stream.Time(probeInterval), sink)
			}
		})
	}
	sinkI = emitted
	p.r.set("query.exec_ns_per_tuple", totalNs/float64(tuples))
	return nil
}

// selectBatch times BALANCE-SIC on an input buffer like one overloaded
// node's: four queries, 144 batches of 100 tuples, capacity 4,000 (keeps
// about 28%).
func (p *prober) selectBatch() {
	shed := core.NewBalanceSIC(p.rng.Int63())
	ib := make([]*stream.Batch, probeSelectIB)
	for i := range ib {
		ib[i] = stream.NewBatch(stream.QueryID(i%4), 0, stream.SourceID(i%12), 0, probeBatchLen, 1)
		ib[i].SIC = p.rng.Float64() * 0.01
	}
	known := func(q stream.QueryID) float64 { return 0.2 + 0.05*float64(q) }
	runs := p.n(probeSelectRuns)
	ns := p.timed("BalanceSIC.Select", "core", func() {
		for i := 0; i < runs; i++ {
			sinkIdx = shed.Select(ib, probeSelectCap, known)
		}
	})
	p.r.set("core.select_ns_per_batch", ns/float64(runs*probeSelectIB))
}

func (p *prober) coordinatorReport() {
	c := coordinator.New(0, coordinator.RootMeasured, 10*stream.Second, probeInterval)
	deltas := []float64{0.001, 0.002, -0.0005}
	n := p.n(probeTicks * 50)
	ns := p.timed("Coordinator.ReportAcceptedBatch+Value", "coordinator", func() {
		for i := 0; i < n; i++ {
			t := stream.Time(i) * stream.Time(probeInterval)
			c.ReportAcceptedBatch(t, deltas)
			sinkF += c.Value(t)
		}
	})
	p.r.set("coordinator.report_ns", ns/float64(n))
}

func (p *prober) accumulatorAdd() {
	a := sic.NewAccumulator(10*stream.Second, probeInterval)
	n := p.n(probeTicks * 500)
	ns := p.timed("Accumulator.Add", "sic", func() {
		for i := 0; i < n; i++ {
			a.Add(stream.Time(i/4)*stream.Time(probeInterval), 1e-4)
		}
	})
	sinkF += a.Sum(stream.Time(n/4) * stream.Time(probeInterval))
	p.r.set("sic.accumulator_add_ns", ns/float64(n))
}

// planCache plans distinct shapes (every one a miss) and then one text
// over and over (every one a hit).
func (p *prober) planCache() error {
	pc := cql.NewPlanCache()
	cat := cql.DefaultCatalog(sources.Uniform)
	texts := make([]string, p.n(probePlans))
	for i := range texts {
		texts[i] = fmt.Sprintf("Select Avg(t.v) From Src [Range %d ms Slide %d ms]", 1000+i, 100+i)
	}
	var err error
	plan := func(text string) {
		pl, _, e := pc.PlanDistributed(text, cat, "uniform", 1)
		if e != nil {
			err = e
			return
		}
		sinkI += pl.NumFragments()
	}
	cold := p.timed("PlanCache.PlanDistributed cold", "cql", func() {
		for _, t := range texts {
			plan(t)
		}
	})
	warm := p.timed("PlanCache.PlanDistributed warm", "cql", func() {
		for range texts {
			plan(texts[0])
		}
	})
	if err != nil {
		return fmt.Errorf("probe: plan cache: %w", err)
	}
	p.r.set("cql.plan_cold_us", cold/float64(len(texts))/1e3)
	p.r.set("cql.plan_warm_us", warm/float64(len(texts))/1e3)
	return nil
}

// snapshotRestore snapshots and restores every fragment of a warmed
// underloaded MIX deployment.
func (p *prober) snapshotRestore(seed int64) error {
	w := findWorkload("underload_24x48")
	scratch := newResult(w, options{})
	e, err := buildEngine(w, seed, scratch, nil, -1)
	if err != nil {
		return err
	}
	if err := stepN(e, p.n(w.warmSteps())); err != nil {
		return err
	}
	type saved struct {
		n    stream.NodeID
		q    stream.QueryID
		f    stream.FragID
		data []byte
	}
	var blobs []saved
	var enc stream.SnapEncoder
	bytesTotal := 0
	snapNs := p.timed("Node.StateSnapshot", "node", func() {
		for ni := 0; ni < e.NumNodes(); ni++ {
			nd := e.Node(stream.NodeID(ni))
			nd.ForEachFragment(func(q stream.QueryID, f stream.FragID) {
				enc.Reset()
				if e := nd.StateSnapshot(q, f, &enc); e != nil {
					err = e
					return
				}
				data := append([]byte(nil), enc.Seal()...)
				bytesTotal += len(data)
				blobs = append(blobs, saved{stream.NodeID(ni), q, f, data})
			})
		}
	})
	if err != nil {
		return fmt.Errorf("probe: snapshot: %w", err)
	}
	restoreNs := p.timed("Node.RestoreState", "node", func() {
		for _, b := range blobs {
			if e := e.Node(b.n).RestoreState(b.q, b.f, b.data); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return fmt.Errorf("probe: restore: %w", err)
	}
	n := float64(len(blobs))
	p.r.set("node.snapshot_us_per_fragment", snapNs/n/1e3)
	p.r.set("node.snapshot_bytes_per_fragment", float64(bytesTotal)/n)
	p.r.set("node.restore_us_per_fragment", restoreNs/n/1e3)
	return nil
}

// stepSpeedup answers whether the parallel tick runtime pays: the same
// overloaded steps on every processor against one.
func (p *prober) stepSpeedup(seed int64) error {
	w := findWorkload("overload_24x48")
	steps := p.n(probeSpeedSteps)
	run := func(procs int) (float64, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		e, err := buildEngine(w, seed, newResult(w, options{}), nil, -1)
		if err != nil {
			return 0, err
		}
		if err := stepN(e, p.n(40)); err != nil {
			return 0, err
		}
		var stepErr error
		ns := p.timed(fmt.Sprintf("Step x%d GOMAXPROCS=%d", steps, procs), "parallel", func() {
			stepErr = stepN(e, steps)
		})
		return ns, stepErr
	}
	one, err := run(1)
	if err != nil {
		return err
	}
	all, err := run(runtime.NumCPU())
	if err != nil {
		return err
	}
	p.r.set("parallel.step_speedup", one/all)
	return nil
}
