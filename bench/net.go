package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/transport"
)

const (
	// During the measured phase of a net workload a sampler reads the
	// process's CPU time and times the reference kernel every
	// samplePeriod. Throughput is taken over every window of
	// pointsPerWindow periods: one second, the period of the workloads'
	// windows, so that every window holds the same work.
	samplePeriod    = 100 * time.Millisecond
	pointsPerWindow = 10
	// sicTolerance is the repository's own differential tolerance between
	// a networked run and the engine on the same configuration.
	sicTolerance = 0.15
)

// netRig is one loopback federation: servers, controller and the ids of
// the initial queries.
type netRig struct {
	servers []*transport.NodeServer
	ctrl    *transport.Controller
	base    []stream.QueryID
	// submitMs are the latencies of the initial Submit calls.
	submitMs []float64
}

// buildNet starts the servers, connects the controller and submits every
// initial query, counting each Submit as an operation.
func buildNet(w *workload, seed int64, r *result, tr *tracer, parent int) (rig *netRig, err error) {
	rig = &netRig{}
	defer func() {
		if err != nil {
			rig.close()
		}
	}()
	var addrs []string
	for i := 0; i < w.Nodes+w.Spares; i++ {
		sp := tr.begin(parent, "NewNodeServer", "transport")
		srv, err := transport.NewNodeServer(transport.NodeServerConfig{
			Name: fmt.Sprintf("n%d", i), Addr: "127.0.0.1:0", CapacityPerSec: w.Capacity,
			Policy: "balance-sic", Seed: seed*1000 + int64(i) + 1, Quiet: true,
		})
		tr.end(sp)
		if err != nil {
			return rig, fmt.Errorf("node server %d: %w", i, err)
		}
		rig.servers = append(rig.servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	// A stall of the shared host is not a node failure: the workloads
	// that kill no node do not take two silent seconds for a death
	// (connection errors still count). One run in forty lost a node that
	// way while the host ran its ticks fifteen times slower.
	heartbeat := time.Duration(-1)
	if w.Churn {
		heartbeat = 0 // the controller's default
	}
	sp := tr.begin(parent, "NewController", "transport")
	rig.ctrl, err = transport.NewController(transport.ControllerConfig{
		STW: w.STW, Interval: w.Interval, Seed: seed, Sharing: w.Sharing, Checkpoint: w.Checkpoint,
		HeartbeatTimeout: heartbeat,
	}, addrs)
	tr.end(sp)
	if err != nil {
		return rig, fmt.Errorf("controller: %w", err)
	}
	for _, q := range w.Queries {
		sp := tr.begin(parent, "Submit", "transport")
		t0 := time.Now()
		id, err := rig.ctrl.Submit(q.CQL, q.Fragments, int(q.Dataset), q.Rate, w.BatchesPerSec, q.Placement)
		rig.submitMs = append(rig.submitMs, time.Since(t0).Seconds()*1e3)
		tr.end(sp)
		if r.op(err) != nil {
			return rig, fmt.Errorf("submit %q: %w", q.CQL, err)
		}
		rig.base = append(rig.base, id)
	}
	return rig, nil
}

// close tears the federation down and waits for every server to stop.
func (rig *netRig) close() {
	if rig.ctrl != nil {
		rig.ctrl.CloseAll()
	}
	for _, s := range rig.servers {
		s.Close()
		<-s.Stopped()
	}
}

// cpuPoint is one reading of the sampler: the offset from the start of
// Run, the process's CPU seconds so far without the reference kernel's
// own, and the CPU time the kernel took this time.
type cpuPoint struct {
	at      time.Duration
	cpuS    float64
	kernelS float64
}

// cpuSampler reads the process's CPU time and times the reference kernel
// every samplePeriod through the measured phase of a Run. A traced run's
// CPU profile covers the second half, from point tracedFrom on.
type cpuSampler struct {
	points     []cpuPoint
	tracedFrom int
	profile    bytes.Buffer
	err        error
}

// run samples from offset from to offset to after start.
func (s *cpuSampler) run(start time.Time, from, to time.Duration, trace bool) {
	var spent time.Duration // CPU time inside the reference kernel so far
	for at := from; at <= to; at += samplePeriod {
		time.Sleep(time.Until(start.Add(at)))
		if trace && s.tracedFrom < 0 && at >= (from+to)/2 {
			if s.err = pprof.StartCPUProfile(&s.profile); s.err != nil {
				return
			}
			s.tracedFrom = len(s.points)
		}
		kernel := refKernel()
		spent += kernel
		s.points = append(s.points, cpuPoint{at: time.Since(start), cpuS: (processCPU() - spent).Seconds(), kernelS: kernel.Seconds()})
	}
	if s.tracedFrom >= 0 {
		pprof.StopCPUProfile()
	}
}

// windowThroughput returns, for every window of pointsPerWindow sample
// periods, the offered source tuples per CPU second at reference speed.
func windowThroughput(points []cpuPoint, spans []liveSpan) []float64 {
	var out []float64
	kernels := make([]float64, pointsPerWindow)
	for i := 0; i+pointsPerWindow < len(points); i++ {
		a, b := points[i], points[i+pointsPerWindow]
		for k := range kernels {
			kernels[k] = points[i+1+k].kernelS
		}
		out = append(out, offeredIn(spans, a.at, b.at)/((b.cpuS-a.cpuS)*hostSpeed(median(kernels))))
	}
	return out
}

// liveSpan is the interval over which one query offered tuples, as
// offsets from the start of Run; a zero to means "until the end".
type liveSpan struct {
	from, to time.Duration
	perSec   float64
}

// offeredIn sums the source tuples the spans offered inside [a, b).
func offeredIn(spans []liveSpan, a, b time.Duration) float64 {
	total := 0.0
	for _, s := range spans {
		lo, hi := max(s.from, a), b
		if s.to > 0 {
			hi = min(s.to, b)
		}
		if hi > lo {
			total += s.perSec * (hi - lo).Seconds()
		}
	}
	return total
}

// churnClient is the open-loop control-plane client of net_churn_8x96:
// one Submit every churnEvery and, once churnMaxLive of its queries are
// live, one Retract of the oldest half a period later. Each call is timed
// from the instant it was due, so a stall shows in the calls behind it.
type churnClient struct {
	submitMs, retractMs, lateMs []float64
	spans                       []liveSpan
}

func (c *churnClient) run(ctrl *transport.Controller, w *workload, start time.Time, total time.Duration,
	r *result, tr *tracer, parent int) {
	var perSec [3]float64
	for i := range perSec {
		var err error
		perSec[i], err = offeredPerSec([]querySpec{{CQL: allSrcCQL(i, churnWindow), Fragments: 3, Dataset: w.Queries[0].Dataset, Rate: churnRate}})
		if r.op(err) != nil {
			return
		}
	}
	type liveQuery struct {
		id   stream.QueryID
		span int
	}
	var live []liveQuery
	from := time.Duration(float64(total) * churnFrom)
	to := time.Duration(float64(total) * churnTo)
	// wait sleeps until the offset is due and records how late it woke.
	wait := func(due time.Duration) {
		time.Sleep(time.Until(start.Add(due)))
		c.lateMs = append(c.lateMs, (time.Since(start)-due).Seconds()*1e3)
	}
	for k := 0; ; k++ {
		due := from + time.Duration(k)*churnEvery
		if due >= to {
			return
		}
		wait(due)
		sp := tr.begin(parent, "Submit", "transport")
		id, err := ctrl.Submit(allSrcCQL(k, churnWindow), 3, int(w.Queries[0].Dataset), churnRate, w.BatchesPerSec, nil)
		done := time.Since(start)
		tr.end(sp)
		c.submitMs = append(c.submitMs, (done-due).Seconds()*1e3)
		if r.op(err) == nil {
			c.spans = append(c.spans, liveSpan{from: done, perSec: perSec[k%3]})
			live = append(live, liveQuery{id, len(c.spans) - 1})
		}
		if len(live) <= churnMaxLive {
			continue
		}
		due += churnEvery / 2
		wait(due)
		sp = tr.begin(parent, "Retract", "transport")
		err = ctrl.Retract(live[0].id)
		done = time.Since(start)
		tr.end(sp)
		c.retractMs = append(c.retractMs, (done-due).Seconds()*1e3)
		r.op(err)
		c.spans[live[0].span].to = done
		live = live[1:]
	}
}

// runNet measures one networked workload: an open loop in which every
// node's sources emit by elapsed wall time whether or not its ticks keep
// up, over loopback TCP, on every processor.
func runNet(w *workload, opt options) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	r := newResult(w, opt)
	r.GOMAXPROCS = runtime.NumCPU()
	tr := newTracer(w.Name, opt.Trace)
	basePerSec, err := offeredPerSec(w.Queries)
	if err != nil {
		return nil, err
	}

	// Set-up, several times over; the last federation is the one run.
	var rig *netRig
	var setups []float64
	for setupStart := time.Now(); moreSetups(len(setups), opt.SetupReps, time.Since(setupStart)); {
		if rig != nil {
			rig.close()
		}
		runtime.GC()
		sp := tr.begin(-1, "setup", "bench")
		t0 := time.Now()
		rig, err = buildNet(w, opt.Seed, r, tr, sp)
		setups = append(setups, time.Since(t0).Seconds())
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	defer rig.close()
	r.set("transport.build_ms", median(setups)*1e3)
	r.Samples["transport.build_ms"] = len(setups)

	measured := time.Duration(opt.Seconds * float64(time.Second))
	total := w.Warm + measured

	// Beside Run: the CPU sampler, and for the churn workload the
	// control-plane client and the kill.
	var wg sync.WaitGroup
	sampler := cpuSampler{tracedFrom: -1}
	var churn churnClient
	runSpan := tr.begin(-1, "Run", "transport")
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		sampler.run(start, w.Warm, total, opt.Trace)
	}()
	if w.Churn {
		wg.Add(2)
		go func() {
			defer wg.Done()
			churn.run(rig.ctrl, w, start, total, r, tr, runSpan)
		}()
		go func() {
			defer wg.Done()
			time.Sleep(time.Until(start.Add(time.Duration(float64(total) * churnKillAt))))
			sp := tr.begin(runSpan, "NodeServer.Close (kill)", "transport")
			rig.servers[churnKillIdx].Close()
			tr.end(sp)
		}()
	}
	res, runErr := rig.ctrl.Run(total, w.Warm)
	tr.end(runSpan)
	wg.Wait()
	r.MeasuredS = measured.Seconds()
	if runErr != nil {
		r.Attempted++
		r.Failed++
		return r, fmt.Errorf("Controller.Run: %w", runErr)
	}
	if sampler.err != nil {
		return r, fmt.Errorf("start CPU profile: %w", sampler.err)
	}
	points, tracedFrom := sampler.points, sampler.tracedFrom
	if len(points) <= pointsPerWindow {
		return r, fmt.Errorf("measured phase of %v is shorter than one %v window", measured, pointsPerWindow*samplePeriod)
	}

	spans := append([]liveSpan{{perSec: basePerSec}}, churn.spans...)
	// Set-up ends where measuring begins: building the federation (the
	// median of the repetitions) plus the paced warm-up of this Run.
	r.set("setup_s", r.Metrics["transport.build_ms"]/1e3+points[0].at.Seconds())
	perCPU := windowThroughput(points, spans)
	if tracedFrom > 0 {
		plain, traced := perCPU[:max(0, tracedFrom-pointsPerWindow)], perCPU[min(tracedFrom, len(perCPU)):]
		if len(plain) > 0 && len(traced) > 0 {
			r.set("bench.trace_overhead_frac", 1-median(traced)/median(plain))
		}
	}
	// The median window: a paced run's CPU per second scatters both ways
	// (which ticks and collector cycles a window catches), so unlike the
	// engine's closed loop no tail of it is the undisturbed one.
	r.set("src_tuples_per_cpu_s", median(perCPU))
	r.Samples["src_tuples_per_cpu_s"] = len(perCPU)

	// One stop handshake per node that was alive at the end.
	alive := w.Nodes + w.Spares
	if w.Churn {
		alive--
	}
	r.Attempted += alive
	r.Failed += max(0, alive-len(res.Nodes))

	var c counters
	var ticks, tickNs int64
	residual := int64(0)
	for _, s := range res.Nodes {
		c.ArrivedTuples += s.ArrivedTuples
		c.KeptTuples += s.KeptTuples
		c.ShedTuples += s.ShedTuples
		c.ShedInvocations += s.ShedInvocations
		c.DroppedTuples += s.DroppedTuples
		c.DroppedSIC += s.DroppedSIC
		c.SharedInstances += s.SharedInstances
		c.Subscriptions += s.Subscriptions
		ticks += s.Ticks
		tickNs += s.TickNanos
		// Batches that reached a node after its last tick were counted
		// as arrived and never ticked: at most about one interval's
		// arrivals. Anything beyond that is lost tuples.
		if d := s.ArrivedTuples - s.KeptTuples - s.ShedTuples; d < 0 || d > 2*s.ArrivedTuples/max(1, s.Ticks) {
			c.Unbalanced++
			residual += d
		}
	}
	meanSIC, jain := res.MeanSIC, res.Jain
	if w.Churn {
		// Fairness over the 96 base queries only: the client's queries
		// come and go and many never finish their own warm-up.
		vals := make([]float64, len(rig.base))
		for i, q := range rig.base {
			vals[i] = res.PerQuery[q]
		}
		meanSIC, jain = metrics.Mean(vals), metrics.Jain(vals)
	}
	r.set("mean_sic", meanSIC)
	r.set("jain", jain)
	r.set("live_heap_mb", liveHeapMB())
	expected := float64(len(res.Nodes)) * total.Seconds() / w.Interval.Seconds()
	if expected > 0 {
		r.set("tick_keepup", float64(ticks)/expected)
	}

	// Checks.
	r.check("every_live_node_sent_stats", len(res.Nodes) == alive, "%d frames from %d live nodes", len(res.Nodes), alive)
	r.check("arrived=kept+shed", c.Unbalanced == 0, "%d of %d nodes off by more than two intervals' arrivals (%d tuples)", c.Unbalanced, len(res.Nodes), residual)
	if w.Churn {
		r.check("exactly_one_recovery", len(res.Recoveries) == 1, "%d recoveries", len(res.Recoveries))
	} else {
		// The per-peer send queues are bounded and shed by design when the
		// host stalls a writer, which is the transport working, not a
		// wrong answer: node.dropped_tuples reports it. Beyond 1% the run
		// did not measure the workload it names.
		r.check("dropped_tuples_within_1%", c.DroppedTuples*100 <= c.ArrivedTuples, "dropped %d of %d arrived", c.DroppedTuples, c.ArrivedTuples)
		r.check("no_recoveries", len(res.Recoveries) == 0, "%d recoveries", len(res.Recoveries))
	}

	// Engine replay: the deterministic engine recomputes the answer the
	// networked run maintained, from the same definition.
	var replayNsPerTuple float64
	sicGap := 0.0
	if !w.Churn {
		replay, nsPerTuple, err := replayOnEngine(w, opt.Seed, total, basePerSec, r, tr)
		if err != nil {
			return r, err
		}
		replayNsPerTuple = nsPerTuple
		sicGap = math.Abs(meanSIC - replay)
		r.check("mean_sic_agrees_with_engine_replay", sicGap <= sicTolerance, "net %.4f engine %.4f", meanSIC, replay)
	}

	r.set("failed_ops_frac", float64(r.Failed)/float64(r.Attempted))
	if opt.Trace {
		r.setNodeCounters(c)
		if ticks > 0 {
			r.set("node.tick_ms_mean", float64(tickNs)/float64(ticks)/1e6)
		}
		r.set("transport.stats_frames", float64(len(res.Nodes)))
		submitMs := rig.submitMs
		if w.Churn {
			submitMs = churn.submitMs
			r.set("transport.retract_ms_p50", median(churn.retractMs))
			r.Samples["transport.retract_ms_p50"] = len(churn.retractMs)
			r.set("bench.churn_late_ms_p95", metrics.Percentile(churn.lateMs, 95))
		}
		r.set("transport.submit_ms_p50", median(submitMs))
		r.set("transport.submit_ms_p95", metrics.Percentile(submitMs, 95))
		r.Samples["transport.submit_ms_p50"] = len(submitMs)
		if len(res.Recoveries) > 0 {
			sort.Slice(res.Recoveries, func(i, j int) bool { return res.Recoveries[i].Took > res.Recoveries[j].Took })
			r.set("transport.recovery_ms", res.Recoveries[0].Took.Seconds()*1e3)
			if res.Recoveries[0].Restored {
				r.set("transport.recovery_restored", 1)
			}
		}
		if !w.Churn {
			r.set("transport.sic_gap_vs_engine", sicGap)
			r.set("transport.socket_tax_ns_per_tuple", 1e9/r.Metrics["src_tuples_per_cpu_s"]-replayNsPerTuple)
		}
		if err := r.setCPUShares(sampler.profile.Bytes()); err != nil {
			return r, err
		}
		if err := runProbes(r, opt, tr); err != nil {
			return r, err
		}
		if err := tr.write(opt.OutDir); err != nil {
			return r, err
		}
	}
	runtime.KeepAlive(rig)
	return r, nil
}

// replayOnEngine steps the workload's engine twin over the same virtual
// span on one processor and returns its mean SIC and, over the steps
// after the warm-up, its CPU nanoseconds per offered source tuple at
// reference speed.
func replayOnEngine(w *workload, seed int64, span time.Duration, perSec float64, r *result, tr *tracer) (float64, float64, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sp := tr.begin(-1, "engine replay", "federation")
	defer tr.end(sp)
	e, err := buildEngine(w, seed, r, tr, sp)
	if err != nil {
		return 0, 0, err
	}
	warm := w.warmSteps()
	steps := int(span.Milliseconds()/int64(w.Interval)) - warm
	r.Attempted += warm + steps
	if err = stepN(e, warm); err == nil {
		seconds := calibrated(func() { err = stepN(e, steps) })
		if err == nil {
			offered := perSec * float64(steps) * w.Interval.Seconds()
			return e.Results().MeanSIC, seconds * 1e9 / offered, nil
		}
	}
	r.Failed++
	return 0, 0, err
}
