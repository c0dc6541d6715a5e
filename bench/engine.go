package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/federation"
	"repro/internal/metrics"
	"repro/internal/node"
	"repro/internal/stream"
)

// sicStep is the measured step at which an engine workload reads
// mean_sic, jain and its counters, so that they depend on the seed alone
// and not on how many steps the host fitted into --seconds. A run that
// ends sooner reads them at its end.
const sicStep = 400

// stepsPerGroup is how many steps the engine runs between two timings of
// the reference kernel: two window cycles of the 250 ms / 1 s workloads.
const stepsPerGroup = 8

// engineConfig is the federation.Config of a workload. Net workloads use
// it for their engine replay, so both runtimes see one definition.
func engineConfig(w *workload, seed int64) federation.Config {
	cfg := federation.Defaults()
	cfg.Interval = w.Interval
	cfg.STW = w.STW
	cfg.BatchesPerSec = w.BatchesPerSec
	cfg.Sharing = w.Sharing
	cfg.Checkpoint = stream.Duration(w.Checkpoint.Milliseconds())
	cfg.Warmup = stream.Duration(w.Warm.Milliseconds())
	cfg.Seed = seed
	return cfg
}

// buildEngine makes the engine, its nodes and every initial query, and
// counts each SubmitCQL as an operation.
func buildEngine(w *workload, seed int64, r *result, tr *tracer, parent int) (*federation.Engine, error) {
	sp := tr.begin(parent, "NewEngine", "federation")
	e := federation.NewEngine(engineConfig(w, seed))
	e.AddNodes(w.Nodes+w.Spares, w.Capacity)
	tr.end(sp)
	for _, q := range w.Queries {
		pl := make([]stream.NodeID, len(q.Placement))
		for i, n := range q.Placement {
			pl[i] = stream.NodeID(n)
		}
		sp := tr.begin(parent, "SubmitCQL", "federation")
		_, err := e.SubmitCQL(q.CQL, q.Fragments, int(q.Dataset), q.Rate, pl)
		tr.end(sp)
		if r.op(err) != nil {
			return nil, fmt.Errorf("submit %q: %w", q.CQL, err)
		}
	}
	return e, nil
}

// stepN advances the engine n steps, turning a panic into an error.
func stepN(e *federation.Engine, n int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("Engine.Step panicked: %v", p)
		}
	}()
	for i := 0; i < n; i++ {
		e.Step()
	}
	return nil
}

// counters sums node.Stats and node.StateSize over an engine's nodes.
type counters struct {
	node.Stats
	SharedInstances, Subscriptions int
	// Unbalanced counts nodes where arrived != kept + shed.
	Unbalanced int
}

func engineCounters(e *federation.Engine) counters {
	var c counters
	for i := 0; i < e.NumNodes(); i++ {
		n := e.Node(stream.NodeID(i))
		st, sz := n.Stats(), n.StateSize()
		c.ArrivedTuples += st.ArrivedTuples
		c.KeptTuples += st.KeptTuples
		c.ShedTuples += st.ShedTuples
		c.ShedInvocations += st.ShedInvocations
		c.DroppedTuples += st.DroppedTuples
		c.DroppedSIC += st.DroppedSIC
		c.SelectNanos += st.SelectNanos
		c.SharedInstances += sz.SharedInstances
		c.Subscriptions += sz.Subscriptions
		if st.ArrivedTuples != st.KeptTuples+st.ShedTuples {
			c.Unbalanced++
		}
	}
	return c
}

func (c counters) shedFrac() float64 {
	if c.ArrivedTuples == 0 {
		return 0
	}
	return float64(c.ShedTuples) / float64(c.ArrivedTuples)
}

// setNodeCounters reports the node.* and core.select_calls counts.
func (r *result) setNodeCounters(c counters) {
	r.set("node.arrived_tuples", float64(c.ArrivedTuples))
	r.set("node.kept_tuples", float64(c.KeptTuples))
	r.set("node.shed_tuples", float64(c.ShedTuples))
	r.set("node.shed_frac", c.shedFrac())
	r.set("node.dropped_tuples", float64(c.DroppedTuples))
	r.set("node.dropped_sic", c.DroppedSIC)
	r.set("node.shared_instances", float64(c.SharedInstances))
	r.set("node.subscriptions", float64(c.Subscriptions))
	r.set("core.select_calls", float64(c.ShedInvocations))
}

// runEngine measures one engine workload: a closed loop that calls
// Engine.Step as fast as it returns, on one processor, in virtual time.
func runEngine(w *workload, opt options) (*result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := newResult(w, opt)
	r.GOMAXPROCS = 1
	tr := newTracer(w.Name, opt.Trace)
	offered, err := offeredPerSec(w.Queries)
	if err != nil {
		return nil, err
	}
	tuplesPerStep := offered * w.Interval.Seconds()
	warmSteps := w.warmSteps()

	// Set-up, several times over; the last engine is the one measured.
	var e *federation.Engine
	var setups, submitUs []float64
	for setupStart := time.Now(); moreSetups(len(setups), opt.SetupReps, time.Since(setupStart)); {
		e = nil
		runtime.GC()
		sp := tr.begin(-1, "setup", "bench")
		setups = append(setups, calibrated(func() {
			t0 := time.Now()
			if e, err = buildEngine(w, opt.Seed, r, tr, sp); err != nil {
				return
			}
			submitUs = append(submitUs, time.Since(t0).Seconds()*1e6/float64(len(w.Queries)))
			r.Attempted += warmSteps
			if err = stepN(e, warmSteps); err != nil {
				r.Failed++
			}
		}))
		tr.end(sp)
		if err != nil {
			return r, err
		}
	}
	r.set("setup_s", median(setups))
	r.Samples["setup_s"] = len(setups)
	r.set("federation.submit_us_mean", median(submitUs))

	// Measured phase: groups of stepsPerGroup steps, the reference kernel
	// timed between groups, each group's CPU time scaled by the mean of
	// the two kernel runs around it.
	total := time.Duration(opt.Seconds * float64(time.Second))
	stepMs := make([]float64, 0, 1<<16)
	var groupRate []float64 // steps per CPU second at reference speed, by group
	var stepWall time.Duration
	tracedFrom := -1 // first group of the traced half
	before := engineCounters(e)
	var atSIC *federation.Results
	var atSICCounters counters
	var profile bytes.Buffer
	measure := tr.begin(-1, "measure", "bench")
	err = func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("Engine.Step panicked at measured step %d: %v", len(stepMs), p)
			}
		}()
		start := time.Now()
		kernel := refKernel()
		// A traced run never ends before one group ran traced, however
		// few groups fit into the measured phase.
		for time.Since(start) < total || (opt.Trace && tracedFrom < 0) {
			if opt.Trace && tracedFrom < 0 && time.Since(start) >= total/2 {
				if err := pprof.StartCPUProfile(&profile); err != nil {
					return fmt.Errorf("start CPU profile: %w", err)
				}
				tracedFrom = len(groupRate)
			}
			g0, c0 := time.Now(), processCPU()
			for i := 0; i < stepsPerGroup; i++ {
				sp := -1
				if tracedFrom >= 0 {
					sp = tr.begin(measure, "Step", "federation")
				}
				t0 := time.Now()
				e.Step()
				stepMs = append(stepMs, time.Since(t0).Seconds()*1e3)
				if tracedFrom >= 0 {
					tr.end(sp)
				}
				if len(stepMs) == sicStep {
					atSIC, atSICCounters = e.Results(), engineCounters(e)
				}
			}
			groupCPU := processCPU() - c0
			stepWall += time.Since(g0)
			next := refKernel()
			groupRate = append(groupRate, stepsPerGroup/(groupCPU.Seconds()*hostSpeed(((kernel+next)/2).Seconds())))
			kernel = next
		}
		return nil
	}()
	if tracedFrom >= 0 {
		pprof.StopCPUProfile()
	}
	tr.end(measure)
	r.MeasuredS = stepWall.Seconds()
	r.Attempted += len(stepMs)
	if err != nil {
		r.Attempted++
		r.Failed++
		return r, err
	}
	if atSIC == nil {
		atSIC, atSICCounters = e.Results(), engineCounters(e)
	}
	after := engineCounters(e)
	r.set("src_tuples_per_cpu_s", tuplesPerStep*undisturbedRate(groupRate))
	r.Samples["src_tuples_per_cpu_s"] = len(groupRate)
	r.set("src_tuples_per_s", float64(len(stepMs))*tuplesPerStep/r.MeasuredS)
	if tracedFrom > 0 && tracedFrom < len(groupRate) {
		r.set("bench.trace_overhead_frac", 1-undisturbedRate(groupRate[tracedFrom:])/undisturbedRate(groupRate[:tracedFrom]))
	}
	r.set("mean_sic", atSIC.MeanSIC)
	r.set("jain", atSIC.Jain)
	r.set("live_heap_mb", liveHeapMB())
	r.set("step_ms_p50", median(stepMs))
	r.Samples["step_ms_p50"] = len(stepMs)

	// Checks.
	r.check("arrived=kept+shed", after.Unbalanced == 0, "%d of %d nodes unbalanced", after.Unbalanced, e.NumNodes())
	r.check("no_dropped_tuples", after.DroppedTuples == 0, "dropped %d", after.DroppedTuples)
	if w.Capacity >= 1e9 {
		r.check("no_shedding", after.ShedTuples == 0 && after.ShedInvocations == 0, "shed %d tuples in %d calls", after.ShedTuples, after.ShedInvocations)
		r.check("mean_sic>=0.95", atSIC.MeanSIC >= 0.95, "mean_sic %.4f", atSIC.MeanSIC)
	}
	if w.Sharing == federation.SharingFull {
		sum := after.SharedInstances + after.Subscriptions
		r.check("sharing_accounts_for_every_query", sum == len(w.Queries) && after.SharedInstances <= 4*w.Nodes,
			"%d instances + %d subscriptions for %d queries", after.SharedInstances, after.Subscriptions, len(w.Queries))
	}
	if w.Name == "overload_24x48" {
		if err := checkParallelDeterminism(w, opt, r); err != nil {
			return r, err
		}
	}

	r.set("failed_ops_frac", float64(r.Failed)/float64(r.Attempted))
	if opt.Trace {
		r.setNodeCounters(atSICCounters)
		sel := after.SelectNanos - before.SelectNanos
		calls := after.ShedInvocations - before.ShedInvocations
		if calls > 0 {
			r.set("core.select_us_per_call", float64(sel)/float64(calls)/1e3)
		}
		r.set("core.select_share", float64(sel)/1e9/r.MeasuredS)
		r.set("federation.steps", float64(len(stepMs)))
		r.set("federation.step_ms_max", metrics.Percentile(stepMs, 100))
		r.set("federation.step_ms_p99", p99(stepMs))
		r.set("coordinator.update_msgs", float64(atSIC.CoordinatorMessages))
		r.set("coordinator.update_bytes", float64(atSIC.CoordinatorBytes))
		r.set("stream.pool_live", float64(e.Pool().Live()))
		pc := e.PlanCacheStats()
		if pc.Hits+pc.Misses > 0 {
			r.set("cql.plan_cache_hit_ratio", float64(pc.Hits)/float64(pc.Hits+pc.Misses))
		}
		if err := r.setCPUShares(profile.Bytes()); err != nil {
			return r, err
		}
		if err := runProbes(r, opt, tr); err != nil {
			return r, err
		}
		if err := tr.write(opt.OutDir); err != nil {
			return r, err
		}
	}
	runtime.KeepAlive(e)
	return r, nil
}

// setCPUShares turns the run's CPU profile into <layer>.cpu_share.
func (r *result) setCPUShares(gz []byte) error {
	shares, n, err := cpuShares(gz)
	if err != nil {
		return err
	}
	sum := 0.0
	for l, s := range shares {
		r.set(l+".cpu_share", s)
		sum += s
	}
	r.Samples["cpu_share"] = n
	r.check("cpu_shares_sum_to_1", n == 0 || (sum > 0.99 && sum < 1.01), "sum %.4f over %d samples", sum, n)
	return nil
}

// parallelPrefixSteps is the length of the determinism prefix.
const parallelPrefixSteps = 200

// checkParallelDeterminism steps the same workload and seed on one
// processor and on all of them: Results must agree bit for bit, the
// wall-clock shedder timings aside.
func checkParallelDeterminism(w *workload, opt options, r *result) error {
	steps := parallelPrefixSteps / opt.Shrink
	run := func(procs int) (*federation.Results, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		e, err := buildEngine(w, opt.Seed, r, nil, -1)
		if err != nil {
			return nil, err
		}
		r.Attempted += steps
		if err := stepN(e, steps); err != nil {
			r.Failed++
			return nil, err
		}
		res := e.Results()
		res.SelectNanosPerInvocation = 0
		for i := range res.Nodes {
			res.Nodes[i].SelectNanos = 0
		}
		return res, nil
	}
	one, err := run(1)
	if err != nil {
		return err
	}
	all, err := run(runtime.NumCPU())
	if err != nil {
		return err
	}
	r.check("results_identical_at_gomaxprocs_1_and_nproc", reflect.DeepEqual(one, all),
		"%d steps, nproc %d, mean_sic %v vs %v", steps, runtime.NumCPU(), one.MeanSIC, all.MeanSIC)
	return nil
}
