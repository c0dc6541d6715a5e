// Command themis-cql runs an ad-hoc CQL query against synthetic sources
// and streams results — with their SIC values — to stdout.
//
// By default the query runs on a single simulated THEMIS node in virtual
// time, the quickest way to see fair shedding react to overload:
//
//	themis-cql -query 'Select Avg(t.v) From Src[Range 1 sec]' \
//	           -rate 400 -capacity 200 -duration 30s
//
// With -net the same statement is parsed, partitioned into fragments and
// deployed across live themis-node TCP servers; derived batches flow
// node→node over the binary wire protocol and the per-query SIC streams
// back once per second:
//
//	themis-node -listen 127.0.0.1:7101 & # ×3
//	themis-cql -net 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 \
//	           -query 'Select Avg(t.v) From AllSrc[Range 1 sec]' \
//	           -fragments 3 -rate 40 -duration 20s
//
// With capacity below the source rate the nodes shed; every printed
// result or SIC line reports the information content actually processed,
// the user feedback loop of §1.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	themis "repro"
	"repro/internal/stream"
	"repro/internal/transport"
)

// timedSubmit is one scheduled mid-run submission (-submit-at).
type timedSubmit struct {
	at  time.Duration
	cql string
}

// timedRetract is one scheduled mid-run retract (-retract-at).
type timedRetract struct {
	at time.Duration
	q  stream.QueryID
}

// splitSchedule parses the shared "dur:payload" schedule syntax.
func splitSchedule(v string) (time.Duration, string, error) {
	parts := strings.SplitN(v, ":", 2)
	if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
		return 0, "", fmt.Errorf("want 'duration:value', got %q", v)
	}
	d, err := time.ParseDuration(strings.TrimSpace(parts[0]))
	if err != nil {
		return 0, "", err
	}
	if d < 0 {
		return 0, "", fmt.Errorf("negative schedule time %v", d)
	}
	return d, strings.TrimSpace(parts[1]), nil
}

func main() {
	queryText := flag.String("query", "Select Avg(t.v) From Src[Range 1 sec]", "CQL query (Table 1 syntax)")
	dataset := flag.String("dataset", "gaussian", "source dataset: gaussian|uniform|exponential|mixed|planetlab")
	rate := flag.Float64("rate", 400, "tuples/sec per source")
	capacity := flag.Float64("capacity", 200, "node capacity in tuples/sec (local mode)")
	duration := flag.Duration("duration", 30*time.Second, "run length")
	quietFlag := flag.Bool("summary", false, "suppress per-result/per-SIC lines, print only the summary")

	// Networked mode.
	netAddrs := flag.String("net", "", "comma-separated themis-node addresses; deploys onto the live federation instead of the simulator")
	fragments := flag.Int("fragments", 1, "number of fragments to partition the query into (-net mode; -submit-at submissions use it in both modes)")
	placement := flag.String("placement", "round-robin", "fragment site assignment: round-robin|uniform|zipf (-net mode)")
	warmup := flag.Duration("warmup", 0, "measurement warmup (-net mode; defaults to duration/4)")
	batches := flag.Float64("batches", 5, "source batches/sec (-net mode)")
	stw := flag.Duration("stw", 10*time.Second, "source time window (-net mode)")
	interval := flag.Duration("interval", 250*time.Millisecond, "shedding/update interval (-net mode)")
	seed := flag.Int64("seed", 1, "deployment seed (-net mode)")
	checkpoint := flag.Duration("checkpoint", 0, "operator-state checkpoint cadence, rounded down to whole intervals (minimum one); failure recovery restores windows from the newest snapshot instead of refilling them (-net mode; 0 disables)")

	// Live query churn: mid-run submissions and retracts, in both modes.
	// The initial -query is query 0; scheduled submissions are numbered
	// 1, 2, … in schedule order.
	var submits []timedSubmit
	flag.Func("submit-at", "submit a query mid-run as 'dur:CQL', e.g. '5s:Select Count(t.v) From Src[Range 1 sec]' (repeatable; uses -fragments/-dataset/-rate/-batches)", func(v string) error {
		d, cqlText, err := splitSchedule(v)
		if err != nil {
			return err
		}
		submits = append(submits, timedSubmit{at: d, cql: cqlText})
		return nil
	})
	var retracts []timedRetract
	flag.Func("retract-at", "retract a query mid-run as 'dur:queryID', e.g. '10s:0' (repeatable)", func(v string) error {
		d, qs, err := splitSchedule(v)
		if err != nil {
			return err
		}
		q, err := strconv.Atoi(qs)
		if err != nil {
			return fmt.Errorf("query id %q: %w", qs, err)
		}
		retracts = append(retracts, timedRetract{at: d, q: stream.QueryID(q)})
		return nil
	})
	flag.Parse()

	var ds themis.Dataset
	switch strings.ToLower(*dataset) {
	case "gaussian":
		ds = themis.Gaussian
	case "uniform":
		ds = themis.Uniform
	case "exponential":
		ds = themis.Exponential
	case "mixed":
		ds = themis.Mixed
	case "planetlab":
		ds = themis.PlanetLab
	default:
		fmt.Fprintf(os.Stderr, "themis-cql: unknown dataset %q\n", *dataset)
		os.Exit(2)
	}

	if *netAddrs != "" {
		runNetworked(*netAddrs, *queryText, int(ds), *fragments, *placement,
			*rate, *batches, *duration, *warmup, *stw, *interval, *checkpoint, *seed, *quietFlag,
			submits, retracts)
		return
	}

	cfg := themis.Defaults()
	cfg.Duration = themis.Duration(duration.Milliseconds())
	cfg.Warmup = cfg.Duration / 5
	engine, node := themis.LocalTestbed(cfg, *capacity)
	// The local testbed is one node, so the query runs as one fragment.
	qid, err := engine.Submit(themis.QuerySubmit{
		CQL: *queryText, Fragments: 1, Dataset: int(ds),
		Rate: *rate, Placement: []themis.NodeID{node},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "themis-cql: %v\n", err)
		os.Exit(2)
	}
	if !*quietFlag {
		engine.OnResult(qid, func(now themis.Time, tuples []themis.Tuple) {
			for _, t := range tuples {
				var vals []string
				for _, v := range t.V {
					vals = append(vals, fmt.Sprintf("%.3f", v))
				}
				fmt.Printf("t=%6.2fs  result=[%s]  tuple-SIC=%.5f\n",
					float64(now)/1000, strings.Join(vals, ", "), t.SIC)
			}
		})
	}

	// The churn flags replay as engine calls between Steps, one tick per
	// shedding interval: an offset's retracts, then its submissions. A
	// refused call is reported with its reason and the run goes on, as in
	// -net mode.
	tickMs := int64(engine.Config().Interval)
	ticks := int64(engine.Config().Duration) / tickMs
	tickOf := func(at time.Duration) int64 { return at.Milliseconds() / tickMs }
	for _, r := range retracts {
		if tickOf(r.at) >= ticks {
			fmt.Fprintf(os.Stderr, "themis-cql: retract at %v: past the run's end at %v\n", r.at, *duration)
		}
	}
	for _, s := range submits {
		if tickOf(s.at) >= ticks {
			fmt.Fprintf(os.Stderr, "themis-cql: submit at %v: past the run's end at %v\n", s.at, *duration)
		}
	}
	for tick := int64(0); tick < ticks; tick++ {
		for _, r := range retracts {
			if tickOf(r.at) == tick && !engine.RemoveQuery(r.q) {
				fmt.Fprintf(os.Stderr, "themis-cql: retract at %v: query %d is not live\n", r.at, r.q)
			}
		}
		for _, s := range submits {
			if tickOf(s.at) != tick {
				continue
			}
			// Same -fragments as -net mode, so a local replay mirrors the
			// networked schedule plan-for-plan. The local testbed has one
			// node, so a multi-fragment submission cannot place there.
			sub := themis.QuerySubmit{CQL: s.cql, Fragments: *fragments, Dataset: int(ds), Rate: *rate}
			if _, err := engine.Submit(sub); err != nil {
				fmt.Fprintf(os.Stderr, "themis-cql: submit at %v: %v\n", s.at, err)
			}
		}
		engine.Step()
	}
	res := engine.Results()
	ns := res.Nodes[0]
	fmt.Printf("\n%s (%s)\n", res.Queries[qid].Type, *queryText)
	if len(res.Queries) == 1 {
		fmt.Printf("mean SIC over run: %s\n", meanSIC(res.Queries[0].MeanSIC, res.Queries[0].Measured))
	} else {
		// A churn schedule ran: report the whole dynamic workload.
		for _, q := range res.Queries {
			fmt.Printf("query %d (%s) mean SIC: %s\n", q.ID, q.Type, meanSIC(q.MeanSIC, q.Measured))
		}
		fmt.Printf("fairness (Jain): %.3f\n", res.Jain)
	}
	fmt.Printf("tuples: %d arrived, %d shed (%.0f%%), %d shedder invocations\n",
		ns.ArrivedTuples, ns.ShedTuples,
		100*float64(ns.ShedTuples)/float64(max64(ns.ArrivedTuples, 1)),
		ns.ShedInvocations)
}

// meanSIC renders a query's mean SIC for a summary line, or says that it
// was never measured: a mean of 0 then means no sample, not starvation.
func meanSIC(mean float64, measured bool) string {
	if !measured {
		return "not measured (no sample past its warmup)"
	}
	return fmt.Sprintf("%.3f   (1.0 = perfect processing)", mean)
}

// runNetworked deploys the statement across live themis-node servers and
// streams per-query SIC values while the run progresses. Scheduled
// submissions and retracts fire on wall-clock timers relative to the
// run start: queries arrive and depart while the federation keeps
// ticking.
func runNetworked(addrList, queryText string, dataset, fragments int, placement string,
	rate, batchesPerSec float64, duration, warmup time.Duration,
	stw, interval, checkpoint time.Duration, seed int64, quiet bool,
	submits []timedSubmit, retracts []timedRetract) {
	addrs := strings.Split(addrList, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	if warmup <= 0 {
		warmup = duration / 4
	}

	ctrl, err := transport.NewController(transport.ControllerConfig{
		STW:        stream.Duration(stw.Milliseconds()),
		Interval:   stream.Duration(interval.Milliseconds()),
		Seed:       seed,
		Placement:  placement,
		Checkpoint: checkpoint,
	}, addrs)
	if err != nil {
		fmt.Fprintf(os.Stderr, "themis-cql: %v\n", err)
		os.Exit(1)
	}
	defer ctrl.CloseAll()

	// On any error after connecting, stop the federation before exiting:
	// os.Exit skips defers, and the documented workflow backgrounds
	// themis-node processes that should not outlive a failed session.
	fail := func(code int, err error) {
		fmt.Fprintf(os.Stderr, "themis-cql: %v\n", err)
		ctrl.Shutdown()
		os.Exit(code)
	}

	place, err := ctrl.AutoPlace(fragments)
	if err != nil {
		fail(2, err)
	}
	q, err := ctrl.Submit(queryText, fragments, dataset, rate, batchesPerSec, place)
	if err != nil {
		fail(2, err)
	}
	fmt.Printf("themis-cql: deployed %q as query %d: fragment→node %v over %d live nodes\n",
		queryText, q, place, ctrl.NumNodes())

	if !quiet {
		// Stream the coordinator's result-SIC estimate about once a second.
		var lastPrint stream.Time
		ctrl.OnSIC(func(q themis.QueryID, now stream.Time, v float64) {
			if now-lastPrint < 1000 {
				return
			}
			lastPrint = now
			fmt.Printf("t=%6.2fs  q%d  result-SIC=%.4f\n", float64(now)/1000, q, v)
		})
	}

	// Arm the churn schedule just before the run starts; each timer's
	// Submit or Retract is one step, applied on the timer's goroutine
	// under the controller mutex, between the run's broadcast ticks.
	var timers []*time.Timer
	for _, s := range submits {
		s := s
		timers = append(timers, time.AfterFunc(s.at, func() {
			q, err := ctrl.Submit(s.cql, fragments, dataset, rate, batchesPerSec, nil)
			if err != nil {
				fmt.Fprintf(os.Stderr, "themis-cql: submit at %v: %v\n", s.at, err)
				return
			}
			fmt.Printf("t=%6.2fs  submitted %q as query %d\n", s.at.Seconds(), s.cql, q)
		}))
	}
	for _, r := range retracts {
		r := r
		timers = append(timers, time.AfterFunc(r.at, func() {
			if err := ctrl.Retract(r.q); err != nil {
				fmt.Fprintf(os.Stderr, "themis-cql: retract at %v: %v\n", r.at, err)
				return
			}
			fmt.Printf("t=%6.2fs  retracted query %d\n", r.at.Seconds(), r.q)
		}))
	}
	defer func() {
		for _, t := range timers {
			t.Stop()
		}
	}()

	res, err := ctrl.Run(duration, warmup)
	if err != nil {
		fail(1, err)
	}

	fmt.Printf("\nnetworked run over %d nodes (%s placement)\n", ctrl.NumNodes(), placement)
	for _, rec := range res.Recoveries {
		mode := ""
		if rec.Restored {
			mode = " (restored from checkpoint)"
		}
		fmt.Printf("recovered from failure of node %s at t=%.2fs: re-placed queries %v in %v%s\n",
			rec.Node, rec.At.Seconds(), rec.Queries, rec.Took, mode)
	}
	qids := make([]themis.QueryID, 0, len(res.PerQuery))
	for id := range res.PerQuery {
		qids = append(qids, id)
	}
	sort.Slice(qids, func(i, j int) bool { return qids[i] < qids[j] })
	for _, id := range qids {
		suffix := ""
		for _, rec := range res.Recoveries {
			for _, rq := range rec.Queries {
				if rq == id && !rec.Restored {
					// A checkpoint-restored query carried its accounting
					// through the failure — no epoch to call out.
					suffix = "   (post-recovery epoch)"
				}
			}
		}
		fmt.Printf("query %d mean SIC: %s%s\n", id, meanSIC(res.PerQuery[id], res.Measured[id]), suffix)
	}
	fmt.Printf("fairness (Jain): %.3f\n", res.Jain)
	for _, ns := range res.Nodes {
		fmt.Printf("node %-8s tuples: %d arrived, %d shed (%.0f%%), %d shedder invocations\n",
			ns.Node, ns.ArrivedTuples, ns.ShedTuples,
			100*float64(ns.ShedTuples)/float64(max64(ns.ArrivedTuples, 1)),
			ns.ShedInvocations)
		if ns.DroppedTuples > 0 {
			fmt.Printf("node %-8s dropped in transit: %d tuples, %.4f SIC mass (routing failures during churn)\n",
				ns.Node, ns.DroppedTuples, ns.DroppedSIC)
		}
		if ns.DroppedCtrl > 0 {
			fmt.Printf("node %-8s dropped %d control frames (full controller queue): result SIC above reads low\n",
				ns.Node, ns.DroppedCtrl)
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
