package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// options are the arguments of one workload run.
type options struct {
	Seed    int64
	Seconds float64
	// Trace makes the traced run: spans, a CPU profile over the second
	// half of the measured phase, counters and the layer probes.
	Trace bool
	// SetupReps is how many times set-up is timed at least (the median
	// is reported; the last one is measured). A cheap set-up is repeated
	// up to five times as often, see moreSetups.
	SetupReps int
	// OutDir receives trace-<workload>.json.
	OutDir string
	// Shrink divides the fixed operation counts of the run (layer probes,
	// determinism prefix); 1 outside the smoke test.
	Shrink int
}

// checkResult is one correctness check of a run.
type checkResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is everything one workload run measured. Metrics holds every
// number by name; the command line prints the declared subset.
type result struct {
	Workload   string             `json:"workload"`
	Traced     bool               `json:"traced"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Seed       int64              `json:"seed"`
	WarmS      float64            `json:"warm_s"`
	MeasuredS  float64            `json:"measured_s"`
	Metrics    map[string]float64 `json:"metrics"`
	Samples    map[string]int     `json:"samples"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Checks     []checkResult      `json:"checks"`
}

func newResult(w *workload, opt options) *result {
	return &result{
		Workload: w.Name, Traced: opt.Trace, Seed: opt.Seed, WarmS: w.Warm.Seconds(),
		Metrics: make(map[string]float64), Samples: make(map[string]int),
	}
}

func (r *result) set(name string, v float64) { r.Metrics[name] = v }

// op counts one attempted operation and whether it failed.
func (r *result) op(err error) error {
	r.Attempted++
	if err != nil {
		r.Failed++
	}
	return err
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, checkResult{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// correct reports whether every check passed, no operation failed and
// every metric is a finite number.
func (r *result) correct() bool {
	if r.Failed > 0 || r.Attempted < 1 {
		return false
	}
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	for _, v := range r.Metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// liveHeapMB is the heap still reachable after a collection, in 1e6
// bytes. Callers keep the measured system referenced across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// setupBudget is how long a run goes on repeating a cheap set-up: a
// 60 ms set-up timed a few times has a median that moves by half from run
// to run, timed fifteen times it does not.
const setupBudget = time.Second

// moreSetups reports whether to time set-up again after done repetitions
// that took spent altogether.
func moreSetups(done, reps int, spent time.Duration) bool {
	return done < reps || (done < 5*reps && spent < setupBudget)
}
