package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmokeEveryWorkload runs every workload at a tiny size through the
// code path the command uses, untraced and traced, and asserts that every
// declared metric comes out as a finite number. Checks that need a full
// run (a filled STW, a settled recovery) may fail at this size and are
// only logged.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads() {
		for _, traced := range []bool{false, true} {
			w, traced := w, traced
			name := w.Name + "/e2e"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				opt := options{Seed: 1, Seconds: 0.3, Trace: traced, SetupReps: 1, OutDir: t.TempDir(), Shrink: 10}
				w.Warm = time.Second
				if w.Net {
					w.Warm, opt.Seconds = 500*time.Millisecond, 1
				}
				r, err := runWorkload(w, opt)
				if err != nil {
					t.Fatal(err)
				}
				if r.Failed != 0 || r.Attempted < 1 {
					t.Errorf("operations: %d attempted, %d failed", r.Attempted, r.Failed)
				}
				line := r.line()
				if got, want := len(line.Metrics), len(r.declared()); got != want {
					t.Errorf("result line has %d metrics, want %d", got, want)
				}
				for _, m := range r.declared() {
					v, ok := line.Metrics[m.Name]
					if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s: not a finite number (%v, present %v)", m.Name, v.Value, ok)
					}
					// mean_sic and jain may still read 0 this early in a run.
					if !traced && v.Value <= 0 && m.Name != "mean_sic" && m.Name != "jain" {
						t.Errorf("%s = %v: an end-to-end metric must never read 0", m.Name, v.Value)
					}
				}
				if traced {
					sum := 0.0
					for _, l := range cpuShareLayers {
						sum += r.Metrics[l+".cpu_share"]
					}
					if r.Samples["cpu_share"] > 0 && math.Abs(sum-1) > 0.01 {
						t.Errorf("cpu shares sum to %v", sum)
					}
					if _, err := os.Stat(opt.OutDir + "/trace-" + w.Name + ".json"); err != nil {
						t.Errorf("trace file: %v", err)
					}
				}
				for _, c := range r.Checks {
					if !c.OK {
						t.Logf("check failed at smoke size: %s: %s", c.Name, c.Detail)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json at the root of
// the repository in step with the metrics and workloads declared here.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	// The driver's time limit fits four workloads of ten measured seconds:
	// BENCHMARK.json gates a subset, in the benchmark's order.
	if len(decl.Workloads) < 2 {
		t.Fatalf("BENCHMARK.json lists %d workloads, want at least 2", len(decl.Workloads))
	}
	for i, d := range decl.Workloads {
		w := findWorkload(d.Name)
		if w == nil {
			t.Errorf("workload %d: BENCHMARK.json has %q, which the benchmark does not know", i, d.Name)
			continue
		}
		if d.Why != w.Why {
			t.Errorf("%s: BENCHMARK.json says %q, the benchmark %q", d.Name, d.Why, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark has %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
}
