package main

import (
	"math"
	"os"
	"testing"
)

// testdata/tiny.pprof is a CPU profile of about 0.4 s of overload_24x48
// steps, captured with runtime/pprof.
func TestCPUSharesSumToOne(t *testing.T) {
	gz, err := os.ReadFile("testdata/tiny.pprof")
	if err != nil {
		t.Fatal(err)
	}
	shares, n, err := cpuShares(gz)
	if err != nil {
		t.Fatal(err)
	}
	if n < 10 {
		t.Fatalf("profile has %d samples, want at least 10", n)
	}
	if len(shares) != len(cpuShareLayers) {
		t.Errorf("%d layers, want %d", len(shares), len(cpuShareLayers))
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if shares["stream"] <= 0 || shares["sources"] <= 0 {
		t.Errorf("an engine profile must charge stream and sources: %v", shares)
	}
	if shares["transport"] != 0 || shares["go.json"] != 0 {
		t.Errorf("an engine profile must not charge transport or json: %v", shares)
	}
}

func TestCPUSharesRejectsGarbage(t *testing.T) {
	if _, _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("want an error for a profile that is not gzip")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/node.(*Node).TickSpan":         "node",
		"repro/internal/stream.(*WindowBuffer).Tick":   "stream",
		"repro/internal/transport.(*conn).writeFrames": "transport",
		"repro/internal/metrics.Mean":                  "other",
		"runtime.mallocgc":                             "go.runtime",
		"internal/runtime/syscall.Syscall6":            "go.syscall",
		"encoding/json.(*encodeState).marshal":         "go.json",
		"math/rand.(*Rand).Float64":                    "go.rand",
		"main.runEngine":                               "other",
	} {
		if got, decided := layerOf(fn); got != want || !decided {
			t.Errorf("layerOf(%q) = %q, %v; want %q, true", fn, got, decided, want)
		}
	}
	if _, decided := layerOf("sort.insertionSort"); decided {
		t.Error("a general library function must defer to its caller")
	}
}
