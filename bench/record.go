package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// envHeader is the record header: where the numbers were taken.
type envHeader struct {
	Commit    string `json:"commit"`
	GoVersion string `json:"go_version"`
	CPUModel  string `json:"cpu_model"`
	NumCPU    int    `json:"nproc"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
}

// environment reads the header. The commit comes from THEMIS_COMMIT, which
// run.sh sets when the checkout is a git repository.
func environment() envHeader {
	h := envHeader{
		Commit: os.Getenv("THEMIS_COMMIT"), GoVersion: runtime.Version(), CPUModel: "unknown",
		NumCPU: runtime.NumCPU(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
	}
	if h.Commit == "" {
		h.Commit = "unknown"
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func printEnv(h envHeader) {
	fmt.Printf("commit %s  %s %s/%s  cpu %q  nproc %d\n", h.Commit, h.GoVersion, h.GOOS, h.GOARCH, h.CPUModel, h.NumCPU)
}

// record is what one invocation leaves in the output directory.
type record struct {
	Env       envHeader `json:"env"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Traced    bool      `json:"traced"`
	Workloads []*result `json:"workloads"`
}

// writeRecord stores the invocation as record-<mode>.json, or
// record-<mode>-<workload>.json for a single workload.
func writeRecord(opt options, env envHeader, results []*result) error {
	if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
		return err
	}
	name := "record-e2e"
	if opt.Trace {
		name = "record-traced"
	}
	if len(results) == 1 {
		name += "-" + results[0].Workload
	}
	data, err := json.MarshalIndent(record{Env: env, Seed: opt.Seed, Seconds: opt.Seconds, Traced: opt.Trace, Workloads: results}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(opt.OutDir, name+".json"), append(data, '\n'), 0o644)
}
