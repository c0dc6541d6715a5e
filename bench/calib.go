package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/metrics"
)

// The hosts this benchmark runs on give it a few processors of a shared
// machine, and two things move under it. Other tenants take the processor
// away for 5-25% of the time (steal), which wall-clock time includes and
// CPU time does not: every reported time is CPU time, read from the
// kernel's per-thread and per-process clocks. And the processor itself
// runs the same arithmetic loop 0.8x to 1.1x as fast from one second to
// the next, for seconds to minutes at a time, which is wider than the
// spread the metrics may have. So a fixed kernel of xorshift rounds is
// timed beside the measured work, and measured CPU seconds are scaled by
// how fast the kernel ran against refRoundsPerSec: times are expressed at
// reference speed, which approximates counting cycles in place of
// seconds. On an undisturbed host of the reference speed, calibrated and
// raw CPU seconds are equal.
const (
	refRounds = 400_000
	// refRoundsPerSec is the kernel's speed on the host the benchmark was
	// defined on (Xeon 2.1 GHz), undisturbed.
	refRoundsPerSec = 620e6

	// clockids of clock_gettime(2) on Linux.
	clockProcessCPU = 2
	clockThreadCPU  = 3
)

// cpuClock reads one of the kernel's CPU-time clocks. They count the
// nanoseconds the process (or the calling thread) was running, from the
// scheduler's own accounting, so time stolen by the host's other tenants
// is left out.
func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	// Fails only for a bad clock id.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time of every thread of the process so far.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

var refSink uint64

// refKernel runs the reference kernel once and returns the CPU time it
// took on the calling thread.
func refKernel() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	t0 := cpuClock(clockThreadCPU)
	x := uint64(88172645463325252)
	for i := 0; i < refRounds; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink = x
	return cpuClock(clockThreadCPU) - t0
}

// hostSpeed is the host's speed as a share of reference speed, given how
// many seconds one kernel run took.
func hostSpeed(kernelS float64) float64 {
	return refRounds / refRoundsPerSec / kernelS
}

// calibrated runs fn and returns the CPU seconds the process spent in it
// at reference speed, from kernel samples taken just before and just
// after. Its callers run on one processor, where CPU seconds are the
// seconds the host left them.
func calibrated(fn func()) float64 {
	kernels := make([]float64, 0, 6)
	for i := 0; i < 3; i++ {
		kernels = append(kernels, refKernel().Seconds())
	}
	t0 := processCPU()
	fn()
	d := processCPU() - t0
	for i := 0; i < 3; i++ {
		kernels = append(kernels, refKernel().Seconds())
	}
	return d.Seconds() * hostSpeed(median(kernels))
}

// undisturbedRate reduces the rates of an engine run's groups to one
// number: the 90th percentile, the rate in the tenth of the run the host
// disturbed least. Interference from other tenants only ever slows the
// closed loop down, by up to 2x for seconds at a time on memory-bound
// workloads, and the reference kernel follows only the part of it that
// arithmetic feels; the median over a run moves with it, the high
// percentile does not. What it leaves out is cost that strikes fewer
// than nine groups in ten, such as a collector cycle; live_heap_mb and
// go.runtime.cpu_share watch that side.
func undisturbedRate(rates []float64) float64 {
	return metrics.Percentile(rates, 90)
}
