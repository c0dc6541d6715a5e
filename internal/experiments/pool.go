package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// sweepWorkers is the experiment-level parallelism budget, shared by
// every sweep in this package. The fairness and correlation experiments
// run many independent engine instances (one per x-axis point, policy or
// dataset), each stepping on one thread; the sweeps fan out up to
// GOMAXPROCS whole runs at a time.
var sweepWorkers = runtime.GOMAXPROCS(0)

// forEach runs fn(0), …, fn(n-1) on up to sweepWorkers goroutines and
// waits for all of them; one worker degenerates to a plain loop.
// Iterations must be independent: callers pre-draw any shared random
// values and write into index i of an output slice, so sweep output is
// identical to the sequential loop regardless of scheduling.
//
// If any fn panics (e.g. a failed deployment), remaining indices are
// abandoned and the first panic is re-raised on the calling goroutine
// after the workers drain, so callers observe it as if the loop were
// sequential instead of the process dying in a worker goroutine.
func forEach(n int, fn func(i int)) {
	workers := min(sweepWorkers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next      atomic.Int64
		stopped   atomic.Bool
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicVal  any
	)
	wg.Add(workers)
	for g := 0; g < workers; g++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicVal = r })
					stopped.Store(true)
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || stopped.Load() {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}
