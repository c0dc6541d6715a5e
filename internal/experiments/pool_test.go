package experiments

import (
	"sync/atomic"
	"testing"
)

// withBudget runs fn with sweepWorkers set to w (the container may
// have one core, where the default budget never forks).
func withBudget(w int, fn func()) {
	defer func(old int) { sweepWorkers = old }(sweepWorkers)
	sweepWorkers = w
	fn()
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		const n = 100
		var counts [n]atomic.Int32
		withBudget(workers, func() {
			forEach(n, func(i int) { counts[i].Add(1) })
		})
		for i := range counts {
			if got := counts[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	withBudget(4, func() {
		forEach(0, func(int) { t.Fatal("fn called for n=0") })
	})
}

func TestForEachPropagatesPanicToCaller(t *testing.T) {
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	withBudget(4, func() {
		forEach(50, func(i int) {
			if i == 7 {
				panic("boom")
			}
		})
	})
	t.Fatal("forEach returned instead of panicking")
}
