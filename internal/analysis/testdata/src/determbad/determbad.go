// Package determbad exercises the determinism analyzer: wall-clock
// reads, global RNG, order-escaping map ranges and stray goroutines,
// plus the sanctioned negative idioms (seeded generators, sorted-keys,
// annotations).
package determbad

import (
	"math/rand"
	"sort"
	"time"
)

type emitter struct{ out []int }

func (e *emitter) Push(v int) { e.out = append(e.out, v) }

type acc struct{ vals []int }

func wallClock() int64 {
	return time.Now().UnixNano() // want `time.Now in hot-path package`
}

func wallClockSince(start time.Time) time.Duration {
	return time.Since(start) // want `time.Since in hot-path package`
}

func globalRand() int {
	return rand.Int() // want `global math/rand`
}

func mapEmit(e *emitter, m map[int]int) {
	for _, v := range m { // want `map iteration order reaches an emission call`
		e.Push(v)
	}
}

func mapSend(ch chan int, m map[int]int) {
	for k := range m { // want `map iteration order reaches a channel send`
		ch <- k
	}
}

func mapAppendUnsorted(m map[int]int) []int {
	var keys []int
	for k := range m { // want `map iteration order reaches unsorted slice keys`
		keys = append(keys, k)
	}
	return keys
}

func fieldAppendUnsorted(a *acc, m map[int]int) {
	for k := range m { // want `map iteration order reaches a field append`
		a.vals = append(a.vals, k)
	}
}

func spawn(done chan struct{}) {
	go close(done) // want `go statement in hot-path package`
}

// The negatives below must produce no diagnostics.

func wallClockAnnotated() time.Time {
	//themis:wallclock fixture negative: stats-only read.
	return time.Now()
}

func seededRand(r *rand.Rand) int {
	return r.Intn(10)
}

func newSeeded() *rand.Rand {
	return rand.New(rand.NewSource(42))
}

func mapAppendSorted(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func fieldAppendSorted(a *acc, m map[int]int) {
	for k := range m {
		a.vals = append(a.vals, k)
	}
	sort.Slice(a.vals, func(i, j int) bool { return a.vals[i] < a.vals[j] })
}

func mapAppendLoopLocal(m map[int]int) int {
	n := 0
	for k := range m {
		local := []int{}
		local = append(local, k)
		n += len(local)
	}
	return n
}

func spawnAnnotated(done chan struct{}) {
	//themis:goroutine fixture negative: lifecycle-managed helper.
	go close(done)
}
