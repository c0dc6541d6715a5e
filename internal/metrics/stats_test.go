package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMovingAverageWindowing(t *testing.T) {
	m := NewMovingAverage(3)
	if m.Mean() != 0 || m.N() != 0 {
		t.Error("empty moving average not zero")
	}
	m.Add(1)
	m.Add(2)
	if !almost(m.Mean(), 1.5) || m.N() != 2 {
		t.Errorf("partial window: mean %g n %d", m.Mean(), m.N())
	}
	m.Add(3)
	m.Add(10) // evicts 1
	if !almost(m.Mean(), 5) || m.N() != 3 {
		t.Errorf("full window: mean %g n %d", m.Mean(), m.N())
	}
}

func TestMovingAverageMinCapacity(t *testing.T) {
	m := NewMovingAverage(0) // clamped to 1
	m.Add(4)
	m.Add(8)
	if !almost(m.Mean(), 8) {
		t.Errorf("capacity-1 window: %g", m.Mean())
	}
}

// Property: a moving average always lies within [min, max] of the window
// contents it currently holds.
func TestMovingAverageBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := rng.Intn(8) + 1
		m := NewMovingAverage(capacity)
		var window []float64
		for i := 0; i < 50; i++ {
			v := rng.Float64() * 100
			m.Add(v)
			window = append(window, v)
			if len(window) > capacity {
				window = window[1:]
			}
			lo, hi := window[0], window[0]
			for _, w := range window {
				lo = math.Min(lo, w)
				hi = math.Max(hi, w)
			}
			if m.Mean() < lo-1e-9 || m.Mean() > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
