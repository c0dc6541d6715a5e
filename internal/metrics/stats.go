package metrics

// MovingAverage keeps the mean of the most recent capacity observations.
// The THEMIS cost model uses it over past per-tuple processing-time
// estimations (§6: "We use a moving average over past estimations").
type MovingAverage struct {
	ring []float64
	next int
	full bool
	sum  float64
}

// NewMovingAverage builds a window of the given capacity (min 1).
func NewMovingAverage(capacity int) *MovingAverage {
	if capacity < 1 {
		capacity = 1
	}
	return &MovingAverage{ring: make([]float64, capacity)}
}

// Add pushes an observation, evicting the oldest when full.
func (m *MovingAverage) Add(x float64) {
	if m.full {
		m.sum -= m.ring[m.next]
	}
	m.ring[m.next] = x
	m.sum += x
	m.next++
	if m.next == len(m.ring) {
		m.next = 0
		m.full = true
	}
}

// N reports how many observations the window currently holds.
func (m *MovingAverage) N() int {
	if m.full {
		return len(m.ring)
	}
	return m.next
}

// Mean reports the mean of the current window (0 when empty).
func (m *MovingAverage) Mean() float64 {
	n := m.N()
	if n == 0 {
		return 0
	}
	return m.sum / float64(n)
}
