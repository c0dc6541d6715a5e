package federation

import (
	"testing"

	"repro/internal/control"
)

func TestPlacerStrategies(t *testing.T) {
	for _, strategy := range []string{"", "round-robin", "uniform", "zipf"} {
		p, err := control.NewPlacer(strategy, 6, 3)
		if err != nil {
			t.Fatalf("%q: %v", strategy, err)
		}
		for round := 0; round < 4; round++ {
			got, err := p.Place(3)
			if err != nil {
				t.Fatalf("%q round %d: %v", strategy, round, err)
			}
			if len(got) != 3 {
				t.Fatalf("%q: placed %d fragments", strategy, len(got))
			}
			seen := map[int]bool{}
			for _, nd := range got {
				if nd < 0 || int(nd) >= 6 {
					t.Fatalf("%q: node %d out of range", strategy, nd)
				}
				if seen[int(nd)] {
					t.Fatalf("%q: duplicate node %d in %v", strategy, nd, got)
				}
				seen[int(nd)] = true
			}
		}
		if _, err := p.Place(7); err == nil {
			t.Errorf("%q: over-subscription accepted", strategy)
		}
	}
	if _, err := control.NewPlacer("nope", 4, 1); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := control.NewPlacer("uniform", 0, 1); err == nil {
		t.Error("zero nodes accepted")
	}

	// Round-robin is stateful: consecutive placements rotate the start
	// node so total load spreads evenly.
	rr, _ := control.NewPlacer("round-robin", 4, 1)
	a, _ := rr.Place(2)
	b, _ := rr.Place(2)
	if a[0] == b[0] {
		t.Errorf("round-robin did not advance: %v then %v", a, b)
	}
}
