package control

import (
	"fmt"
	"math/rand"

	"repro/internal/stream"
)

// Placement helpers. A placement assigns each fragment of a query to a
// distinct node (§3). The evaluation uses three strategies: balanced
// round-robin (equal node load, Fig. 11), uniformly random distinct nodes
// (Figs. 10, 14), and Zipf-skewed placement modelling sites that
// "primarily host queries of local users" (C1; Fig. 12: "Fragments are
// deployed according to a Zipf distribution").

// UniformPlacement picks k distinct nodes uniformly at random.
func UniformPlacement(rng *rand.Rand, numNodes, k int) []stream.NodeID {
	if k > numNodes {
		panic("control: more fragments than nodes")
	}
	perm := rng.Perm(numNodes)
	out := make([]stream.NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = stream.NodeID(perm[i])
	}
	return out
}

// RoundRobinPlacement assigns fragments to consecutive nodes starting at
// *next, advancing it — spreading total load evenly across nodes.
func RoundRobinPlacement(next *int, numNodes, k int) []stream.NodeID {
	if k > numNodes {
		panic("control: more fragments than nodes")
	}
	out := make([]stream.NodeID, k)
	for i := 0; i < k; i++ {
		out[i] = stream.NodeID((*next + i) % numNodes)
	}
	*next = (*next + k) % numNodes
	return out
}

// ZipfPlacement samples k distinct nodes with Zipf-distributed popularity
// (skew s > 1), modelling the skewed query workload distribution of C1.
func ZipfPlacement(rng *rand.Rand, numNodes, k int, s float64) []stream.NodeID {
	if k > numNodes {
		panic("control: more fragments than nodes")
	}
	if s <= 1 {
		s = 1.01
	}
	z := rand.NewZipf(rng, s, 1, uint64(numNodes-1))
	chosen := make(map[stream.NodeID]bool, k)
	out := make([]stream.NodeID, 0, k)
	for len(out) < k {
		nd := stream.NodeID(z.Uint64())
		if !chosen[nd] {
			chosen[nd] = true
			out = append(out, nd)
		}
	}
	return out
}

// Placer is a stateful site-assignment helper wrapping the three
// placement strategies behind one name-driven interface, so every driver
// of the control plane assigns fragments to sites exactly as the
// evaluation does.
type Placer struct {
	strategy string
	numNodes int
	rng      *rand.Rand
	next     int
	// Skew is the Zipf skew parameter (default 1.5; only read by "zipf").
	Skew float64
}

// NewPlacer builds a placer over numNodes sites. strategy is
// "round-robin" (default when empty), "uniform" or "zipf".
func NewPlacer(strategy string, numNodes int, seed int64) (*Placer, error) {
	if strategy == "" {
		strategy = "round-robin"
	}
	switch strategy {
	case "round-robin", "uniform", "zipf":
	default:
		return nil, fmt.Errorf("control: unknown placement strategy %q", strategy)
	}
	if numNodes < 1 {
		return nil, fmt.Errorf("control: placer needs at least one node, got %d", numNodes)
	}
	return &Placer{strategy: strategy, numNodes: numNodes, rng: rand.New(rand.NewSource(seed)), Skew: 1.5}, nil
}

// Place assigns k fragments to distinct sites using the configured
// strategy.
func (p *Placer) Place(k int) ([]stream.NodeID, error) {
	if k > p.numNodes {
		return nil, fmt.Errorf("control: cannot place %d fragments on %d nodes", k, p.numNodes)
	}
	switch p.strategy {
	case "uniform":
		return UniformPlacement(p.rng, p.numNodes, k), nil
	case "zipf":
		return ZipfPlacement(p.rng, p.numNodes, k, p.Skew), nil
	default:
		return RoundRobinPlacement(&p.next, p.numNodes, k), nil
	}
}
