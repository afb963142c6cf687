package wrsn

// Network robustness analysis: how fast does sink connectivity collapse as
// nodes are removed in a given order? The classic random-vs-targeted
// curves motivate the attack — removing a handful of articulation points
// does what dozens of random failures cannot — and quantify a deployment's
// exposure before any attack runs.

import (
	"fmt"

	"github.com/reprolab/wrsn-csa/internal/rng"
)

// RemovalStrategy orders nodes for a robustness sweep.
type RemovalStrategy int

// Removal strategies.
const (
	// RemoveRandom removes alive nodes uniformly at random.
	RemoveRandom RemovalStrategy = iota + 1
	// RemoveByBetweenness removes the highest-betweenness alive node
	// first, recomputing after each removal.
	RemoveByBetweenness
	// RemoveBySeverance removes the alive node severing the most others
	// first (the attack's target order), recomputing after each removal.
	RemoveBySeverance
)

// String implements fmt.Stringer.
func (s RemovalStrategy) String() string {
	switch s {
	case RemoveRandom:
		return "random"
	case RemoveByBetweenness:
		return "betweenness"
	case RemoveBySeverance:
		return "severance"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// RobustnessPoint is one step of a removal sweep.
type RobustnessPoint struct {
	// Removed is the cumulative number of removed nodes.
	Removed int
	// Connected is the number of alive nodes still routed to the sink.
	Connected int
}

// RobustnessSweep removes up to steps nodes in the strategy's order and
// records connectivity after each removal. The network is restored to its
// prior battery state afterward (removal is simulated by zeroing
// batteries and undone before returning); the sweep must not be run
// concurrently with other use of the network. The stream drives
// RemoveRandom and is ignored otherwise.
func (nw *Network) RobustnessSweep(strategy RemovalStrategy, steps int, r *rng.Stream) ([]RobustnessPoint, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("wrsn: steps must be positive, got %d", steps)
	}
	if strategy == RemoveRandom && r == nil {
		return nil, fmt.Errorf("wrsn: RemoveRandom needs a random stream")
	}
	// Save battery levels to restore the network afterward.
	saved := make([]float64, len(nw.nodes))
	for i, n := range nw.ptrs {
		saved[i] = n.Level()
	}
	defer func() {
		for i := range nw.nodes {
			nw.SetLevel(NodeID(i), saved[i])
		}
		nw.Recompute()
	}()

	points := make([]RobustnessPoint, 0, steps+1)
	points = append(points, RobustnessPoint{Removed: 0, Connected: nw.ConnectedCount()})
	for k := 1; k <= steps; k++ {
		victim, ok := nw.pickRemoval(strategy, r)
		if !ok {
			break // nobody left to remove
		}
		nw.SetLevel(victim, 0)
		nw.Recompute()
		points = append(points, RobustnessPoint{Removed: k, Connected: nw.ConnectedCount()})
	}
	return points, nil
}

// pickRemoval chooses the next node to remove under the strategy.
func (nw *Network) pickRemoval(strategy RemovalStrategy, r *rng.Stream) (NodeID, bool) {
	var alive []NodeID
	for i, n := range nw.nodes {
		if n.Alive() {
			alive = append(alive, NodeID(i))
		}
	}
	if len(alive) == 0 {
		return 0, false
	}
	switch strategy {
	case RemoveRandom:
		return alive[r.Intn(len(alive))], true
	case RemoveByBetweenness:
		bc := nw.Betweenness()
		best := alive[0]
		for _, id := range alive[1:] {
			if bc[id] > bc[best] {
				best = id
			}
		}
		return best, true
	case RemoveBySeverance:
		keys := nw.KeyNodes()
		if len(keys) > 0 {
			return keys[0].ID, true
		}
		// No separators left: fall back to highest betweenness, which is
		// what an attacker would escalate to.
		bc := nw.Betweenness()
		best := alive[0]
		for _, id := range alive[1:] {
			if bc[id] > bc[best] {
				best = id
			}
		}
		return best, true
	default:
		return 0, false
	}
}
