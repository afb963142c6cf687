package wrsn

import (
	"math/rand"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
)

func randomNetwork(t *testing.T, rng *rand.Rand, n int, commRange float64) *Network {
	t.Helper()
	specs := make([]NodeSpec, n)
	for i := range specs {
		specs[i] = NodeSpec{Pos: geom.Point{X: rng.Float64() * 250, Y: rng.Float64() * 250}}
	}
	nw, err := NewNetwork(specs, Config{
		Sink:      geom.Point{X: 125, Y: 125},
		CommRange: commRange,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// bruteAdjacency is the original O(n²) pairwise scan, kept as the
// equivalence oracle: the link table's alive-filtered rows must
// reproduce its lists element for element, because Dijkstra's
// tie-breaking — and through it the golden Outcome digests — depends on
// adjacency order.
func bruteAdjacency(nw *Network) [][]int {
	n := len(nw.nodes)
	adj := make([][]int, n+1)
	for i, a := range nw.nodes {
		if !a.Alive() {
			continue
		}
		for j := i + 1; j < n; j++ {
			b := nw.nodes[j]
			if b.Alive() && nw.linked(a.Pos, b.Pos) {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
		if nw.linked(a.Pos, nw.sink) {
			adj[i] = append(adj[i], n)
			adj[n] = append(adj[n], i)
		}
	}
	return adj
}

// TestGridAdjacencyMatchesBrute compares the link table's alive-filtered
// rows against the brute-force scan across random topologies and alive
// subsets, requiring exact element order.
func TestGridAdjacencyMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		nw := randomNetwork(t, rng, 1+rng.Intn(150), 30+rng.Float64()*60)
		// Kill a random subset (battery depletion and hardware faults).
		for _, n := range nw.nodes {
			switch rng.Intn(5) {
			case 0:
				nw.Drain(n.ID, n.Level()+1)
			case 1:
				n.Fail()
			}
		}
		got := aliveRows(nw)
		want := bruteAdjacency(nw)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d lists, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if len(got[i]) != len(want[i]) {
				t.Fatalf("trial %d: adj[%d] = %v, want %v", trial, i, got[i], want[i])
			}
			for k := range want[i] {
				if got[i][k] != want[i][k] {
					t.Fatalf("trial %d: adj[%d] = %v, want %v (order matters)", trial, i, got[i], want[i])
				}
			}
		}
	}
}

// TestNodesNearMatchesBrute compares the indexed witness scan against
// the brute-force ID-order scan it replaces, including its exact
// Dist ≤ r predicate, for query centers on and off the field.
func TestNodesNearMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw := randomNetwork(t, rng, 120, 50)
	for _, n := range nw.nodes {
		if rng.Intn(6) == 0 {
			n.Fail()
		}
	}
	for q := 0; q < 50; q++ {
		pos := geom.Point{X: rng.Float64()*350 - 50, Y: rng.Float64()*350 - 50}
		r := rng.Float64() * 100
		var want []*Node
		for i := range nw.nodes {
			if n := &nw.nodes[i]; n.Alive() && pos.Dist(n.Pos) <= r {
				want = append(want, n)
			}
		}
		got := nw.NodesNear(nil, pos, r)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d nodes, want %d", q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("query %d: node %d is %d, want %d (ascending ID order)", q, i, got[i].ID, want[i].ID)
			}
		}
	}
}

// TestRecomputeSteadyStateAllocFree proves repeated routing rebuilds on
// a stable topology reuse their buffers.
func TestRecomputeSteadyStateAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nw := randomNetwork(t, rng, 120, 50)
	nw.Recompute() // warm the scratch buffers
	allocs := testing.AllocsPerRun(100, func() {
		nw.Recompute()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Recompute allocates %v times, want 0", allocs)
	}
}

// TestRecomputeAfterDeathsStillCorrect drains nodes between rebuilds and
// checks parents and drains agree with a fresh network in the same state.
func TestRecomputeAfterDeathsStillCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	specs := make([]NodeSpec, 80)
	for i := range specs {
		specs[i] = NodeSpec{Pos: geom.Point{X: rng.Float64() * 200, Y: rng.Float64() * 200}}
	}
	cfg := Config{Sink: geom.Point{X: 100, Y: 100}, CommRange: 45}
	nw, err := NewNetwork(specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		for i, n := range nw.nodes {
			if (i+round)%7 == 0 {
				nw.Drain(n.ID, n.Level()+1)
			}
		}
		nw.Recompute()
		// A fresh network with identical alive state is the oracle.
		ref, err := NewNetwork(specs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range nw.nodes {
			if !n.Alive() {
				ref.Drain(NodeID(i), ref.nodes[i].Level()+1)
			}
		}
		ref.Recompute()
		for i := range nw.nodes {
			if nw.Parent(NodeID(i)) != ref.Parent(NodeID(i)) {
				t.Fatalf("round %d: parent[%d] = %d, want %d", round, i, nw.Parent(NodeID(i)), ref.Parent(NodeID(i)))
			}
			if nw.DrainWatts(NodeID(i)) != ref.DrainWatts(NodeID(i)) {
				t.Fatalf("round %d: drain[%d] = %v, want %v", round, i, nw.DrainWatts(NodeID(i)), ref.DrainWatts(NodeID(i)))
			}
		}
	}
}
