package wrsn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
)

// benchNetwork builds a uniform deployment scaled so node density (and
// hence mean degree) stays constant as n grows: side 36·√n with a 50 m
// comm range gives the same neighborhood structure at 1k and 100k nodes.
func benchNetwork(b *testing.B, n int) *Network {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	side := 36 * math.Sqrt(float64(n))
	specs := make([]NodeSpec, n)
	for i := range specs {
		specs[i] = NodeSpec{Pos: geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}}
	}
	nw, err := NewNetwork(specs, Config{
		Sink:      geom.Point{X: side / 2, Y: side / 2},
		CommRange: 50,
	})
	if err != nil {
		b.Fatal(err)
	}
	return nw
}

// benchVictim picks a connected relay (a node with routing children) so
// each kill/repair cycle invalidates a real subtree rather than a leaf.
func benchVictim(b *testing.B, nw *Network) int {
	b.Helper()
	n := nw.Len()
	for i := n / 2; i < n; i++ {
		if nw.Parent(NodeID(i)) != ParentNone && len(nw.Children(NodeID(i))) > 0 {
			return i
		}
	}
	for i := 0; i < n; i++ {
		if nw.Parent(NodeID(i)) != ParentNone {
			return i
		}
	}
	b.Fatal("no connected node to use as victim")
	return -1
}

// benchTrunk picks the sink child with the largest routing subtree, so
// each kill/repair cycle reroutes a trunk of the tree: the case that
// dominates a death-heavy campaign's recompute time.
func benchTrunk(b *testing.B, nw *Network) int {
	b.Helper()
	trunk, best := -1, 0
	for i := range nw.Len() {
		if nw.Parent(NodeID(i)) != ParentSink {
			continue
		}
		size := 0
		stack := []NodeID{NodeID(i)}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = append(stack[:len(stack)-1], nw.Children(v)...)
			size++
		}
		if size > best {
			trunk, best = i, size
		}
	}
	if trunk < 0 {
		b.Fatal("no sink child to use as trunk")
	}
	return trunk
}

// BenchmarkRecomputeIncremental measures the routing recompute that
// follows a node death or repair — the dominant cost of death-heavy
// campaign runs — comparing incremental subtree patching against the
// full-Dijkstra rebuild at matched topology. Each iteration alternates
// failing and repairing one mid-field relay, so both the deletion
// (subtree invalidation) and insertion (boundary re-relaxation) paths are
// on the clock. The trunk rows do the same to the sink child with the
// largest subtree (3,645 of 10,000 nodes).
func BenchmarkRecomputeIncremental(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		for _, mode := range []string{"incr", "full"} {
			b.Run(fmt.Sprintf("n=%d/%s", n, mode), func(b *testing.B) {
				benchKillRepair(b, n, mode == "incr", benchVictim)
			})
		}
	}
	for _, mode := range []string{"incr", "full"} {
		b.Run("n=10000/trunk-"+mode, func(b *testing.B) {
			benchKillRepair(b, 10_000, mode == "incr", benchTrunk)
		})
	}
}

// benchKillRepair alternates failing and repairing the node pick chooses
// on benchNetwork(n), recomputing after each.
func benchKillRepair(b *testing.B, n int, incr bool, pick func(*testing.B, *Network) int) {
	nw := benchNetwork(b, n)
	nw.SetIncrementalRouting(incr)
	victim := pick(b, nw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			nw.Fail(NodeID(victim))
		} else {
			nw.Repair(NodeID(victim))
		}
		nw.Recompute()
	}
}
