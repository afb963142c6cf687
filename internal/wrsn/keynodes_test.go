package wrsn

import (
	"math/rand"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
)

func randomMesh(r *rand.Rand, n int) []NodeSpec {
	specs := make([]NodeSpec, n)
	for i := range specs {
		specs[i] = NodeSpec{Pos: geom.Pt(r.Float64()*300, r.Float64()*300)}
	}
	return specs
}

// KeyNodes (single Tarjan DFS) must agree exactly with the brute-force
// severance computation on arbitrary topologies.
func TestKeyNodesMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		nw := mustNetwork(t, randomMesh(r, 40), Config{Sink: geom.Pt(150, 150), CommRange: 60})
		keys := nw.KeyNodes()
		bySeverance := make(map[NodeID]int, len(keys))
		for _, k := range keys {
			bySeverance[k.ID] = k.Severed
		}
		for i := 0; i < nw.Len(); i++ {
			id := NodeID(i)
			want := nw.SeveredByDeath(id)
			if got := bySeverance[id]; got != want {
				t.Fatalf("trial %d node %d: KeyNodes severed=%d, brute force=%d", trial, i, got, want)
			}
		}
	}
}

func TestKeyNodesChain(t *testing.T) {
	// In a chain of 5 every non-leaf is a separator; node i severs the
	// 4−(i+1) nodes behind it... node 0 severs 4? No: node 0 is adjacent
	// to the sink; its death severs nodes 1..4 unless they reach the sink
	// another way — with 40 m spacing and 50 m range they cannot.
	nw := mustNetwork(t, lineSpecs(5, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	keys := nw.KeyNodes()
	if len(keys) != 4 {
		t.Fatalf("chain key count = %d, want 4", len(keys))
	}
	// Sorted by decreasing severance: node 0 severs 4, node 1 severs 3…
	for i, k := range keys {
		wantID, wantSev := NodeID(i), 4-i
		if k.ID != wantID || k.Severed != wantSev {
			t.Errorf("keys[%d] = {%d %d}, want {%d %d}", i, k.ID, k.Severed, wantID, wantSev)
		}
	}
}

func TestKeyNodesNoneInClique(t *testing.T) {
	// A tight cluster where everyone hears everyone: no key nodes.
	specs := []NodeSpec{
		{Pos: geom.Pt(10, 0)}, {Pos: geom.Pt(0, 10)}, {Pos: geom.Pt(10, 10)},
	}
	nw := mustNetwork(t, specs, Config{Sink: geom.Pt(0, 0), CommRange: 50})
	if keys := nw.KeyNodes(); len(keys) != 0 {
		t.Errorf("clique produced key nodes: %v", keys)
	}
}

func TestBetweennessStar(t *testing.T) {
	// Star: center node relays every leaf; leaves have betweenness 0 and
	// the center carries all leaf-pair and leaf-sink shortest paths.
	specs := []NodeSpec{
		{Pos: geom.Pt(40, 0)},   // center, links to sink and all leaves
		{Pos: geom.Pt(80, 0)},   // leaf
		{Pos: geom.Pt(40, 40)},  // leaf
		{Pos: geom.Pt(40, -40)}, // leaf
	}
	nw := mustNetwork(t, specs, Config{Sink: geom.Pt(0, 0), CommRange: 50})
	bc := nw.Betweenness()
	if bc[0] <= 0 {
		t.Errorf("center betweenness = %v, want > 0", bc[0])
	}
	for i := 1; i < 4; i++ {
		if bc[i] != 0 {
			t.Errorf("leaf %d betweenness = %v, want 0", i, bc[i])
		}
	}
	// Center lies on all C(4,2)=6 pairs among {sink, 3 leaves}.
	if bc[0] != 6 {
		t.Errorf("center betweenness = %v, want 6", bc[0])
	}
}

func TestBetweennessChain(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(3, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	bc := nw.Betweenness()
	// Chain sink—0—1—2: node 0 on pairs (sink,1),(sink,2); node 1 on
	// (sink,2),(0,2); node 2 on none.
	want := []float64{2, 2, 0}
	for i, w := range want {
		if bc[i] != w {
			t.Errorf("bc[%d] = %v, want %v", i, bc[i], w)
		}
	}
}

func TestKeyNodesIgnoreDead(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(4, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	nw.SetLevel(3, 0)
	nw.Recompute()
	keys := nw.KeyNodes()
	// Node 2 no longer severs anyone (its only child is dead).
	for _, k := range keys {
		if k.ID == 2 {
			t.Errorf("node 2 still a key node after its subtree died: %+v", k)
		}
	}
}

func BenchmarkKeyNodes(b *testing.B) {
	r := rand.New(rand.NewSource(13))
	nw, err := NewNetwork(randomMesh(r, 300), Config{Sink: geom.Pt(150, 150), CommRange: 45})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = nw.KeyNodes()
	}
}
