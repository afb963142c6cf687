package wrsn

import (
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
)

// diamondSpecs builds sink—{A,B}—C: two parallel relays A and B, a far
// node C reachable through either. The topology where policies differ.
func diamondSpecs() []NodeSpec {
	return []NodeSpec{
		{Pos: geom.Pt(40, 12)}, // 0: relay A (slightly longer path)
		{Pos: geom.Pt(40, -8)}, // 1: relay B (shorter path)
		{Pos: geom.Pt(80, 0)},  // 2: far node C
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyShortestDistance.String() != "shortest-distance" ||
		PolicyHopCount.String() != "hop-count" ||
		PolicyEnergyAware.String() != "energy-aware" {
		t.Error("policy names wrong")
	}
	if RoutingPolicy(9).String() == "" {
		t.Error("unknown policy empty")
	}
}

func TestShortestDistancePicksShortPath(t *testing.T) {
	nw := mustNetwork(t, diamondSpecs(), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	if nw.Policy() != PolicyShortestDistance {
		t.Fatalf("default policy = %v", nw.Policy())
	}
	// C routes through B (closer to the straight line).
	if p := nw.Parent(2); p != 1 {
		t.Errorf("C's parent = %v, want relay B (1)", p)
	}
}

func TestEnergyAwareAvoidsDrainedRelay(t *testing.T) {
	nw := mustNetwork(t, diamondSpecs(), Config{
		Sink: geom.Pt(0, 0), CommRange: 50, Policy: PolicyEnergyAware,
	})
	// Fresh batteries: B still wins (shorter).
	if p := nw.Parent(2); p != 1 {
		t.Fatalf("fresh: C's parent = %v, want 1", p)
	}
	// Drain B: traffic must shift to A.
	nw.SetLevel(1, 0.05*nw.Capacity(1))
	nw.Recompute()
	if p := nw.Parent(2); p != 0 {
		t.Errorf("drained: C's parent = %v, want relay A (0)", p)
	}
	// Shortest-distance routing would NOT shift.
	nw2 := mustNetwork(t, diamondSpecs(), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	nw2.SetLevel(1, 0.05*nw2.Capacity(1))
	nw2.Recompute()
	if p := nw2.Parent(2); p != 1 {
		t.Errorf("shortest-distance shifted anyway: parent = %v", p)
	}
}

func TestHopCountMinimizesHops(t *testing.T) {
	// A chain where distance-optimal routing uses two short hops but a
	// single long hop exists.
	specs := []NodeSpec{
		{Pos: geom.Pt(24, 10)}, // 0: midpoint relay (two short hops: 26+26 ≈ 52)
		{Pos: geom.Pt(48, 0)},  // 1: target, directly reachable at 48 m
	}
	nw := mustNetwork(t, specs, Config{Sink: geom.Pt(0, 0), CommRange: 50, Policy: PolicyHopCount})
	if p := nw.Parent(1); p != ParentSink {
		t.Errorf("hop-count parent = %v, want direct sink link", p)
	}
	nwD := mustNetwork(t, specs, Config{Sink: geom.Pt(0, 0), CommRange: 50})
	// Distance policy happily relays if it shortens total length... here
	// direct = 48 < 26+26, so both go direct; tweak: move relay to make
	// relayed path shorter in distance.
	_ = nwD
	specs2 := []NodeSpec{
		{Pos: geom.Pt(25, 0)}, // straight-line midpoint: 25+25 = 50 > 48? equal-ish
		{Pos: geom.Pt(48, 0)},
	}
	nw2 := mustNetwork(t, specs2, Config{Sink: geom.Pt(0, 0), CommRange: 50, Policy: PolicyHopCount})
	if p := nw2.Parent(1); p != ParentSink {
		t.Errorf("hop-count chose relay despite direct link: %v", p)
	}
}

// Articulation points are policy-independent: no routing objective changes
// which nodes are sink separators — the negative result behind R-Tab 5.
func TestKeyNodesPolicyIndependent(t *testing.T) {
	specs := lineSpecs(6, 40)
	var sets [][]KeyNode
	for _, pol := range []RoutingPolicy{PolicyShortestDistance, PolicyHopCount, PolicyEnergyAware} {
		nw := mustNetwork(t, specs, Config{Sink: geom.Pt(0, 0), CommRange: 50, Policy: pol})
		sets = append(sets, nw.KeyNodes())
	}
	for i := 1; i < len(sets); i++ {
		if len(sets[i]) != len(sets[0]) {
			t.Fatalf("key count differs across policies: %v vs %v", sets[i], sets[0])
		}
		for j := range sets[i] {
			if sets[i][j] != sets[0][j] {
				t.Fatalf("key sets differ: %v vs %v", sets[i], sets[0])
			}
		}
	}
}
