package wrsn

import (
	"math/rand"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/rng"
)

func TestRobustnessSweepRestoresState(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(6, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	before := make([]float64, nw.Len())
	for i := range before {
		before[i] = nw.Level(NodeID(i))
	}
	if _, err := nw.RobustnessSweep(RemoveBySeverance, 4, nil); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if nw.Level(NodeID(i)) != before[i] {
			t.Fatalf("node %d battery not restored", i)
		}
	}
	if nw.ConnectedCount() != nw.Len() {
		t.Error("connectivity not restored")
	}
}

func TestRobustnessSeveranceBeatsRandomOnChain(t *testing.T) {
	// On a chain, removing the sink-adjacent node disconnects everything
	// in one step; random removals take much longer in expectation.
	nw := mustNetwork(t, lineSpecs(10, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	sev, err := nw.RobustnessSweep(RemoveBySeverance, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sev[1].Connected != 0 {
		t.Errorf("severance removal left %d connected, want 0", sev[1].Connected)
	}
	rand, err := nw.RobustnessSweep(RemoveRandom, 1, rng.New(3).Split("rob"))
	if err != nil {
		t.Fatal(err)
	}
	// Random's single removal disconnects only the suffix behind it (in
	// expectation about half); it can tie severance only by luck (picking
	// node 0, probability 1/10 — not with this seed).
	if rand[1].Connected == 0 {
		t.Skip("random removal got lucky; seed-dependent")
	}
	if rand[1].Connected <= sev[1].Connected {
		t.Errorf("random (%d connected) did not lose to severance (%d)",
			rand[1].Connected, sev[1].Connected)
	}
}

func TestRobustnessMonotoneNonIncreasing(t *testing.T) {
	nw := mustNetwork(t, randomMesh(rand.New(rand.NewSource(20)), 40), Config{Sink: geom.Pt(150, 150), CommRange: 60})
	for _, strat := range []RemovalStrategy{RemoveRandom, RemoveByBetweenness, RemoveBySeverance} {
		pts, err := nw.RobustnessSweep(strat, 15, rng.New(9).Split("rob"))
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].Connected > pts[i-1].Connected {
				t.Fatalf("%v: connectivity rose after removal at step %d", strat, i)
			}
			if pts[i].Removed != pts[i-1].Removed+1 {
				t.Fatalf("%v: removal count skipped at %d", strat, i)
			}
		}
	}
}

func TestRobustnessValidation(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(3, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	if _, err := nw.RobustnessSweep(RemoveRandom, 0, rng.New(1)); err == nil {
		t.Error("zero steps accepted")
	}
	if _, err := nw.RobustnessSweep(RemoveRandom, 2, nil); err == nil {
		t.Error("random sweep without stream accepted")
	}
}

func TestRemovalStrategyString(t *testing.T) {
	if RemoveRandom.String() != "random" || RemoveBySeverance.String() != "severance" {
		t.Error("strategy names wrong")
	}
	if RemovalStrategy(42).String() == "" {
		t.Error("unknown strategy empty")
	}
}
