package trace

import (
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/rng"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

func TestGenerateCounts(t *testing.T) {
	for _, pat := range []Deployment{DeployUniform, DeployClustered, DeployGrid, DeployCorridor} {
		specs, err := Generate(rng.New(1).Split("gen"), DeployConfig{Pattern: pat, N: 57})
		if err != nil {
			t.Fatalf("%v: %v", pat, err)
		}
		if len(specs) != 57 {
			t.Errorf("%v: %d specs", pat, len(specs))
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(rng.New(1), DeployConfig{N: 0}); err == nil {
		t.Error("zero N accepted")
	}
	if _, err := Generate(rng.New(1), DeployConfig{N: 5, Pattern: Deployment(99)}); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestGenerateInField(t *testing.T) {
	cfg := DeployConfig{Pattern: DeployClustered, N: 80}
	specs, err := Generate(rng.New(2).Split("field"), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// applyDefaults sized the field; regenerate the default for checking.
	check := cfg
	if err := (&check).applyDefaults(); err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		if !check.Field.Contains(s.Pos) {
			t.Errorf("node %d at %v outside field %+v", i, s.Pos, check.Field)
		}
		if s.GenBps < check.GenBpsMin || s.GenBps > check.GenBpsMax {
			t.Errorf("node %d gen %v outside bounds", i, s.GenBps)
		}
		if s.InitialFrac < check.InitialFracMin || s.InitialFrac > check.InitialFracMax {
			t.Errorf("node %d frac %v outside bounds", i, s.InitialFrac)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(rng.New(3).Split("det"), DeployConfig{N: 30})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(rng.New(3).Split("det"), DeployConfig{N: 30})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spec %d differs between identical generations", i)
		}
	}
}

func TestDeploymentString(t *testing.T) {
	if DeployUniform.String() != "uniform" || DeployCorridor.String() != "corridor" {
		t.Error("deployment names wrong")
	}
	if Deployment(42).String() == "" {
		t.Error("unknown deployment empty string")
	}
}

func TestScenarioBuildConnected(t *testing.T) {
	for _, n := range []int{50, 150, 400} {
		nw, _, err := DefaultScenario(11, n).Build()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if nw.ConnectedCount() != nw.Len() {
			t.Errorf("n=%d: %d/%d connected", n, nw.ConnectedCount(), nw.Len())
		}
	}
}

func TestScenarioBuildDeterministic(t *testing.T) {
	a, _, err := DefaultScenario(5, 60).Build()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := DefaultScenario(5, 60).Build()
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.State(), b.State()
	for i := 0; i < a.Len(); i++ {
		na, nb := sa.Nodes[i], sb.Nodes[i]
		if na.Pos != nb.Pos || na.GenBps != nb.GenBps {
			t.Fatalf("node %d differs across identical builds", i)
		}
	}
}

func TestScenarioSeedsDiffer(t *testing.T) {
	a, _, err := DefaultScenario(1, 40).Build()
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := DefaultScenario(2, 40).Build()
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < a.Len(); i++ {
		if a.Pos(wrsn.NodeID(i)) == b.Pos(wrsn.NodeID(i)) {
			same++
		}
	}
	if same == a.Len() {
		t.Error("different seeds produced identical placements")
	}
}

func TestCorridorHasKeyNodes(t *testing.T) {
	sc := DefaultScenario(9, 80)
	sc.Deploy.Pattern = DeployCorridor
	nw, _, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if keys := nw.KeyNodes(); len(keys) < 10 {
		t.Errorf("corridor produced only %d key nodes", len(keys))
	}
}

func TestExplicitSink(t *testing.T) {
	sc := Scenario{
		Seed:   3,
		Deploy: DeployConfig{N: 30},
		Sink:   geom.Pt(0, 0),
	}
	nw, _, err := sc.Build()
	if err != nil {
		t.Fatal(err)
	}
	if nw.Sink() != geom.Pt(0, 0) {
		t.Errorf("sink = %v", nw.Sink())
	}
}
