package attack

import (
	"math"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
	"github.com/reprolab/wrsn-csa/internal/mc"
	"github.com/reprolab/wrsn-csa/internal/wrsn"
)

// chainNetwork builds a sink-rooted chain whose interior nodes are all key
// nodes, with staggered initial charge so windows differ.
func chainNetwork(t *testing.T, n int) *wrsn.Network {
	t.Helper()
	specs := make([]wrsn.NodeSpec, n)
	for i := range specs {
		specs[i] = wrsn.NodeSpec{
			Pos:         geom.Pt(float64(i+1)*40, 0),
			InitialFrac: 0.6 + 0.05*float64(i%5),
		}
	}
	nw, err := wrsn.NewNetwork(specs, wrsn.Config{Sink: geom.Pt(0, 0), CommRange: 50})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestBuildInstanceBasics(t *testing.T) {
	nw := chainNetwork(t, 6)
	ch := mc.New(nw.Sink(), mc.DefaultParams())
	in, err := BuildInstance(nw, ch, BuilderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	keys := nw.KeyNodes()
	if got, want := len(in.Mandatories()), len(keys); got != want {
		t.Errorf("mandatory sites = %d, want %d key nodes", got, want)
	}
	if in.BudgetJ != ch.Remaining() {
		t.Errorf("budget = %v, want charger remaining %v", in.BudgetJ, ch.Remaining())
	}
	if in.SpeedMps != ch.Params().SpeedMps {
		t.Error("cost model not mirrored")
	}
}

func TestBuildInstanceWindows(t *testing.T) {
	nw := chainNetwork(t, 6)
	ch := mc.New(nw.Sink(), mc.DefaultParams())
	cfg := BuilderConfig{Now: 100, CooldownSec: 3600}
	in, err := BuildInstance(nw, ch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range in.Sites {
		f, err := nw.ForecastAt(s.Node, 100, 0)
		if err != nil {
			t.Fatal(err)
		}
		if s.Window.D > f.DeathAt+1e-6 {
			t.Errorf("node %d window closes after death", s.Node)
		}
		if s.Window.R < 100 {
			t.Errorf("node %d window opens before now", s.Node)
		}
		if s.Mandatory {
			// Key windows open no earlier than death − cooldown.
			if s.Window.R < math.Max(f.RequestAt, f.DeathAt-3600)-1e-6 {
				t.Errorf("key node %d window [%v,%v] opens too early (req %v death %v)",
					s.Node, s.Window.R, s.Window.D, f.RequestAt, f.DeathAt)
			}
		} else {
			if s.UtilJ <= 0 {
				t.Errorf("cover %d has no utility", s.Node)
			}
		}
		if s.Dur <= 0 {
			t.Errorf("node %d has non-positive duration", s.Node)
		}
	}
}

func TestBuildInstanceHorizonFilter(t *testing.T) {
	nw := chainNetwork(t, 6)
	ch := mc.New(nw.Sink(), mc.DefaultParams())
	// A tiny horizon excludes slow-draining leaves.
	short, err := BuildInstance(nw, ch, BuilderConfig{HorizonSec: 3600})
	if err != nil {
		t.Fatal(err)
	}
	long, err := BuildInstance(nw, ch, BuilderConfig{HorizonSec: 60 * 86400})
	if err != nil {
		t.Fatal(err)
	}
	if len(short.Sites) >= len(long.Sites) {
		t.Errorf("horizon filter inert: %d vs %d sites", len(short.Sites), len(long.Sites))
	}
}

func TestBuildInstanceBudgetOverride(t *testing.T) {
	nw := chainNetwork(t, 4)
	ch := mc.New(nw.Sink(), mc.DefaultParams())
	in, err := BuildInstance(nw, ch, BuilderConfig{BudgetJ: 12345})
	if err != nil {
		t.Fatal(err)
	}
	if in.BudgetJ != 12345 {
		t.Errorf("budget = %v", in.BudgetJ)
	}
}

func TestBuildInstanceMaxCovers(t *testing.T) {
	nw := chainNetwork(t, 8)
	ch := mc.New(nw.Sink(), mc.DefaultParams())
	in, err := BuildInstance(nw, ch, BuilderConfig{MaxCovers: 1})
	if err != nil {
		t.Fatal(err)
	}
	covers := 0
	for _, s := range in.Sites {
		if !s.Mandatory {
			covers++
		}
	}
	if covers > 1 {
		t.Errorf("covers = %d, want ≤ 1", covers)
	}
}

func TestBuildInstanceMaxTargets(t *testing.T) {
	nw := chainNetwork(t, 8)
	ch := mc.New(nw.Sink(), mc.DefaultParams())
	in, err := BuildInstance(nw, ch, BuilderConfig{MaxTargets: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(in.Mandatories()); got > 2 {
		t.Errorf("targets = %d, want ≤ 2", got)
	}
}

func TestBuildInstanceSkipsDeadNodes(t *testing.T) {
	nw := chainNetwork(t, 5)
	leaf, err := nw.Node(4)
	if err != nil {
		t.Fatal(err)
	}
	leaf.SetLevel(0)
	nw.Recompute()
	ch := mc.New(nw.Sink(), mc.DefaultParams())
	in, err := BuildInstance(nw, ch, BuilderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range in.Sites {
		if s.Node == 4 {
			t.Error("dead node got a site")
		}
	}
}

// End-to-end: a CSA plan for a real network instance must be feasible and
// cover every reachable key node.
func TestBuildAndSolve(t *testing.T) {
	nw := chainNetwork(t, 10)
	ch := mc.New(nw.Sink(), mc.DefaultParams())
	in, err := BuildInstance(nw, ch, BuilderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveCSA(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SkippedTargets) != 0 {
		t.Errorf("skipped targets on an easy chain: %v", res.SkippedTargets)
	}
	if res.Plan.SpoofCount != len(in.Mandatories()) {
		t.Errorf("spoofs = %d, want %d", res.Plan.SpoofCount, len(in.Mandatories()))
	}
}
