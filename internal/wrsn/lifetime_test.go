package wrsn

import (
	"math"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
)

func TestForecastClosedForm(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(1, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	node, err := nw.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	drain := nw.DrainWatts(0)
	f, err := nw.ForecastAt(0, 100, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	level := node.Level()
	threshold := 0.3 * node.Capacity()
	wantReq := 100 + (level-threshold)/drain
	wantDeath := 100 + level/drain
	if math.Abs(f.RequestAt-wantReq) > 1e-9 {
		t.Errorf("RequestAt = %v, want %v", f.RequestAt, wantReq)
	}
	if math.Abs(f.DeathAt-wantDeath) > 1e-9 {
		t.Errorf("DeathAt = %v, want %v", f.DeathAt, wantDeath)
	}
	if w := f.Window(); math.Abs(w-(wantDeath-wantReq)) > 1e-9 {
		t.Errorf("Window = %v", w)
	}
}

func TestForecastBelowThreshold(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(1, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	node, _ := nw.Node(0)
	node.SetLevel(0.1 * node.Capacity())
	f, err := nw.ForecastAt(0, 500, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if f.RequestAt != 500 {
		t.Errorf("below-threshold RequestAt = %v, want now (500)", f.RequestAt)
	}
}

func TestForecastDeadNode(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(1, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	node, _ := nw.Node(0)
	node.SetLevel(0)
	f, err := nw.ForecastAt(0, 7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if f.RequestAt != 7 || f.DeathAt != 7 {
		t.Errorf("dead forecast = %+v", f)
	}
}

func TestForecastErrors(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(1, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	if _, err := nw.ForecastAt(5, 0, 0.3); err == nil {
		t.Error("out-of-range forecast accepted")
	}
	// Invalid fraction falls back to the default rather than erroring.
	f, err := nw.ForecastAt(0, 0, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(f.RequestAt, 1) {
		t.Error("fallback fraction produced no request")
	}
}

func TestAdvanceEnergy(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(2, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	n0, _ := nw.Node(0)
	before := n0.Level()
	died := nw.AdvanceEnergy(1000)
	if len(died) != 0 {
		t.Fatalf("unexpected deaths: %v", died)
	}
	drained := before - n0.Level()
	want := nw.DrainWatts(0) * 1000
	if math.Abs(drained-want) > 1e-9 {
		t.Errorf("drained %v, want %v", drained, want)
	}
	if nw.AdvanceEnergy(0) != nil || nw.AdvanceEnergy(-5) != nil {
		t.Error("non-positive dt advanced energy")
	}
}

func TestAdvanceEnergyDeath(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(2, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	n1, _ := nw.Node(1)
	n1.SetLevel(nw.DrainWatts(1) * 10) // 10 seconds of life
	died := nw.AdvanceEnergy(11)
	if len(died) != 1 || died[0] != 1 {
		t.Fatalf("died = %v, want [1]", died)
	}
}

func TestNextDepletion(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(3, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	// Node 0 relays the most, so with equal batteries it dies first.
	at, who := nw.NextDepletion(50)
	if who != 0 {
		t.Errorf("first to die = %v, want 0", who)
	}
	n0, _ := nw.Node(0)
	want := 50 + n0.Level()/nw.DrainWatts(0)
	if math.Abs(at-want) > 1e-6 {
		t.Errorf("depletion at %v, want %v", at, want)
	}
	// Exact consistency: advancing to just before must kill nobody;
	// crossing it must kill node 0.
	if died := nw.AdvanceEnergy(at - 50 - 1); len(died) != 0 {
		t.Fatalf("premature deaths: %v", died)
	}
	if died := nw.AdvanceEnergy(2); len(died) != 1 || died[0] != 0 {
		t.Fatalf("died = %v, want [0]", died)
	}
	// After everyone dies, NextDepletion reports +Inf.
	for _, n := range nw.Nodes() {
		n.SetLevel(0)
	}
	at, who = nw.NextDepletion(0)
	if !math.IsInf(at, 1) || who != ParentNone {
		t.Errorf("NextDepletion on dead network = %v, %v", at, who)
	}
}

func TestForecastAllCoversEveryNode(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(4, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	fs := nw.ForecastAll(0, 0.3)
	if len(fs) != 4 {
		t.Fatalf("forecast count = %d", len(fs))
	}
	for i, f := range fs {
		if f.ID != NodeID(i) {
			t.Errorf("forecast %d has ID %v", i, f.ID)
		}
		if f.DeathAt <= f.RequestAt {
			t.Errorf("node %d: death %v before request %v", i, f.DeathAt, f.RequestAt)
		}
	}
}
