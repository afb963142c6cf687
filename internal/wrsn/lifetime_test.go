package wrsn

import (
	"math"
	"slices"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/energy"
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
	level := node.Battery.Level()
	threshold := 0.3 * node.Battery.Capacity()
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
	node.Battery.SetLevel(0.1 * node.Battery.Capacity())
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
	node.Battery.SetLevel(0)
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
	before := n0.Battery.Level()
	died := nw.AdvanceEnergy(1000)
	if len(died) != 0 {
		t.Fatalf("unexpected deaths: %v", died)
	}
	drained := before - n0.Battery.Level()
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
	n1.Battery.SetLevel(nw.DrainWatts(1) * 10) // 10 seconds of life
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
	want := 50 + n0.Battery.Level()/nw.DrainWatts(0)
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
		n.Battery.SetLevel(0)
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

// FuzzAdvanceEnergyPass holds the fused pass to the separate passes it
// replaces: AdvanceEnergy, then a threshold scan over the alive nodes in
// ascending ID, then NextDepletion. Levels, Died, Low and (NextAt, Next)
// must match bit for bit over two back-to-back passes (the second reuses
// the first's slices).
//
// Input layout: data[0] holds the flags — bit 0 a radio with no sensing
// or idle draw (its disconnected nodes drain nothing), bits 1–2 the step
// length (0, 60 s, 900 s, a day), bits 3–4 the request fraction, bit 5 a
// sink out of every node's range, bit 6 a Recompute after setup. data[1]
// picks the node count; then three bytes per node: its grid cell, its
// level (bits 0–1 choose near-empty, exactly at the threshold, anywhere,
// or a level shared for forecast ties; bits 2–7 scale it), and bit 0 of
// the third fails it.
func FuzzAdvanceEnergyPass(f *testing.F) {
	// A mix of near-empty, threshold, free and tied levels under the
	// default radio, with two failed nodes and a 900 s step.
	f.Add([]byte{2 << 1, 8,
		0, 1<<2 | 0, 0, 1, 1, 0, 2, 40<<2 | 2, 0, 6, 0<<2 | 0, 0, 7, 3, 1,
		8, 3, 0, 12, 2<<2 | 0, 0, 13, 63<<2 | 2, 1, 14, 3, 0})
	// No draw off the tree and a sink out of range: every node is
	// disconnected and drains nothing, so threshold levels stay exactly
	// at the threshold and every node is below it.
	f.Add([]byte{1 | 2<<1 | 1<<5, 5,
		0, 1, 0, 1, 3, 0, 2, 5<<2 | 2, 0, 3, 1, 0, 4, 0, 0, 5, 3, 1})
	// Zero-length step over connected and disconnected nodes at a 0.5
	// request fraction, routed over the surviving set.
	f.Add([]byte{1 | 1<<3 | 1<<6, 7,
		0, 1, 0, 1, 30<<2 | 2, 0, 2, 1, 0, 20, 3, 0, 21, 1, 1, 33, 1, 0,
		34, 2<<2 | 0, 0, 35, 3, 0})
	// A day-long step: the near-empty node dies in it, and the nodes on
	// the shared level outlive it.
	f.Add([]byte{3 << 1, 6,
		0, 3, 0, 1, 3, 0, 2, 63<<2 | 2, 0, 3, 3, 0, 4, 1<<2 | 0, 0, 5, 3, 0, 35, 3, 0})
	// The sink out of range under the default radio: every node drains
	// the same sensing and idle power, so the nodes on the shared level
	// tie in the forecast, and the lowest alive ID must win.
	f.Add([]byte{2<<1 | 1<<5, 4,
		0, 3, 1, 1, 40<<2 | 2, 0, 2, 3, 0, 3, 3, 0, 4, 3, 0})
	dts := [4]float64{0, 60, 900, 86400}
	fracs := [4]float64{0.3, 0.5, 0.125, 0.75}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		flags := data[0]
		dt, frac := dts[flags>>1&3], fracs[flags>>3&3]
		cfg := Config{Sink: geom.Pt(0, -30), CommRange: 35}
		if flags&1 != 0 {
			cfg.Radio = energy.RadioModel{ElecJPerBit: 50e-9, AmpJPerBitM2: 100e-12}
		}
		if flags&(1<<5) != 0 {
			cfg.Sink = geom.Pt(1000, 1000)
		}
		n := 1 + int(data[1])%32
		data = data[2:]
		if len(data) < 3*n {
			return
		}
		specs := make([]NodeSpec, n)
		for i := range specs {
			cell := int(data[3*i]) % 36
			specs[i] = NodeSpec{Pos: geom.Pt(float64(cell%6)*30, float64(cell/6)*30)}
		}
		nw := mustNetwork(t, specs, cfg)
		for i := range specs {
			lv, fl := data[3*i+1], data[3*i+2]
			b := &nw.bats[i]
			c, v := b.Capacity(), float64(lv>>2)
			switch lv & 3 {
			case 0:
				b.SetLevel(c * v / 1024)
			case 1:
				b.SetLevel(frac * c)
			case 2:
				b.SetLevel(c * v / 63)
			case 3:
				b.SetLevel(c / 4)
			}
			if fl&1 != 0 {
				nw.ptrs[i].Fail()
			}
		}
		if flags&(1<<6) != 0 {
			nw.Recompute()
		}
		got, want := nw.Fork(), nw.Fork()
		var p EnergyPass
		now := 3600.0
		for round := 0; round < 2; round++ {
			now += dt
			got.AdvanceEnergyPass(dt, now, frac, &p)
			died := want.AdvanceEnergy(dt)
			var low []NodeID
			for i := range want.bats {
				if want.aliveIdx(i) && want.bats[i].Level() <= frac*want.bats[i].Capacity() {
					low = append(low, NodeID(i))
				}
			}
			at, who := want.NextDepletion(now)
			for i := range want.bats {
				if g, w := got.bats[i].Level(), want.bats[i].Level(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("round %d: node %d level %v after the pass, %v after AdvanceEnergy", round, i, g, w)
				}
			}
			if !slices.Equal(p.Died, died) {
				t.Fatalf("round %d: pass died %v, AdvanceEnergy %v", round, p.Died, died)
			}
			if !slices.Equal(p.Low, low) {
				t.Fatalf("round %d: pass low %v, threshold scan %v", round, p.Low, low)
			}
			if math.Float64bits(p.NextAt) != math.Float64bits(at) || p.Next != who {
				t.Fatalf("round %d: pass forecast (%v, %d), NextDepletion (%v, %d)", round, p.NextAt, p.Next, at, who)
			}
		}
	})
}
