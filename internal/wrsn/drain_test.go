package wrsn

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/energy"
	"github.com/reprolab/wrsn-csa/internal/geom"
)

// denseRef is the drain as a dense loop, the form it had before it went
// lazy: every step visits every node in ascending ID order, drains the
// alive ones, and lists the deaths and the survivors at or below the
// request threshold while it projects the next depletion. It keeps its
// own batteries and fault bits and reads the drains of the network it
// shadows, which routes both.
type denseRef struct {
	nw     *Network
	bats   []energy.Battery
	failed []bool
}

// newDenseRef copies nw's levels, brought up to its clock, and fault
// bits.
func newDenseRef(nw *Network) *denseRef {
	r := &denseRef{nw: nw, bats: make([]energy.Battery, nw.Len()), failed: make([]bool, nw.Len())}
	for i := range r.bats {
		r.bats[i] = nw.replayed(i)
		r.failed[i] = nw.failed.get(i)
	}
	return r
}

func (r *denseRef) alive(i int) bool { return !r.failed[i] && !r.bats[i].Depleted() }

// pass drains every alive node for dt (none when dt ≤ 0) and returns the
// deaths, the survivors with Level ≤ frac·Capacity and
// NextDepletion(now) over the survivors, each in ascending ID order with
// ties to the lowest ID.
func (r *denseRef) pass(dt, now, frac float64) (died, low []NodeID, at float64, who NodeID) {
	at, who = math.Inf(1), ParentNone
	for i := range r.bats {
		b := &r.bats[i]
		if !r.alive(i) {
			continue
		}
		drain := r.nw.drainW[i]
		if dt > 0 {
			b.Drain(drain * dt)
			if b.Depleted() {
				died = append(died, NodeID(i))
				continue
			}
		}
		if b.Level() <= frac*b.Capacity() {
			low = append(low, NodeID(i))
		}
		if drain <= 0 {
			continue
		}
		if t := now + b.Level()/drain; t < at {
			at, who = t, NodeID(i)
		}
	}
	return died, low, at, who
}

// checkLazy takes the dense reference's half of a step of dt (none when
// dt ≤ 0) to clock now, and holds the lazy network, whose half reported
// died, to it: every level bit for bit and every live bit, read without
// syncing; the deaths; the low set; and NextDepletion.
func checkLazy(t *testing.T, got *Network, ref *denseRef, died []NodeID, dt, now, frac float64, tag string) {
	t.Helper()
	wantDied, low, at, who := ref.pass(dt, now, frac)
	for i := range ref.bats {
		b := got.replayed(i)
		if g, w := b.Level(), ref.bats[i].Level(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: node %d level %v lazily, %v densely", tag, i, g, w)
		}
		if got.live.get(i) != ref.alive(i) {
			t.Fatalf("%s: node %d live %v lazily, %v densely", tag, i, got.live.get(i), ref.alive(i))
		}
	}
	if len(died) > 0 || len(wantDied) > 0 {
		if !slices.Equal(died, wantDied) {
			t.Fatalf("%s: lazy step died %v, dense step %v", tag, died, wantDied)
		}
	}
	var gotLow []NodeID
	for i := range ref.bats {
		if got.low.get(i) {
			gotLow = append(gotLow, NodeID(i))
		}
	}
	if !slices.Equal(gotLow, low) {
		t.Fatalf("%s: lazy low set %v, dense scan %v", tag, gotLow, low)
	}
	if gat, gwho := got.NextDepletion(now); math.Float64bits(gat) != math.Float64bits(at) || gwho != who {
		t.Fatalf("%s: lazy forecast (%v, %d), dense scan (%v, %d)", tag, gat, gwho, at, who)
	}
}

// TestSyncAtDeathKey drives a node to one step either side of its death
// key and holds sync to a dense replay of the same steps, bit for bit.
// Below the key the node is still queued in deaths and its span replays
// as a bare subtraction chain; the step that reaches the key pops it, and
// its sync goes through the checked loop. The levels put its death in
// the step after the key, or exactly on the depletion mark.
func TestSyncAtDeathKey(t *testing.T) {
	specs := []NodeSpec{{Pos: geom.Pt(0, 0)}, {Pos: geom.Pt(30, 0)}}
	const i = 1
	for _, dt := range []float64{1, 7.3, 60} {
		for _, steps := range []float64{100, 100.5, 100 + 0x1p-30} {
			tag := fmt.Sprintf("dt=%v steps=%v", dt, steps)
			below := mustNetwork(t, specs, Config{Sink: geom.Pt(0, -30), CommRange: 35})
			w := below.DrainWatts(i)
			below.SetLevel(i, energy.DepletedEpsJ+w*dt*steps)
			start, key := below.bats[i], below.deaths.key[i]
			past := below.Fork()
			var dts []float64
			for below.clock+dt < key {
				below.AdvanceEnergy(dt)
				past.AdvanceEnergy(dt)
				dts = append(dts, dt)
			}
			if below.deaths.pos[i] < 0 || int(below.synced[i]) != 0 {
				t.Fatalf("%s: node left the deaths heap or synced before its key", tag)
			}
			dense := func(dts []float64) energy.Battery {
				b := start
				for _, dt := range dts {
					if b.Depleted() {
						break
					}
					b.Drain(w * dt)
				}
				return b
			}
			check := func(got energy.Battery, dts []float64, side string) {
				t.Helper()
				want := dense(dts)
				if math.Float64bits(got.Level()) != math.Float64bits(want.Level()) {
					t.Fatalf("%s, %s the key after %d steps: level %v synced, %v densely", tag, side, len(dts), got.Level(), want.Level())
				}
			}
			below.sync(i)
			check(below.bats[i], dts, "below")
			died := past.AdvanceEnergy(dt)
			dts = append(dts, dt)
			check(past.bats[i], dts, "past")
			if dead := past.bats[i].Depleted(); dead != slices.Contains(died, i) || !dead && past.deaths.pos[i] < 0 {
				t.Fatalf("%s: the step past the key died %v with the node's level at %v", tag, died, past.bats[i].Level())
			}
		}
	}
}

// fuzzLevel sets node i's level from a level byte: bits 0–1 choose
// near-empty, exactly at the threshold, anywhere, or a level shared for
// forecast ties; bits 2–7 scale it.
func fuzzLevel(nw *Network, i int, lv byte, frac float64) {
	c, v := nw.Capacity(NodeID(i)), float64(lv>>2)
	switch lv & 3 {
	case 0:
		nw.SetLevel(NodeID(i), c*v/1024)
	case 1:
		nw.SetLevel(NodeID(i), frac*c)
	case 2:
		nw.SetLevel(NodeID(i), c*v/63)
	case 3:
		nw.SetLevel(NodeID(i), c/4)
	}
}

// FuzzAdvanceEnergyPass holds one lazy step to the dense pass it
// replaces: levels, deaths, the low set and (NextAt, Next) must match bit
// for bit over two back-to-back steps.
//
// Input layout: data[0] holds the flags — bit 0 a radio with no sensing
// or idle draw (its disconnected nodes drain nothing), bits 1–2 the step
// length (0, 60 s, 900 s, a day), bits 3–4 the request fraction, bit 5 a
// sink out of every node's range, bit 6 a Recompute after setup. data[1]
// picks the node count; then three bytes per node: its grid cell, its
// level (see fuzzLevel), and bit 0 of the third fails it.
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
		nw.SetRequestFraction(frac)
		for i := range specs {
			fuzzLevel(nw, i, data[3*i+1], frac)
			if data[3*i+2]&1 != 0 {
				nw.Fail(NodeID(i))
			}
		}
		if flags&(1<<6) != 0 {
			nw.Recompute()
		}
		ref := newDenseRef(nw)
		now := 3600.0
		for round := 0; round < 2; round++ {
			now += dt
			died := nw.AdvanceEnergy(dt)
			checkLazy(t, nw, ref, died, dt, now, frac, "round")
		}
	})
}

// FuzzLazyDrain drives the lazy network and the dense reference through
// a random sequence of steps and between-step events: Charge, Drain,
// Fail, Repair, SetLevel (exactly at DepletedEpsJ, or a level that a
// 900 s step brings exactly onto it), Recompute, a Fork that carries a
// step backlog, and a forced re-keying. After every event it requires
// bit-identical levels and live bits, the same deaths, the same low set
// and the same NextDepletion.
//
// Input layout: data[0] holds the flags — bit 0 a radio with no sensing
// or idle draw (zero-drain nodes off the tree), bit 1 a sink out of
// every node's range (every node drains the same, so levels shared by
// fuzzLevel tie in the forecast), bit 2 energy-aware routing, bits 3–4
// the request fraction. data[1] picks the node count; then two bytes per
// node: its grid cell and its level (see fuzzLevel). Then two bytes per
// event: the first's bits 0–2 the kind and bits 3–7 the node, the
// second a parameter.
func FuzzLazyDrain(f *testing.F) {
	// Steps of every length over a default-radio grid, with charges,
	// drains, a fault and its repair, and a Recompute.
	f.Add([]byte{0, 8, 0, 1<<2 | 0, 1, 3, 2, 40<<2 | 2, 6, 1, 7, 3, 8, 2<<2 | 0, 12, 63<<2 | 2, 13, 3,
		0, 2, 1 << 3, 0, 0, 3, 2 | 1<<3, 9, 0, 4, 3 | 2<<3, 200, 4 | 3<<3, 0, 6, 0, 1, 0,
		4 | 3<<3, 0, 6, 0, 0, 1, 0, 2, 1, 0})
	// A sink out of range: equal drains, tied forecasts, and levels
	// landing exactly on the depletion mark.
	f.Add([]byte{1 << 1, 6, 0, 3, 1, 3, 2, 3, 3, 5<<2 | 2, 4, 3, 5, 1,
		5 | 1<<3, 1 << 2, 5 | 2<<3, 1 << 2, 0, 2, 1, 0, 5 | 3<<3, 0, 1, 0, 2 | 1<<3, 50, 1, 0, 0, 4})
	// Zero-drain nodes off the tree, a Fork with a backlog and a forced
	// re-keying between steps.
	f.Add([]byte{1 | 1<<3, 7, 0, 2<<2 | 0, 1, 30<<2 | 2, 20, 3, 21, 1, 33, 1, 34, 3, 35, 0,
		0, 2, 0, 3, 7, 0, 0, 2, 7, 1, 0, 4, 1, 0, 3 | 1<<3, 255, 1, 0, 6, 0, 0, 3})
	// Energy-aware routing, which syncs every node at each Recompute.
	f.Add([]byte{1 << 2, 5, 0, 3, 1, 20<<2 | 2, 2, 3, 6, 1<<2 | 0, 7, 3,
		0, 2, 6, 0, 0, 3, 2 | 2<<3, 30, 6, 0, 1, 0, 0, 4})
	dts := [8]float64{1e-3, 0.5, 60, 900, 3600, 86400, 7 * 86400, 0}
	fracs := [4]float64{0.3, 0.5, 0.125, 0.75}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		flags := data[0]
		frac := fracs[flags>>3&3]
		cfg := Config{Sink: geom.Pt(0, -30), CommRange: 35}
		if flags&1 != 0 {
			cfg.Radio = energy.RadioModel{ElecJPerBit: 50e-9, AmpJPerBitM2: 100e-12}
		}
		if flags&2 != 0 {
			cfg.Sink = geom.Pt(1000, 1000)
		}
		if flags&4 != 0 {
			cfg.Policy = PolicyEnergyAware
		}
		n := 1 + int(data[1])%32
		data = data[2:]
		if len(data) < 2*n {
			return
		}
		specs := make([]NodeSpec, n)
		for i := range specs {
			cell := int(data[2*i]) % 36
			specs[i] = NodeSpec{Pos: geom.Pt(float64(cell%6)*30, float64(cell/6)*30)}
		}
		nw := mustNetwork(t, specs, cfg)
		nw.SetRequestFraction(frac)
		for i := range specs {
			fuzzLevel(nw, i, data[2*i+1], frac)
		}
		nw.Recompute()
		ref := newDenseRef(nw)
		now := 3600.0
		checkLazy(t, nw, ref, nil, 0, now, frac, "setup")
		data = data[2*n:]
		if len(data) > 128 {
			data = data[:128]
		}
		for k := 0; k+1 < len(data); k += 2 {
			op, p := data[k], data[k+1]
			i := int(op>>3) % n
			id := NodeID(i)
			c := nw.Capacity(NodeID(i))
			dt := 0.0
			switch op & 7 {
			case 0: // a step of a fixed length
				dt = dts[p&7]
			case 1: // a step to the forecast death, as the world takes it
				dt = 900
				if at, _ := nw.NextDepletion(now); at > now && !math.IsInf(at, 1) {
					dt = at - now
				}
			case 2: // a charge, which may revive
				j := c * float64(p) / 255
				nw.Charge(id, j)
				ref.bats[i].Charge(j)
			case 3: // an out-of-step drain, often lethal
				j := ref.bats[i].Level() * float64(p) / 128
				nw.Drain(id, j)
				ref.bats[i].Drain(j)
			case 4: // a hardware fault or its repair
				on := !ref.failed[i]
				nw.setFailed(i, on)
				ref.failed[i] = on
			case 5: // a forced level
				var j float64
				switch p & 3 {
				case 0:
					j = energy.DepletedEpsJ
				case 1:
					j = energy.DepletedEpsJ + nw.DrainWatts(id)*900
				case 2:
					j = frac * c
				case 3:
					j = c * float64(p>>2) / 64
				}
				nw.SetLevel(id, j)
				ref.bats[i].SetLevel(j)
			case 6: // a routing recompute
				nw.Recompute()
			case 7: // a fork carrying the backlog, or a forced re-keying
				if p&1 == 0 {
					nw = nw.Fork()
					ref.nw = nw
				} else {
					nw.age = rekeyEvery - 1
				}
			}
			if dt <= 0 {
				checkLazy(t, nw, ref, nil, 0, now, frac, "event")
				continue
			}
			now += dt
			died := nw.AdvanceEnergy(dt)
			checkLazy(t, nw, ref, died, dt, now, frac, "step")
		}
	})
}
