package wrsn

import (
	"fmt"
	"math"
)

// Depletion forecasting. Under the steady-state load model each node drains
// at a constant power, so request and death times are closed-form. The
// attack planner uses these forecasts to derive each key node's time
// window: the interval between "the node asks to be charged" and "the node
// dies", inside which a spoofed charging visit is both expected by the
// network and fatal to the node.

// DefaultRequestFraction is the battery fraction at which a node issues a
// charging request, the standard on-demand-charging trigger.
const DefaultRequestFraction = 0.30

// Forecast is a node's projected energy trajectory under current loads.
type Forecast struct {
	ID NodeID
	// DrainWatts is the projected constant drain.
	DrainWatts float64
	// RequestAt is the absolute time (seconds from now's origin) at which
	// the battery crosses the request threshold; 0 when already below,
	// +Inf when it never will (no drain).
	RequestAt float64
	// DeathAt is the absolute time at which the battery empties; +Inf when
	// it never will.
	DeathAt float64
}

// Window returns the charging window [RequestAt, DeathAt] length. A dead or
// drainless node reports 0.
func (f Forecast) Window() float64 {
	if math.IsInf(f.DeathAt, 1) {
		return 0
	}
	w := f.DeathAt - f.RequestAt
	if w < 0 {
		return 0
	}
	return w
}

// ForecastAt projects node id's trajectory starting at absolute time now,
// with requests issued at the given battery fraction. Fractions outside
// (0,1) get DefaultRequestFraction.
func (nw *Network) ForecastAt(id NodeID, now, requestFrac float64) (Forecast, error) {
	if int(id) < 0 || int(id) >= len(nw.nodes) {
		return Forecast{}, fmt.Errorf("wrsn: forecast for node %d out of range", id)
	}
	if requestFrac <= 0 || requestFrac >= 1 {
		requestFrac = DefaultRequestFraction
	}
	drain := nw.DrainWatts(id)
	f := Forecast{ID: id, DrainWatts: drain}
	if !nw.aliveIdx(int(id)) {
		f.RequestAt, f.DeathAt = now, now
		return f, nil
	}
	if drain <= 0 {
		f.RequestAt, f.DeathAt = math.Inf(1), math.Inf(1)
		return f, nil
	}
	level := nw.bats[id].Level()
	threshold := requestFrac * nw.bats[id].Capacity()
	if level <= threshold {
		f.RequestAt = now
	} else {
		f.RequestAt = now + (level-threshold)/drain
	}
	f.DeathAt = now + level/drain
	return f, nil
}

// ForecastAll projects every node; see ForecastAt.
func (nw *Network) ForecastAll(now, requestFrac float64) []Forecast {
	out := make([]Forecast, len(nw.nodes))
	for i := range nw.nodes {
		f, err := nw.ForecastAt(NodeID(i), now, requestFrac)
		if err != nil {
			// Unreachable: i is always in range. Keep the zero Forecast
			// rather than panicking in library code.
			continue
		}
		out[i] = f
	}
	return out
}

// AdvanceEnergy drains every alive node for dt seconds at its current
// steady-state rate and returns the IDs of nodes that died during the
// interval. It does not recompute routing; callers decide when topology
// changes warrant a Recompute.
func (nw *Network) AdvanceEnergy(dt float64) []NodeID {
	if dt <= 0 {
		return nil
	}
	var died []NodeID
	for i := range nw.bats {
		if !nw.aliveIdx(i) {
			continue
		}
		nw.bats[i].Drain(nw.drainW[i] * dt)
		if nw.bats[i].Depleted() {
			died = append(died, NodeID(i))
		}
	}
	return died
}

// EnergyPass is what one fused drain pass observed; see
// AdvanceEnergyPass. Its slices are reused by the next pass.
type EnergyPass struct {
	// Died lists the nodes the drain depleted, ascending ID.
	Died []NodeID
	// Low lists the surviving nodes whose level is at or below the
	// request threshold, ascending ID.
	Low []NodeID
	// NextAt and Next are NextDepletion(now) over the survivors.
	NextAt float64
	Next   NodeID
}

// AdvanceEnergyPass is AdvanceEnergy, the request-threshold scan and
// NextDepletion fused into one pass over the dense storage. It drains
// every alive node for dt seconds exactly as AdvanceEnergy does, and in
// the same loop records into p the deaths, the survivors with
// Level ≤ requestFrac·Capacity, and NextDepletion(now) over the
// survivors — each with the float expression of the scan it replaces,
// in ascending ID order, ties to the lowest ID. now is the clock after
// the drain. A non-positive dt drains nothing.
//
// The low list is built without a branch on the threshold test: every
// survivor's ID is stored at the list's next free slot, and the slot
// advances by the test's 0-or-1 result. In a death-heavy world most
// survivors sit below the threshold, scattered by ID, so a branch on
// that test would be close to a coin flip per node. The loop reads the
// dense slices through locals, so the battery stores do not force a
// reload of their headers from nw on every node; in a small world,
// where the branch predictor learns the threshold pattern, that saving
// pays for the unconditional store.
func (nw *Network) AdvanceEnergyPass(dt, now, requestFrac float64, p *EnergyPass) {
	bats, drainW, failed := nw.bats, nw.drainW[:len(nw.bats)], nw.failed
	if cap(p.Low) < len(bats) {
		p.Low = make([]NodeID, len(bats))
	}
	p.Died = p.Died[:0]
	low := p.Low[:len(bats)]
	k := 0
	best := math.Inf(1)
	who := ParentNone
	for i := range bats {
		b := &bats[i]
		if failed.get(i) || b.Depleted() { // !aliveIdx(i)
			continue
		}
		drain := drainW[i]
		if dt > 0 {
			b.Drain(drain * dt)
			if b.Depleted() {
				p.Died = append(p.Died, NodeID(i))
				continue
			}
		}
		low[k] = NodeID(i)
		k += b2i(b.Level() <= requestFrac*b.Capacity())
		if drain <= 0 {
			continue
		}
		if t := now + b.Level()/drain; t < best {
			best, who = t, NodeID(i)
		}
	}
	p.Low = low[:k]
	p.NextAt, p.Next = best, who
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// set, not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Epoch counts the changes that can move NextDepletion at a fixed clock
// other than an AdvanceEnergyPass: every Recompute (drains change),
// every Fail and Repair, every Drain, and every Charge that lands on a
// node out of service (a revived node joins the forecast). A Charge to
// an alive node is not counted: it only postpones that node's own
// depletion, so it can displace a forecast's argmin only by being a
// charge to the argmin itself. A level changed directly through a Node's
// Battery pointer is not counted: code that moves levels while a world
// steps the network must go through Drain and Charge.
func (nw *Network) Epoch() uint64 { return nw.epoch }

// Drain takes up to j joules from node id outside the step pass (a
// defense action's energy cost) and returns the amount removed.
func (nw *Network) Drain(id NodeID, j float64) float64 {
	nw.epoch++
	return nw.bats[id].Drain(j)
}

// Charge stores up to j joules in node id's battery and returns the
// amount stored.
func (nw *Network) Charge(id NodeID, j float64) float64 {
	if !nw.aliveIdx(int(id)) {
		nw.epoch++
	}
	return nw.bats[id].Charge(j)
}

// NextDepletion returns the soonest projected death time among alive nodes
// starting from now, and the node that dies then. When no node will die it
// returns (+Inf, ParentNone). Ties go to the lowest ID (strict < over an
// ascending scan).
func (nw *Network) NextDepletion(now float64) (float64, NodeID) {
	best := math.Inf(1)
	who := ParentNone
	for i := range nw.bats {
		if !nw.aliveIdx(i) {
			continue
		}
		drain := nw.drainW[i]
		if drain <= 0 {
			continue
		}
		t := now + nw.bats[i].Level()/drain
		if t < best {
			best, who = t, NodeID(i)
		}
	}
	return best, who
}

// NextDepletionAfter returns NextDepletion(now), given that (at, who)
// was NextDepletion(now) when the network was at epoch and that who's
// battery level has not changed since. When the only epoch bump since
// then was an incremental Recompute (a no-op one included) that left
// who's drain alone, it rescans only the nodes whose drain that
// Recompute rewrote: every other alive node kept its level and its
// drain, so its projection is unchanged and was already at or after
// (at, who) in (time, ID) order, and who itself still projects exactly
// at. The answer is then the (time, ID) minimum of (at, who) and the
// rewritten alive nodes' projections. Any other history — a full
// rebuild, a Fail, Repair, Drain or revival, or more than one bump —
// gets the full scan.
func (nw *Network) NextDepletionAfter(now, at float64, who NodeID, epoch uint64) (float64, NodeID) {
	if nw.epoch != epoch+1 || nw.incrEpoch != nw.epoch {
		return nw.NextDepletion(now)
	}
	for _, i := range nw.rewritten {
		if NodeID(i) == who {
			return nw.NextDepletion(now)
		}
	}
	for _, i32 := range nw.rewritten {
		i := int(i32)
		drain := nw.drainW[i]
		if drain <= 0 || !nw.aliveIdx(i) {
			continue
		}
		if t := now + nw.bats[i].Level()/drain; t < at || (t == at && NodeID(i) < who) {
			at, who = t, NodeID(i)
		}
	}
	return at, who
}
