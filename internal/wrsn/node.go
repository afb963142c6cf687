// Package wrsn models the wireless rechargeable sensor network substrate:
// nodes, the sink, radio connectivity, sink-rooted routing, per-node traffic
// load, key-node analysis (which nodes partition the network when they die),
// and depletion forecasting.
package wrsn

import (
	"fmt"

	"github.com/reprolab/wrsn-csa/internal/energy"
	"github.com/reprolab/wrsn-csa/internal/geom"
)

// NodeID identifies a sensor node within its network; IDs are dense indices
// assigned at construction. Every per-node read and write goes through the
// Network by ID; indexing with an ID outside [0, Len()) panics, so input
// from outside the process is checked with Has first.
type NodeID int

// NodeSpec describes a node to be constructed by NewNetwork.
type NodeSpec struct {
	Pos geom.Point
	// GenBps is the sensed data rate; non-positive values get DefaultGenBps.
	GenBps float64
	// BatteryJ is the battery capacity; non-positive values get
	// DefaultBatteryJ.
	BatteryJ float64
	// InitialFrac is the initial charge as a fraction of capacity; values
	// outside (0,1] get 1 (full).
	InitialFrac float64
}

// state applies the spec's defaults: it returns the node row NewNetwork
// builds the node from.
func (s NodeSpec) state() NodeState {
	capJ := s.BatteryJ
	if capJ <= 0 {
		capJ = DefaultBatteryJ
	}
	frac := s.InitialFrac
	if frac <= 0 || frac > 1 {
		frac = 1
	}
	gen := s.GenBps
	if gen <= 0 {
		gen = DefaultGenBps
	}
	return NodeState{Pos: s.Pos, GenBps: gen, CapacityJ: capJ, LevelJ: capJ * frac, QuantumJ: DefaultMeterQuantumJ}
}

// Normalized returns the spec as NewNetwork applies it: the generation
// rate and capacity with their defaults filled in, and InitialFrac
// re-derived as the initial level over the capacity.
func (s NodeSpec) Normalized() (NodeSpec, error) {
	ns := s.state()
	b, err := ns.battery(0)
	if err != nil {
		return NodeSpec{}, err
	}
	return NodeSpec{Pos: s.Pos, GenBps: ns.GenBps, BatteryJ: b.Capacity(), InitialFrac: b.Level() / b.Capacity()}, nil
}

// battery validates the row of node i, the one check every construction
// path applies: the position, the rate and the battery figures must be
// finite and the battery well formed. It returns the node's initial
// battery.
func (ns NodeState) battery(i int) (energy.Battery, error) {
	if !finite(ns.Pos.X) || !finite(ns.Pos.Y) {
		return energy.Battery{}, fmt.Errorf("wrsn: node %d: non-finite position %v", i, ns.Pos)
	}
	for _, v := range [...]float64{ns.GenBps, ns.CapacityJ, ns.LevelJ, ns.QuantumJ} {
		if !finite(v) {
			return energy.Battery{}, fmt.Errorf("wrsn: node %d: non-finite rate or battery figure %v", i, v)
		}
	}
	b, err := energy.MakeBattery(ns.CapacityJ, ns.LevelJ, ns.QuantumJ)
	if err != nil {
		return energy.Battery{}, fmt.Errorf("wrsn: node %d: %w", i, err)
	}
	return b, nil
}

// Default node parameters: a 10.8 kJ battery (the 2×AA-equivalent constant
// used across the WRSN charging literature) sensing at 2 kbps — low enough
// that sink-adjacent relays stay within what a single mobile charger can
// keep alive, high enough that relay load dominates their drain.
const (
	DefaultBatteryJ = 10800.0
	DefaultGenBps   = 2000.0
	// DefaultMeterQuantumJ is the coulomb-counter resolution of the node's
	// battery gauge.
	DefaultMeterQuantumJ = 0.5
)

// Has reports whether id names a node of the network.
func (nw *Network) Has(id NodeID) bool { return id >= 0 && int(id) < len(nw.pos) }

// Pos returns node id's deployment location in meters.
func (nw *Network) Pos(id NodeID) geom.Point { return nw.pos[id] }

// Alive reports whether node id is in service: not hardware-failed and
// not battery-depleted. Routing, drain, and forecasting all key off
// Alive, so a failed node drops out of the network exactly like a dead
// one — but its battery is preserved and it returns on Repair.
func (nw *Network) Alive(id NodeID) bool { return nw.live.get(int(id)) }

// Fail powers node id off with a hardware fault. Idempotent.
func (nw *Network) Fail(id NodeID) { nw.setFailed(int(id), true) }

// Repair clears node id's hardware fault; the node rejoins with whatever
// charge its battery held when it failed. Idempotent.
func (nw *Network) Repair(id NodeID) { nw.setFailed(int(id), false) }

// Failed reports whether node id is hardware-failed (independent of
// battery state).
func (nw *Network) Failed(id NodeID) bool { return nw.failed.get(int(id)) }

// Battery reads bring the node up to the network clock first: the drain
// is lazy (see drain.go), so a stored level can lag it.

// Level returns node id's true battery charge in joules.
func (nw *Network) Level(id NodeID) float64 {
	nw.sync(int(id))
	return nw.bats[id].Level()
}

// Capacity returns node id's battery capacity in joules.
func (nw *Network) Capacity(id NodeID) float64 { return nw.bats[id].Capacity() }

// MeterRead returns node id's level as its coulomb counter reports it.
func (nw *Network) MeterRead(id NodeID) float64 {
	nw.sync(int(id))
	return nw.bats[id].MeterRead()
}

// Depleted reports whether node id's battery is empty, whatever the
// fault bit. It needs no sync: a node in service is not depleted, one
// out of service and not failed is, and a failed node's level was synced
// when it failed and has not drained since.
func (nw *Network) Depleted(id NodeID) bool {
	i := int(id)
	return !nw.live.get(i) && (!nw.failed.get(i) || nw.bats[i].Depleted())
}
