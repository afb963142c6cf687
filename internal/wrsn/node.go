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
// assigned at construction.
type NodeID int

// Node is the view over one rechargeable sensor node. The node's primary
// state lives in the network's dense struct-of-arrays storage (positions,
// batteries, generation rates, and the failed bitset are parallel slices
// indexed by NodeID); Node is a stable handle over that storage carrying
// the public per-node API, so callers keep the same contract they had
// when nodes were freestanding structs. Handles are pointer-stable for
// the life of the network and safe to copy.
//
// Battery reads and writes go through the handle, never through a
// pointer into the storage: the network drains lazily (see drain.go), so
// a stored level can lag the clock, and every accessor first brings the
// node up to date. A write through a raw pointer would also bypass the
// live, low and event bookkeeping that the lazy drain keeps per node.
type Node struct {
	// ID is the node's index within the network.
	ID NodeID
	// Pos is the deployment location in meters.
	Pos geom.Point
	// GenBps is the node's locally generated (sensed) data rate in bits
	// per second.
	GenBps float64

	// net backs the battery and the hardware-fault bit, which live in the
	// network's dense storage rather than in the view.
	net *Network
}

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

// checkPos rejects a spec, the i-th of its network, with a non-finite
// position.
func (s NodeSpec) checkPos(i int) error {
	if !finite(s.Pos.X) || !finite(s.Pos.Y) {
		return fmt.Errorf("wrsn: node %d: non-finite position %v", i, s.Pos)
	}
	return nil
}

// battery applies the spec's defaults: it returns the node's initial
// battery and its generation rate, as NewNetwork builds them.
func (s NodeSpec) battery() (energy.Battery, float64, error) {
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
	b, err := energy.MakeBattery(capJ, capJ*frac, DefaultMeterQuantumJ)
	return b, gen, err
}

// Normalized returns the spec as NewNetwork applies it: the generation
// rate and capacity with their defaults filled in, and InitialFrac
// re-derived as the initial level over the capacity.
func (s NodeSpec) Normalized() (NodeSpec, error) {
	b, gen, err := s.battery()
	if err != nil {
		return NodeSpec{}, err
	}
	return NodeSpec{Pos: s.Pos, GenBps: gen, BatteryJ: b.Capacity(), InitialFrac: b.Level() / b.Capacity()}, nil
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

// Alive reports whether the node is in service: not hardware-failed and
// not battery-depleted. Routing, drain, and forecasting all key off
// Alive, so a failed node drops out of the network exactly like a dead
// one — but its battery is preserved and it returns on Repair.
func (n *Node) Alive() bool { return n.net.live.get(int(n.ID)) }

// Fail powers the node off with a hardware fault. Idempotent.
func (n *Node) Fail() { n.net.setFailed(int(n.ID), true) }

// Repair clears a hardware fault; the node rejoins with whatever charge
// its battery held when it failed. Idempotent.
func (n *Node) Repair() { n.net.setFailed(int(n.ID), false) }

// Failed reports whether the node is hardware-failed (independent of
// battery state).
func (n *Node) Failed() bool { return n.net.failed.get(int(n.ID)) }

// battery returns the node's battery brought up to the network clock.
func (n *Node) battery() *energy.Battery {
	n.net.sync(int(n.ID))
	return &n.net.bats[n.ID]
}

// Level returns the battery's true charge in joules.
func (n *Node) Level() float64 { return n.battery().Level() }

// Capacity returns the battery capacity in joules.
func (n *Node) Capacity() float64 { return n.net.bats[n.ID].Capacity() }

// Fraction returns Level/Capacity in [0,1].
func (n *Node) Fraction() float64 { return n.battery().Fraction() }

// MeterRead returns the level as the node's coulomb counter reports it.
func (n *Node) MeterRead() float64 { return n.battery().MeterRead() }

// Depleted reports whether the battery is empty, whatever the fault bit.
// It needs no sync: a node in service is not depleted, one out of
// service and not failed is, and a failed node's level was synced when
// it failed and has not drained since.
func (n *Node) Depleted() bool {
	i := int(n.ID)
	return !n.net.live.get(i) && (!n.net.failed.get(i) || n.net.bats[i].Depleted())
}

// SetLevel forces the battery level (clamped to [0, capacity]); it is for
// scenario setup and tests, not for simulation dynamics.
func (n *Node) SetLevel(j float64) { n.net.SetLevel(n.ID, j) }
