// Package wrsn models the wireless rechargeable sensor network substrate:
// nodes, the sink, radio connectivity, sink-rooted routing, per-node traffic
// load, key-node analysis (which nodes partition the network when they die),
// and depletion forecasting.
package wrsn

import (
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
type Node struct {
	// ID is the node's index within the network.
	ID NodeID
	// Pos is the deployment location in meters.
	Pos geom.Point
	// Battery is the node's energy store; it points into the network's
	// dense battery array.
	Battery *energy.Battery
	// GenBps is the node's locally generated (sensed) data rate in bits
	// per second.
	GenBps float64

	// net backs the hardware-fault bit, which lives in the network's
	// failed bitset rather than in the view.
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
func (n *Node) Alive() bool { return !n.net.failed.get(int(n.ID)) && !n.Battery.Depleted() }

// Fail powers the node off with a hardware fault. Idempotent.
func (n *Node) Fail() {
	n.net.failed.set(int(n.ID))
	n.net.epoch++
}

// Repair clears a hardware fault; the node rejoins with whatever charge
// its battery held when it failed. Idempotent.
func (n *Node) Repair() {
	n.net.failed.clear(int(n.ID))
	n.net.epoch++
}

// Failed reports whether the node is hardware-failed (independent of
// battery state).
func (n *Node) Failed() bool { return n.net.failed.get(int(n.ID)) }
