package wrsn

import (
	"github.com/reprolab/wrsn-csa/internal/energy"
	"github.com/reprolab/wrsn-csa/internal/geom"
)

// NodeState is the serializable state of one sensor node: everything needed
// to reconstruct the node exactly, including the true (un-metered) battery
// level and the hardware-fault flag.
type NodeState struct {
	Pos       geom.Point
	GenBps    float64
	CapacityJ float64
	LevelJ    float64
	QuantumJ  float64
	Failed    bool
}

// State is the serializable form of a Network. It carries only primary
// state — node specs, sink, radio, policy — not the derived routing tree:
// Recompute is deterministic, so FromState rebuilds routing, loads, and
// drains bit-identically from the primary state alone. The wire format is
// storage-layout agnostic: it reads per-node rows out of the dense
// struct-of-arrays block and writes them back, so snapshots taken before
// the SoA refactor decode into identical networks.
type State struct {
	Sink      geom.Point
	CommRange float64
	Radio     energy.RadioModel
	Policy    RoutingPolicy
	Nodes     []NodeState
}

// State captures the network's current primary state. It syncs every
// node first (see drain.go), which changes no level a reader can see
// and leaves the next capture only the steps taken since. The result is
// self-contained: mutating the network afterwards does not alter it.
func (nw *Network) State() State {
	nw.syncAll()
	st := State{
		Sink:      nw.sink,
		CommRange: nw.commRange,
		Radio:     nw.radio,
		Policy:    nw.policy,
		Nodes:     make([]NodeState, len(nw.pos)),
	}
	for i := range nw.pos {
		b := &nw.bats[i]
		st.Nodes[i] = NodeState{
			Pos:       nw.pos[i],
			GenBps:    nw.genBps[i],
			CapacityJ: b.Capacity(),
			LevelJ:    b.Level(),
			QuantumJ:  b.Quantum(),
			Failed:    nw.failed.get(i),
		}
	}
	return st
}

// FromState reconstructs a network from captured state and recomputes
// routing. Because Recompute is a pure function of the primary state, the
// result is indistinguishable from the network State was called on:
// identical routing tree, loads, and drain rates. It validates st as
// NewNetwork validates specs; only the defaults are not applied.
func FromState(st State) (*Network, error) {
	cfg := Config{Sink: st.Sink, CommRange: st.CommRange, Radio: st.Radio, Policy: st.Policy}
	return assemble(cfg, len(st.Nodes), func(i int) NodeState { return st.Nodes[i] })
}

// Fork returns an independent copy-on-write copy of the network: the dense
// primary state is block-copied so the fork's energy dynamics never touch
// the original, while the position grid and the link table — immutable
// after construction — are shared. Each battery is copied brought up to
// the original's clock, so the fork starts with an empty step log. The
// derived routing state, the persisted shortest-path state (distances,
// predecessors, the alive set the tree was computed over) and the lazy
// drain's sets and heaps are copied rather than recomputed, so forking
// skips the Dijkstra pass the original already paid for and the fork's
// first Recompute can continue incrementally.
//
// Fork performs only pure reads of the receiver, so many goroutines may
// fork the same template network concurrently as long as none of them
// mutates it.
func (nw *Network) Fork() *Network {
	n := len(nw.pos)
	f := &Network{
		sink:      nw.sink,
		commRange: nw.commRange,
		radio:     nw.radio,
		policy:    nw.policy,
		grid:      nw.grid,
		links:     nw.links,
	}
	f.grow(n)
	copy(f.pos, nw.pos)
	copy(f.genBps, nw.genBps)
	copy(f.bats, nw.bats)
	if len(nw.dts) > 0 {
		for i := range f.bats {
			f.bats[i] = nw.replayed(i)
		}
	}
	f.failed.copyFrom(nw.failed)
	f.clock, f.age, f.reqFrac = nw.clock, nw.age, nw.reqFrac
	f.live.copyFrom(nw.live)
	f.low.copyFrom(nw.low)
	f.conn.copyFrom(nw.conn)
	f.deaths.copyFrom(&nw.deaths)
	f.crossings.copyFrom(&nw.crossings)
	copy(f.parent, nw.parent)
	copy(f.hopDist, nw.hopDist)
	copy(f.loads, nw.loads)
	copy(f.drainW, nw.drainW)
	copy(f.dist, nw.dist)
	copy(f.pred, nw.pred)
	f.prevLive.copyFrom(nw.prevLive)
	f.treeValid = nw.treeValid
	f.fullOnly = nw.fullOnly
	f.cyclic = nw.cyclic
	for i, c := range nw.children {
		if len(c) > 0 {
			f.children[i] = append([]NodeID(nil), c...)
		}
	}
	return f
}
