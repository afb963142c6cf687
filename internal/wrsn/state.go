package wrsn

import (
	"fmt"

	"github.com/reprolab/wrsn-csa/internal/energy"
	"github.com/reprolab/wrsn-csa/internal/geom"
)

// NodeState is the serializable state of one sensor node: everything needed
// to reconstruct the node exactly, including the true (un-metered) battery
// level and the hardware-fault flag.
type NodeState struct {
	Pos       geom.Point `json:"pos"`
	GenBps    float64    `json:"gen_bps"`
	CapacityJ float64    `json:"capacity_j"`
	LevelJ    float64    `json:"level_j"`
	QuantumJ  float64    `json:"quantum_j"`
	Failed    bool       `json:"failed,omitempty"`
}

// State is the serializable form of a Network. It carries only primary
// state — node specs, sink, radio, policy — not the derived routing tree:
// Recompute is deterministic, so FromState rebuilds routing, loads, and
// drains bit-identically from the primary state alone. The wire format is
// storage-layout agnostic: it reads per-node rows out of the dense
// struct-of-arrays block and writes them back, so snapshots taken before
// the SoA refactor decode into identical networks.
type State struct {
	Sink      geom.Point        `json:"sink"`
	CommRange float64           `json:"comm_range"`
	Radio     energy.RadioModel `json:"radio"`
	Policy    RoutingPolicy     `json:"policy"`
	Nodes     []NodeState       `json:"nodes"`
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
		Nodes:     make([]NodeState, len(nw.nodes)),
	}
	for i := range nw.nodes {
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
// identical routing tree, loads, and drain rates.
func FromState(st State) (*Network, error) {
	if len(st.Nodes) == 0 {
		return nil, ErrNoNodes
	}
	if st.CommRange <= 0 {
		return nil, fmt.Errorf("wrsn: state has non-positive comm range %v", st.CommRange)
	}
	if err := st.Radio.Validate(); err != nil {
		return nil, err
	}
	nw := &Network{
		sink:      st.Sink,
		commRange: st.CommRange,
		radio:     st.Radio,
		policy:    st.Policy,
	}
	nw.grow(len(st.Nodes))
	for i, ns := range st.Nodes {
		var err error
		if nw.bats[i], err = energy.MakeBattery(ns.CapacityJ, ns.LevelJ, ns.QuantumJ); err != nil {
			return nil, fmt.Errorf("wrsn: node %d: %w", i, err)
		}
		nw.pos[i] = ns.Pos
		nw.genBps[i] = ns.GenBps
		if ns.Failed {
			nw.failed.set(i)
		}
		nw.nodes[i] = Node{ID: NodeID(i), Pos: ns.Pos, GenBps: ns.GenBps, net: nw}
		nw.ptrs[i] = &nw.nodes[i]
	}
	nw.initLive()
	if err := nw.index(); err != nil {
		return nil, err
	}
	nw.Recompute()
	return nw, nil
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
	n := len(nw.nodes)
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
	for i := range f.nodes {
		f.nodes[i] = Node{ID: NodeID(i), Pos: f.pos[i], GenBps: f.genBps[i], net: f}
		f.ptrs[i] = &f.nodes[i]
	}
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
