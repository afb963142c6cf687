package wrsn

import (
	"math"

	"github.com/reprolab/wrsn-csa/internal/energy"
)

// Incremental shortest-path-tree maintenance.
//
// Between two Recompute calls only the alive set can change (edge weights
// are pure functions of position except under PolicyEnergyAware, which
// always rebuilds fully). The invalidation rule:
//
//   - A node that left the alive set invalidates exactly its own SPT
//     subtree: every other node's tree path avoids it, so removing it
//     cannot change their distances — and cannot change their
//     predecessors either, because the canonical tie-break (below) makes
//     each predecessor a pure function of the final distances.
//   - A node that joined the alive set invalidates only itself; any
//     improvement it offers the rest of the graph propagates outward
//     through ordinary relaxation from the re-run's frontier.
//
// The affected set A is therefore (removed nodes ∪ their descendants in
// the previous tree) ∪ added nodes. Members of A are reset to
// (+Inf, no-pred), seeded by relaxing every edge from a settled non-A
// neighbor (and the sink) into them, and Dijkstra runs over that frontier,
// relaxing all alive neighbors of each popped node so improvements may
// spill out of A. Everything outside A keeps its settled distance. A node
// outside A joins it when the wave changes its predecessor: a strictly
// shorter path, or an equally short one through a parent with a smaller
// (distance, index) key (relax's equal branch). After the wave, A holds
// every node whose distance or predecessor moved.
//
// Exactness through ties is what makes this reproduce a full rebuild bit
// for bit. The heap orders by the (distance, index) key, and relax applies
// an equal-distance rule: a parent with the lexicographically smaller
// (distance, index) key wins. At termination every node's predecessor is
// the key-minimal element of its optimal-parent set — a local property of
// the final distances, independent of relaxation order or of which subset
// of the graph was re-run.
//
// Derivation then touches only A. Each member gets its parent, route
// distance and children-list membership (lists stay ascending by ID,
// patched in place). A node's load is its own traffic plus the sum of
// gen + relay over its children in load order, the same fold the full
// rebuild runs (deriveAll), so a node needs re-folding only when its
// children, their order or their relay changed, or its own parent did.
// The dirty set starts as A plus every member's old and new parent;
// folding a node whose relay changed dirties its parent, so the fold
// climbs the ancestor chains and stops where a relay comes out the same.
// Dirty nodes pop from a heap keyed by load order, so children usually
// fold before their parents; a child that orders after its parent (equal
// route distance, higher ID) re-dirties the parent when its relay
// changes. A drain is rewritten only where it changed, and the node is
// synced under its old drain first and re-keyed after (see drain.go).
// The incremental oracle test and FuzzIncrementalRouting pin every field
// (distances, predecessors, parents, children order, loads, drains)
// against a from-scratch reference.
//
// A full rebuild remains the fallback: when no valid tree exists, when the
// policy is energy-aware, when incremental maintenance is toggled off,
// when A grows past half the network (patching would cost more than
// rebuilding), and when the patched tree has a pred cycle (see
// deriveAll).

// incrementalMaxAffectedFrac bounds the affected set; past this fraction
// of the network a full rebuild is cheaper than patching.
const incrementalMaxAffectedFrac = 0.5

// SetIncrementalRouting toggles incremental tree maintenance (on by
// default). On, a Recompute after a few deaths or repairs re-runs
// Dijkstra over the invalidated subtrees only and re-derives only the
// nodes it patched and their ancestor chains. Off forces every Recompute
// down the full-Dijkstra path, which re-derives every node. The results
// are bit-identical either way; the toggle exists to benchmark the
// full-rebuild baseline and as an operational escape hatch.
func (nw *Network) SetIncrementalRouting(on bool) { nw.fullOnly = !on }

// recomputeIncremental patches the shortest-path tree after an alive-set
// change, assuming nw.live is fresh and a valid tree exists. It returns
// false when the caller must run a full rebuild instead (the affected set
// is too large, or a pred cycle formed). An unchanged alive set returns
// true immediately: the tree, loads, and drains are already exact.
func (nw *Network) recomputeIncremental() bool {
	n := len(nw.nodes)
	nw.inA.reset()
	aff := nw.affected[:0]
	stack := nw.stack[:0]

	// Removed nodes (alive before, not now) seed the subtree walk; added
	// nodes (alive now, not before) join the affected set directly.
	removed := nw.prevLive.appendAndNot(stack, nw.live)
	stack = removed
	for _, v := range removed {
		nw.inA.set(int(v))
	}
	aff = append(aff, removed...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range nw.children[v] {
			if !nw.inA.get(int(c)) {
				nw.inA.set(int(c))
				aff = append(aff, int32(c))
				stack = append(stack, int32(c))
			}
		}
	}
	addedFrom := len(aff)
	aff = nw.live.appendAndNot(aff, nw.prevLive)
	for _, v := range aff[addedFrom:] {
		nw.inA.set(int(v))
	}

	nw.affected = aff[:0]
	nw.stack = stack[:0]
	if len(aff) == 0 {
		return true // alive set unchanged: the tree is already exact
	}
	if float64(len(aff)) > incrementalMaxAffectedFrac*float64(n) {
		return false
	}

	// Invalidate the affected set, then seed it: every edge from a
	// settled (finite-distance, non-affected, alive) neighbor — or from
	// the sink — into an affected alive node is a candidate first hop.
	for _, v := range aff {
		nw.dist[v] = math.Inf(1)
		nw.pred[v] = predNone
	}
	nw.pq = nw.pq[:0]
	for _, v32 := range aff {
		v := int(v32)
		if !nw.live.get(v) {
			continue
		}
		to, ln := nw.links.row(v)
		for k, u32 := range to {
			u := int(u32)
			switch {
			case u == n:
				nw.relax(n, 0, ln[k], v)
			case !nw.inA.get(u) && nw.live.get(u) && !math.IsInf(nw.dist[u], 1):
				nw.relax(u, nw.dist[u], ln[k], v)
			}
		}
	}

	// Dijkstra over the frontier. Popped nodes relax every alive
	// neighbor, not just affected ones, so a path improvement introduced
	// by a repaired node propagates beyond A; unaffected neighbors whose
	// settled distance is already optimal reject the offer and the wave
	// dies out at A's boundary. Any node whose predecessor the wave moves
	// — by a strictly shorter path or through relax's equal branch — joins
	// the affected set, so derivation sees every moved node, not just the
	// invalidated ones.
	for len(nw.pq) > 0 {
		it := nw.pq.pop()
		if it.d > nw.dist[it.idx] {
			continue
		}
		to, ln := nw.links.row(it.idx)
		for k, v32 := range to {
			v := int(v32)
			if v == n || !nw.live.get(v) {
				continue
			}
			if nw.relax(it.idx, it.d, ln[k], v) && !nw.inA.get(v) {
				nw.inA.set(v)
				aff = append(aff, v32)
			}
		}
	}

	nw.affected = aff[:0]
	return nw.deriveAffected(aff)
}

// deriveAffected re-derives the tree after the wave: parent, route
// distance and children-list membership for the affected nodes, then
// loads and drains by folding the dirty set (see the header comment). It
// returns false, leaving the derived state for a full rebuild to
// overwrite, when the patched tree has a pred cycle.
func (nw *Network) deriveAffected(aff []int32) bool {
	for _, v32 := range aff {
		v := int(v32)
		old, p := nw.parent[v], nw.treeParent(v)
		nw.hopDist[v] = nw.dist[v]
		nw.setParent(v, p)
		nw.markDirty(v)
		if old >= 0 {
			nw.markDirty(int(old))
			if old != p {
				nw.children[old] = removeChild(nw.children[old], NodeID(v))
			}
		}
		if p >= 0 {
			nw.markDirty(int(p))
			if old != p {
				nw.children[p] = insertChild(nw.children[p], NodeID(v))
			}
		}
	}
	if nw.formsCycle(aff) {
		for len(nw.dirty) > 0 {
			nw.inDirty.clear(nw.dirty.pop().idx)
		}
		return false
	}
	base := nw.radio.SenseW + nw.radio.IdleW
	for len(nw.dirty) > 0 {
		i := nw.dirty.pop().idx
		nw.inDirty.clear(i)
		p := nw.parent[i]
		if p == ParentNone {
			nw.loads[i] = energy.Load{}
			nw.setDrain(i, base)
			continue
		}
		ld := nw.foldLoad(i)
		if p >= 0 && ld.RelayBps != nw.loads[i].RelayBps {
			nw.markDirty(int(p))
		}
		nw.loads[i] = ld
		nw.setDrain(i, nw.radio.DrainWatts(ld))
	}
	return true
}

// markDirty queues node i for re-folding unless it is already queued.
// Keyed by negated route distance, the (distance, index) heap pops in
// load order: descending route distance, ascending ID. The key reads
// dist, which the wave has settled, rather than hopDist, which an
// affected node's derivation may not have reached yet.
func (nw *Network) markDirty(i int) {
	if !nw.inDirty.get(i) {
		nw.inDirty.set(i)
		nw.dirty.push(distItem{idx: i, d: -nw.dist[i]})
	}
}

// setDrain stores node i's drain. A changed drain changes the node's
// trajectory, so the node is synced under the old one and re-keyed. A
// new network's first rebuild writes every drain before any node is
// keyed (no tree is valid yet, and no step has run); recomputeFull then
// keys them all at once.
func (nw *Network) setDrain(i int, w float64) {
	if nw.drainW[i] != w {
		nw.sync(i)
		nw.drainW[i] = w
		if nw.treeValid {
			nw.rekey(i)
		}
	}
}

// formsCycle reports whether some affected node's new parent chain runs
// into a pred cycle. Route distance never decreases from parent to child,
// so every node on a cycle has the same distance, and a cycle that was
// not there before (a cyclic tree is never patched) runs through a node
// whose parent moved — an affected node. The walk from each affected node
// therefore follows only equal-distance parents; it almost always stops
// at the first step. A walk longer than the network is inside a cycle
// that does not pass through its start.
func (nw *Network) formsCycle(aff []int32) bool {
	for _, v32 := range aff {
		v := NodeID(v32)
		d := nw.hopDist[v]
		u := nw.parent[v]
		for steps := 0; u >= 0 && nw.hopDist[u] == d; steps++ {
			if u == v || steps > len(nw.nodes) {
				return true
			}
			u = nw.parent[u]
		}
	}
	return false
}

// insertChild inserts c into the ascending children list s.
func insertChild(s []NodeID, c NodeID) []NodeID {
	k := len(s)
	for k > 0 && s[k-1] > c {
		k--
	}
	s = append(s, 0)
	copy(s[k+1:], s[k:])
	s[k] = c
	return s
}

// removeChild removes c from the ascending children list s, keeping the
// order.
func removeChild(s []NodeID, c NodeID) []NodeID {
	for k, x := range s {
		if x == c {
			return append(s[:k], s[k+1:]...)
		}
	}
	return s
}
