package wrsn

// Key-node analysis. A key node is one whose death cuts other alive nodes
// off from the sink: an articulation point of the connectivity graph whose
// removal separates part of the network from the base station. These are
// the targets of the charging spoofing attack — exhausting them partitions
// the network far beyond their own loss.

import "sort"

// KeyNode describes one sink-separator node.
type KeyNode struct {
	// ID is the node.
	ID NodeID
	// Severed is the number of other alive nodes that lose their route to
	// the sink when this node dies.
	Severed int
}

// KeyNodes returns the sink-separator nodes of the current alive topology,
// sorted by decreasing Severed (ties by ascending ID). It runs a single
// DFS rooted at the sink (Tarjan lowpoint computation): a node v separates
// exactly the DFS subtrees of children c with low(c) ≥ disc(v), and the
// Severed count is the total size of those subtrees.
func (nw *Network) KeyNodes() []KeyNode {
	n := len(nw.pos)
	lt := nw.links
	const unvisited = -1
	disc := make([]int, n+1)
	low := make([]int, n+1)
	sub := make([]int, n+1) // DFS subtree sizes (alive sensor nodes only)
	sever := make([]int, n+1)
	for i := range disc {
		disc[i] = unvisited
	}

	// Iterative DFS from the sink (index n) to survive deep topologies
	// (chains of thousands of nodes would overflow the goroutine stack
	// with recursion). A frame's edge is its next position in the link
	// table.
	type frame struct {
		v, parent, edge int
	}
	timer := 0
	stack := []frame{{v: n, parent: -1, edge: int(lt.off[n])}}
	disc[n] = timer
	low[n] = timer
	timer++
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.edge < int(lt.off[f.v+1]) {
			w := int(lt.to[f.edge])
			f.edge++
			switch {
			case !nw.inGraph(w):
				// A dead endpoint: not in the alive topology.
			case disc[w] == unvisited:
				disc[w] = timer
				low[w] = timer
				timer++
				stack = append(stack, frame{v: w, parent: f.v, edge: int(lt.off[w])})
			case w != f.parent && disc[w] < low[f.v]:
				low[f.v] = disc[w]
			}
			continue
		}
		// Post-order: fold this vertex into its parent.
		v := f.v
		stack = stack[:len(stack)-1]
		if v != n {
			sub[v]++ // count v itself
		}
		if len(stack) > 0 {
			p := &stack[len(stack)-1]
			if low[v] < low[p.v] {
				low[p.v] = low[v]
			}
			sub[p.v] += sub[v]
			// p.v (if not the sink) separates subtree v when no back edge
			// from the subtree climbs above p.v.
			if p.v != n && low[v] >= disc[p.v] {
				sever[p.v] += sub[v]
			}
		}
	}

	keys := make([]KeyNode, 0, 8)
	for i := 0; i < n; i++ {
		if sever[i] > 0 {
			keys = append(keys, KeyNode{ID: NodeID(i), Severed: sever[i]})
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].Severed != keys[b].Severed {
			return keys[a].Severed > keys[b].Severed
		}
		return keys[a].ID < keys[b].ID
	})
	return keys
}

// SeveredByDeath returns how many other alive, currently connected nodes
// would lose their sink route if node id died, computed by brute force
// (re-running reachability without the node). It is the reference
// implementation KeyNodes is validated against.
func (nw *Network) SeveredByDeath(id NodeID) int {
	if !nw.Alive(id) {
		return 0
	}
	seen, base := nw.reach(-1)
	if base == 0 || !seen[id] {
		// A node the sink cannot reach severs nothing by dying.
		return 0
	}
	_, after := nw.reach(int(id))
	// Exclude the node itself from the difference: dying removes it too,
	// but Severed counts only *other* nodes cut off.
	return base - 1 - after
}

// reach runs a breadth-first search from the sink over the alive
// topology, never entering graph index skip. It returns the reached set
// (indexed by graph index, sink included) and the number of nodes in it.
func (nw *Network) reach(skip int) ([]bool, int) {
	n := len(nw.pos)
	seen := make([]bool, n+1)
	queue := append(make([]int32, 0, n+1), int32(n))
	seen[n] = true
	for k := 0; k < len(queue); k++ {
		to, _ := nw.links.row(int(queue[k]))
		for _, w := range to {
			if int(w) == skip || seen[w] || !nw.inGraph(int(w)) {
				continue
			}
			seen[w] = true
			queue = append(queue, w)
		}
	}
	return seen, len(queue) - 1
}

// Betweenness returns the shortest-path betweenness centrality of every
// node in the alive topology (Brandes' algorithm over unweighted hops,
// sink included as a vertex but not reported). Betweenness ranks
// near-critical nodes that articulation analysis misses — nodes carrying
// most routes without being strict separators — and feeds the attack's
// secondary target scoring.
func (nw *Network) Betweenness() []float64 {
	n := len(nw.pos)
	cb := make([]float64, n+1)
	// Scratch buffers reused across sources.
	sigma := make([]float64, n+1)
	dist := make([]int, n+1)
	delta := make([]float64, n+1)
	preds := make([][]int, n+1)
	order := make([]int, 0, n+1)
	queue := make([]int, 0, n+1)

	for s := 0; s <= n; s++ {
		if s < n && !nw.live.get(s) {
			continue
		}
		for i := 0; i <= n; i++ {
			sigma[i] = 0
			dist[i] = -1
			delta[i] = 0
			preds[i] = preds[i][:0]
		}
		order = order[:0]
		queue = append(queue[:0], s)
		sigma[s] = 1
		dist[s] = 0
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			to, _ := nw.links.row(v)
			for _, w32 := range to {
				w := int(w32)
				if !nw.inGraph(w) {
					continue
				}
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
					preds[w] = append(preds[w], v)
				}
			}
		}
		for i := len(order) - 1; i >= 0; i-- {
			w := order[i]
			for _, v := range preds[w] {
				delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
			}
			if w != s {
				cb[w] += delta[w]
			}
		}
	}
	// Undirected graph: each pair counted twice.
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = cb[i] / 2
	}
	return out
}
