package wrsn

import (
	"errors"
	"fmt"
	"math"

	"github.com/reprolab/wrsn-csa/internal/energy"
	"github.com/reprolab/wrsn-csa/internal/geom"
)

// Sentinel parents in the routing tree.
const (
	// ParentSink marks a node that transmits directly to the sink.
	ParentSink NodeID = -1
	// ParentNone marks a node with no route to the sink (disconnected or
	// dead).
	ParentNone NodeID = -2
)

// predNone marks "no predecessor" in the persisted Dijkstra predecessor
// array. The sink's own graph index (len(nodes)) marks "sink is parent";
// everything else is a node's graph index.
const predNone = -1

// ErrNoNodes is returned when a network is constructed without nodes.
var ErrNoNodes = errors.New("wrsn: network requires at least one node")

// Network is a deployed WRSN: sensor nodes, one sink, a disk communication
// model, and a sink-rooted shortest-path routing tree with derived per-node
// traffic loads.
//
// Primary node state is stored struct-of-arrays: positions, generation
// rates, batteries, and the hardware-fault bits are dense parallel slices
// indexed by NodeID, so the hot loops (adjacency builds, energy advance,
// depletion scans) stream contiguous memory instead of chasing per-node
// pointers. Callers address a node by its NodeID through the network's
// accessors (Pos, Alive, Level, Charge, ...); there is no per-node object.
//
// The routing tree and loads are recomputed by Recompute; they reflect only
// nodes that were alive at that call. Recompute maintains the tree
// incrementally across alive-set changes (see incremental.go) and falls
// back to a full Dijkstra rebuild when that is cheaper or required; both
// paths produce bit-identical results. The battery drain is lazy (see
// drain.go), so reading a level can bring a node up to date: Network is
// not safe for concurrent use, reads included, except that Fork only
// reads its receiver.
type Network struct {
	// Struct-of-arrays primary state, all indexed by NodeID.
	pos    []geom.Point
	genBps []float64
	bats   []energy.Battery
	failed bitset

	sink      geom.Point
	commRange float64
	radio     energy.RadioModel
	policy    RoutingPolicy

	// grid indexes node positions (static after construction) for range
	// queries; links is the radio graph built over it once (see
	// links.go). Forks share both.
	grid  *geom.Grid
	links *linkTable

	// Derived state, rebuilt by Recompute.
	parent   []NodeID // routing parent per node
	hopDist  []float64
	loads    []energy.Load
	children [][]NodeID
	// drainW caches DrainWatts per node for the current tree; energy
	// advance and depletion forecasting read it.
	drainW []float64
	// conn mirrors parent != ParentNone, written wherever parent is.
	conn bitset

	// Lazy drain state (see drain.go). dts logs the steps since every
	// node was last synced, synced holds each node's position in it, and
	// clock is the float sum of every step's dt. live is the in-service
	// set and low its members at or below reqFrac of capacity, both kept
	// exact event by event. deaths and crossings key the alive nodes by
	// the earliest clock at which they can deplete or cross the request
	// threshold; age counts the steps since they were last rebuilt.
	dts       []float64
	synced    []int32
	clock     float64
	age       int
	reqFrac   float64
	live      bitset
	low       bitset
	deaths    eventHeap
	crossings eventHeap
	died      []NodeID
	popped    []int32

	// Shortest-path state persisted between Recompute calls for
	// incremental maintenance: Dijkstra distances and predecessors (graph
	// indices, sink = len(nodes)), the alive set the current tree was
	// computed over, and whether a tree exists at all.
	dist      []float64
	pred      []int
	prevLive  bitset
	treeValid bool
	fullOnly  bool
	// fullRebuilds counts recomputeFull runs, so tests can tell the
	// incremental path from the full one.
	fullRebuilds int

	// Scratch buffers reused across Recompute calls so steady-state
	// routing rebuilds stop allocating. All are sized at construction
	// from the node count (see grow), so the first large-N recompute
	// pays no reallocation churn either.
	cand     []int32
	pq       distHeap
	queue    []int32
	kids     []NodeID
	inA      bitset
	affected []int32
	stack    []int32
	dirty    distHeap
	inDirty  bitset
	settled  []int32
	unfolded bitset

	// cyclic records that the last full rebuild found a routing cycle
	// (see deriveAll); incremental maintenance is suspended until a full
	// rebuild finds none.
	cyclic bool
}

// RoutingPolicy selects the edge-weight objective of the sink-rooted
// routing tree.
type RoutingPolicy int

// Routing policies.
const (
	// PolicyShortestDistance minimizes total Euclidean path length — the
	// energy-per-bit-optimal default under the first-order radio model.
	PolicyShortestDistance RoutingPolicy = iota + 1
	// PolicyHopCount minimizes hop count (distance breaks ties), the
	// classic minimum-hop tree.
	PolicyHopCount
	// PolicyEnergyAware penalizes routing through low-residual relays:
	// edge weight grows as the receiving node's battery drains, shifting
	// load away from the weak. It mitigates uneven depletion — but it
	// cannot conjure alternative paths where none exist, which is exactly
	// what makes articulation points attackable.
	PolicyEnergyAware
)

// String implements fmt.Stringer.
func (p RoutingPolicy) String() string {
	switch p {
	case PolicyShortestDistance:
		return "shortest-distance"
	case PolicyHopCount:
		return "hop-count"
	case PolicyEnergyAware:
		return "energy-aware"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config parameterizes NewNetwork.
type Config struct {
	// Sink is the base-station location.
	Sink geom.Point
	// CommRange is the radio disk radius in meters; non-positive gets
	// DefaultCommRange.
	CommRange float64
	// Radio overrides the consumption model; the zero value gets
	// energy.DefaultRadioModel.
	Radio energy.RadioModel
	// Policy selects the routing objective; the zero value gets
	// PolicyShortestDistance.
	Policy RoutingPolicy
}

// DefaultCommRange is the radio disk radius, in meters, of a Config that
// leaves CommRange unset.
const DefaultCommRange = 50.0

// NewNetwork builds a network from node specs and immediately computes
// routing and loads.
func NewNetwork(specs []NodeSpec, cfg Config) (*Network, error) {
	if cfg.CommRange <= 0 {
		cfg.CommRange = DefaultCommRange
	}
	if cfg.Radio == (energy.RadioModel{}) {
		cfg.Radio = energy.DefaultRadioModel()
	}
	if cfg.Policy == 0 {
		cfg.Policy = PolicyShortestDistance
	}
	return assemble(cfg, len(specs), func(i int) NodeState { return specs[i].state() })
}

// assemble is the one construction path NewNetwork and FromState share:
// it validates the configuration and every node row, writes the rows
// into the dense storage, indexes the positions and computes routing.
// row returns node i's row; cfg is taken as given, without defaults.
func assemble(cfg Config, n int, row func(i int) NodeState) (*Network, error) {
	if n == 0 {
		return nil, ErrNoNodes
	}
	if !(cfg.CommRange > 0) || math.IsInf(cfg.CommRange, 1) {
		return nil, fmt.Errorf("wrsn: comm range %v is not positive and finite", cfg.CommRange)
	}
	if !finite(cfg.Sink.X) || !finite(cfg.Sink.Y) {
		return nil, fmt.Errorf("wrsn: non-finite sink position %v", cfg.Sink)
	}
	if err := cfg.Radio.Validate(); err != nil {
		return nil, err
	}
	nw := &Network{
		sink:      cfg.Sink,
		commRange: cfg.CommRange,
		radio:     cfg.Radio,
		policy:    cfg.Policy,
	}
	nw.grow(n)
	for i := range n {
		ns := row(i)
		b, err := ns.battery(i)
		if err != nil {
			return nil, err
		}
		nw.bats[i] = b
		nw.pos[i] = ns.Pos
		nw.genBps[i] = ns.GenBps
		setBit(nw.failed, i, ns.Failed)
	}
	nw.initLive()
	if err := nw.index(); err != nil {
		return nil, err
	}
	nw.Recompute()
	return nw, nil
}

// grow allocates the entire struct-of-arrays block — primary state,
// derived state, persisted shortest-path state, and every scratch buffer
// Recompute touches — from the node count, once. Capacity hints here are
// what keep the first large-N recompute (and everything after it)
// reallocation-free.
func (nw *Network) grow(n int) {
	// Same-typed arrays are cut from one block per type: a fork builds
	// every one of them, and a few large allocations cost less than
	// thirty small ones.
	words := (n + 63) / 64
	sets := make([]uint64, 8*words)
	f64 := make([]float64, 6*n+1+256)
	i32 := make([]int32, 7*n+3*64)
	nw.pos = make([]geom.Point, n)
	nw.genBps = take(&f64, n)
	nw.bats = make([]energy.Battery, n)
	nw.failed = take(&sets, words)
	nw.parent = make([]NodeID, n)
	nw.hopDist = take(&f64, n)
	nw.loads = make([]energy.Load, n)
	nw.children = make([][]NodeID, n)
	nw.drainW = take(&f64, n)
	nw.conn = take(&sets, words)
	nw.dist = take(&f64, n+1)
	nw.pred = make([]int, n+1)
	nw.prevLive = take(&sets, words)
	nw.dts = take(&f64, 256)[:0]
	nw.synced = take(&i32, n)
	nw.reqFrac = DefaultRequestFraction
	nw.live = take(&sets, words)
	nw.low = take(&sets, words)
	nw.deaths = newEventHeap(take(&f64, n), take(&i32, n)[:0], take(&i32, n))
	nw.crossings = newEventHeap(take(&f64, n), take(&i32, n)[:0], take(&i32, n))
	nw.died = make([]NodeID, 0, 16)
	nw.popped = take(&i32, 64)[:0]
	nw.inA = take(&sets, words)
	nw.pq = make(distHeap, 0, n+1)
	nw.queue = take(&i32, n)[:0]
	nw.inDirty = take(&sets, words)
	nw.dirty = make(distHeap, 0, 64)
	nw.affected = take(&i32, 64)[:0]
	nw.stack = take(&i32, 64)[:0]
	nw.settled = take(&i32, n)[:0]
	nw.unfolded = take(&sets, words)
}

// take cuts the next n elements off the front of *block, capped at n so
// that an append past them reallocates rather than spilling into the
// next slice cut from the block.
func take[T any](block *[]T, n int) []T {
	s := (*block)[:n:n]
	*block = (*block)[n:]
	return s
}

// finite reports whether x is neither infinite nor NaN.
func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// Len returns the number of nodes (alive or dead).
func (nw *Network) Len() int { return len(nw.pos) }

// Sink returns the base-station location.
func (nw *Network) Sink() geom.Point { return nw.sink }

// CommRange returns the radio disk radius in meters.
func (nw *Network) CommRange() float64 { return nw.commRange }

// Radio returns the consumption model.
func (nw *Network) Radio() energy.RadioModel { return nw.radio }

// initLive derives the live set from freshly written batteries and fault
// bits; from then on it follows every death and revival.
func (nw *Network) initLive() {
	for i := range nw.bats {
		setBit(nw.live, i, !nw.failed.get(i) && !nw.bats[i].Depleted())
	}
}

// NodesNear appends to dst the ID of every alive node whose position is
// within rangeM of pos (by the exact Dist ≤ rangeM predicate), in
// ascending ID order. It is the indexed replacement for brute-force
// witness scans.
func (nw *Network) NodesNear(dst []NodeID, pos geom.Point, rangeM float64) []NodeID {
	nw.cand = nw.grid.Candidates(nw.cand[:0], pos, rangeM)
	base := len(dst)
	for _, ci := range nw.cand {
		i := int(ci)
		if nw.live.get(i) && pos.Dist(nw.pos[i]) <= rangeM {
			dst = append(dst, NodeID(ci))
		}
	}
	ids := dst[base:]
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return dst
}

// Recompute rebuilds the routing tree and traffic loads over currently
// alive nodes. Call it after node deaths or energy-state changes that
// affect routing. Derived and scratch state is reused across calls, so
// steady-state rebuilds allocate nothing.
//
// When a valid tree exists and the alive set changed by a few nodes,
// Recompute repairs only the invalidated portion of the shortest-path
// tree and re-derives only what that repair touched (see
// incremental.go); an unchanged alive set is a no-op. Both shortcuts are
// exact: every field a full rebuild would produce — distances, parents,
// tie-breaks, children order, loads, drains — comes out bit-identical,
// which the incremental oracle test pins. Energy-aware routing always
// rebuilds fully, because its edge weights depend on battery levels, not
// just on the alive set.
func (nw *Network) Recompute() {
	if nw.treeValid && !nw.cyclic && !nw.fullOnly && nw.policy != PolicyEnergyAware && nw.recomputeIncremental() {
		nw.prevLive.copyFrom(nw.live)
		return
	}
	nw.recomputeFull()
	nw.prevLive.copyFrom(nw.live)
	nw.treeValid = true
}

// recomputeFull runs Dijkstra from the sink (graph index n) under the
// configured edge-weight policy over the whole alive topology. Under
// energy-aware routing it syncs every node first, because the edge
// weights read battery levels. The first rebuild, which writes every
// drain of a new network, keys every node after it (see setDrain).
func (nw *Network) recomputeFull() {
	nw.fullRebuilds++
	if nw.policy == PolicyEnergyAware {
		nw.syncAll()
	}
	n := len(nw.pos)
	dist := nw.dist
	pred := nw.pred
	for i := range dist {
		dist[i] = math.Inf(1)
		pred[i] = predNone
	}
	dist[n] = 0
	nw.pq = nw.pq[:0]
	nw.pq.push(distItem{idx: n, d: 0})
	for len(nw.pq) > 0 {
		it := nw.pq.pop()
		if it.d > dist[it.idx] {
			continue
		}
		to, ln := nw.links.row(it.idx)
		for k, v := range to {
			// Never route through the sink.
			if int(v) != n && nw.live.get(int(v)) {
				nw.relax(it.idx, it.d, ln[k], int(v))
			}
		}
	}
	nw.deriveAll()
	if !nw.treeValid {
		nw.rekeyAll()
	}
}

// relax offers node v the path through u (graph index; n means the sink)
// at settled distance du, reporting whether v's distance or predecessor
// changed. A strictly shorter path updates distance and predecessor and
// enqueues v; an exactly equal path updates only the predecessor when u
// orders before the incumbent under the canonical (distance, index) key.
// The equal branch is what makes the final predecessor of every node a pure
// function of the final distances — the lexicographically smallest
// optimal parent — independent of relaxation order, so the incremental
// rebuild reproduces the full rebuild's tree bit for bit even through
// ties. d is the link's length, read from the link table.
func (nw *Network) relax(u int, du, d float64, v int) bool {
	nd := du + nw.weight(d, v)
	switch {
	case nd < nw.dist[v]:
		nw.dist[v] = nd
		nw.pred[v] = u
		nw.pq.push(distItem{idx: v, d: nd})
		return true
	case nd == nw.dist[v] && nw.predLess(du, u, v):
		nw.pred[v] = u
		return true
	}
	return false
}

// predLess reports whether candidate parent u (at distance du) orders
// strictly before v's current predecessor under the (distance, index)
// key.
func (nw *Network) predLess(du float64, u, v int) bool {
	p := nw.pred[v]
	if p == predNone {
		return true
	}
	dp := nw.dist[p]
	return du < dp || (du == dp && u < p)
}

// treeParent derives node i's routing parent from the settled
// shortest-path state.
func (nw *Network) treeParent(i int) NodeID {
	switch {
	case !nw.live.get(i) || math.IsInf(nw.dist[i], 1):
		return ParentNone
	case nw.pred[i] == len(nw.pos):
		return ParentSink
	default:
		return NodeID(nw.pred[i])
	}
}

// deriveAll rebuilds parent, hopDist, children, loads, and drains for
// every node from the settled dist/pred arrays. Children lists come out
// ascending by ID.
//
// Loads fold children-first: the reverse of a breadth-first pass from
// the sink's children visits every child before its parent. A pred
// cycle — possible only where float route distances tie across
// near-co-located nodes, since every edge on it must add exactly
// nothing — is unreachable from the sink; its members and whatever hangs
// below them carry no well-defined relay load, so they fold once, in ID
// order, from zeroed relays, and the network is marked cyclic, which
// suspends incremental maintenance until a rebuild finds no cycle.
func (nw *Network) deriveAll() {
	base := nw.radio.SenseW + nw.radio.IdleW
	q := nw.queue[:0]
	connected := 0
	for i := range nw.children {
		nw.children[i] = nw.children[i][:0]
	}
	for i := range nw.pos {
		nw.hopDist[i] = nw.dist[i]
		p := nw.treeParent(i)
		nw.setParent(i, p)
		switch {
		case p == ParentNone:
			// Clear rather than leave the load a node carried while it was
			// last connected, so aged and freshly rebuilt networks hold
			// identical state.
			nw.loads[i] = energy.Load{}
			nw.setDrain(i, base)
			continue
		case p == ParentSink:
			q = append(q, int32(i))
		default:
			nw.children[p] = append(nw.children[p], NodeID(i))
		}
		connected++
	}
	for k := 0; k < len(q); k++ {
		for _, c := range nw.children[q[k]] {
			q = append(q, int32(c))
		}
	}
	for k := len(q) - 1; k >= 0; k-- {
		nw.setLoad(int(q[k]), nw.foldLoad(int(q[k])))
	}
	nw.queue = q[:0]
	nw.cyclic = len(q) < connected
	if !nw.cyclic {
		return
	}
	reached := nw.inA
	reached.reset()
	for _, i := range q {
		reached.set(int(i))
	}
	for i := range nw.pos {
		if nw.parent[i] != ParentNone && !reached.get(i) {
			nw.loads[i].RelayBps = 0
		}
	}
	for i := range nw.pos {
		if nw.parent[i] != ParentNone && !reached.get(i) {
			nw.setLoad(i, nw.foldLoad(i))
		}
	}
}

// setParent stores node i's routing parent and its connected bit.
func (nw *Network) setParent(i int, p NodeID) {
	nw.parent[i] = p
	setBit(nw.conn, i, p != ParentNone)
}

// foldLoad derives connected node i's load from its children's: its own
// traffic, plus the sum of each child's generated and relayed traffic,
// accumulated in load order (descending route distance, ascending ID;
// see orderKeyLess). Every child counts, including one whose route
// distance rounds to its parent's and whose ID is higher.
func (nw *Network) foldLoad(i int) energy.Load {
	kids := nw.children[i]
	if len(kids) > 1 {
		kids = append(nw.kids[:0], kids...)
		nw.kids = kids
		for a := 1; a < len(kids); a++ {
			for b := a; b > 0 && orderKeyLess(nw.hopDist, int(kids[b]), int(kids[b-1])); b-- {
				kids[b], kids[b-1] = kids[b-1], kids[b]
			}
		}
	}
	var relay float64
	for _, c := range kids {
		relay += nw.genBps[c] + nw.loads[c].RelayBps
	}
	var hop float64
	if p := nw.parent[i]; p == ParentSink {
		hop = nw.pos[i].Dist(nw.sink)
	} else {
		hop = nw.pos[i].Dist(nw.pos[p])
	}
	return energy.Load{GenBps: nw.genBps[i], RelayBps: relay, NextHopDist: hop}
}

// setLoad stores node i's load and its drain. DrainWatts is a pure
// function of (parent, load, radio), all fixed until the next Recompute;
// caching it here turns the per-step energy advance and depletion
// forecasts into array reads.
func (nw *Network) setLoad(i int, ld energy.Load) {
	nw.loads[i] = ld
	nw.setDrain(i, nw.radio.DrainWatts(ld))
}

// orderKeyLess is the load order's canonical key: descending route
// distance, ascending ID. It is a strict total order.
func orderKeyLess(hop []float64, a, b int) bool {
	return hop[a] > hop[b] || (hop[a] == hop[b] && a < b)
}

// weight prices traversing a link of length d into node `to` under the
// routing policy. Dijkstra requires non-negative weights; every branch
// guarantees that.
func (nw *Network) weight(d float64, to int) float64 {
	switch nw.policy {
	case PolicyHopCount:
		// One hop dominates any distance within range; distance only
		// breaks ties.
		return 1e6 + d
	case PolicyEnergyAware:
		// Penalize relaying through drained nodes: a nearly-empty relay
		// costs up to 4× its distance, pushing traffic to healthier paths
		// when any exist.
		frac := nw.bats[to].Fraction() // synced by recomputeFull
		return d * (1 + 3*(1-frac))
	default:
		return d
	}
}

// Policy returns the network's routing policy.
func (nw *Network) Policy() RoutingPolicy { return nw.policy }

// Parent returns node id's routing parent: another node, ParentSink, or
// ParentNone when the node is disconnected or dead.
func (nw *Network) Parent(id NodeID) NodeID { return nw.parent[id] }

// Children returns the routing children of node id. The returned slice is
// owned by the network; callers must not modify it.
func (nw *Network) Children(id NodeID) []NodeID { return nw.children[id] }

// Load returns node id's steady-state traffic load from the last Recompute.
func (nw *Network) Load(id NodeID) energy.Load { return nw.loads[id] }

// DrainWatts returns node id's steady-state power draw from the last
// Recompute. Disconnected nodes still pay sensing and idle power.
func (nw *Network) DrainWatts(id NodeID) float64 { return nw.drainW[id] }

// Connected reports whether node id currently has a route to the sink.
func (nw *Network) Connected(id NodeID) bool { return nw.parent[id] != ParentNone }

// ConnectedCount returns the number of alive nodes with a route to the sink.
func (nw *Network) ConnectedCount() int { return nw.conn.count() }

// distHeap is a min-heap for Dijkstra, stored by value and sifted
// manually so pushes never box through an interface. Items order by the
// canonical (distance, index) key: lexicographic ordering makes the pop
// sequence — and therefore every tie-break the tree construction is
// sensitive to — a pure function of the key set, independent of insertion
// history, which the incremental rebuild relies on to reproduce the full
// rebuild exactly.
type distItem struct {
	idx int
	d   float64
}

// less orders heap items by (distance, index).
func (a distItem) less(b distItem) bool {
	return a.d < b.d || (a.d == b.d && a.idx < b.idx)
}

type distHeap []distItem

func (h *distHeap) push(it distItem) {
	*h = append(*h, it)
	// Sift up.
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].less(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *distHeap) pop() distItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	it := s[n]
	s = s[:n]
	*h = s
	// Sift down.
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		j := left
		if right := left + 1; right < n && s[right].less(s[left]) {
			j = right
		}
		if !s[j].less(s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	return it
}
