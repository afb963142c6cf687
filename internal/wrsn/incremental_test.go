package wrsn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
)

// bruteSPT is the specification oracle for the shortest-path tree: an
// independent O(V²) Dijkstra over the brute-force adjacency, followed by
// a from-scratch predecessor derivation that implements the canonical
// tie-break directly — pred[v] is the (distance, index)-lexicographically
// smallest alive neighbor u with dist[u] + w(u→v) == dist[v]. The
// production code (full and incremental alike) must agree with this pure
// characterization bit for bit; agreement proves the predecessor array is
// a function of the final distances alone, which is exactly the property
// incremental maintenance relies on.
func bruteSPT(nw *Network) ([]float64, []int) {
	n := len(nw.nodes)
	adj := bruteAdjacency(nw)
	dist := make([]float64, n+1)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[n] = 0
	done := make([]bool, n+1)
	for {
		u := -1
		for i := 0; i <= n; i++ {
			if !done[i] && !math.IsInf(dist[i], 1) && (u < 0 || dist[i] < dist[u]) {
				u = i
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		from := nw.sink
		if u < n {
			from = nw.pos[u]
		}
		for _, v := range adj[u] {
			if v == n {
				continue // never route through the sink
			}
			if nd := dist[u] + nw.edgeWeight(from, v); nd < dist[v] {
				dist[v] = nd
			}
		}
	}
	pred := make([]int, n+1)
	for i := range pred {
		pred[i] = predNone
	}
	for v := 0; v < n; v++ {
		if math.IsInf(dist[v], 1) {
			continue
		}
		best := predNone
		for _, u := range adj[v] {
			from := nw.sink
			if u < n {
				from = nw.pos[u]
			}
			if dist[u]+nw.edgeWeight(from, v) != dist[v] {
				continue
			}
			if best == predNone || dist[u] < dist[best] || (dist[u] == dist[best] && u < best) {
				best = u
			}
		}
		pred[v] = best
	}
	return dist, pred
}

// checkAgainstOracles compares the network's live shortest-path and
// derived state against (a) the bruteSPT specification and (b) a fresh
// from-scratch rebuild of the same primary state, requiring exact
// (bit-level) equality everywhere: distances, predecessors, parents,
// children order, loads, and drains.
func checkAgainstOracles(t *testing.T, nw *Network, tag string) {
	t.Helper()
	n := len(nw.nodes)
	dist, pred := bruteSPT(nw)
	for i := 0; i <= n; i++ {
		if nw.dist[i] != dist[i] && !(math.IsInf(nw.dist[i], 1) && math.IsInf(dist[i], 1)) {
			t.Fatalf("%s: dist[%d] = %v, want %v", tag, i, nw.dist[i], dist[i])
		}
	}
	for i := 0; i < n; i++ {
		if nw.pred[i] != pred[i] {
			t.Fatalf("%s: pred[%d] = %d, want %d (dist %v)", tag, i, nw.pred[i], pred[i], dist[i])
		}
	}
	ref, err := FromState(nw.State())
	if err != nil {
		t.Fatalf("%s: rebuilding reference: %v", tag, err)
	}
	for i := 0; i < n; i++ {
		id := NodeID(i)
		if nw.Parent(id) != ref.Parent(id) {
			t.Fatalf("%s: parent[%d] = %d, want %d", tag, i, nw.Parent(id), ref.Parent(id))
		}
		if nw.hopDist[i] != ref.hopDist[i] && !(math.IsInf(nw.hopDist[i], 1) && math.IsInf(ref.hopDist[i], 1)) {
			t.Fatalf("%s: hopDist[%d] = %v, want %v", tag, i, nw.hopDist[i], ref.hopDist[i])
		}
		if nw.Load(id) != ref.Load(id) {
			t.Fatalf("%s: load[%d] = %+v, want %+v", tag, i, nw.Load(id), ref.Load(id))
		}
		if nw.DrainWatts(id) != ref.DrainWatts(id) {
			t.Fatalf("%s: drain[%d] = %v, want %v", tag, i, nw.DrainWatts(id), ref.DrainWatts(id))
		}
		got, want := nw.Children(id), ref.Children(id)
		if len(got) != len(want) {
			t.Fatalf("%s: children[%d] = %v, want %v", tag, i, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("%s: children[%d] = %v, want %v (order matters)", tag, i, got, want)
			}
		}
	}
}

// mutate applies one random alive-set event to the network: hardware
// fail/repair, battery depletion or refill, a batch kill (sometimes big
// enough to force the full-rebuild fallback), or a plain energy advance.
func mutate(rng *rand.Rand, nw *Network) {
	n := len(nw.nodes)
	id := rng.Intn(n)
	switch rng.Intn(6) {
	case 0:
		nw.ptrs[id].Fail()
	case 1:
		nw.ptrs[id].Repair()
	case 2:
		nw.ptrs[id].SetLevel(0)
	case 3:
		nw.ptrs[id].SetLevel(nw.ptrs[id].Capacity() * rng.Float64())
	case 4:
		// Batch kill: usually a handful, occasionally most of the field
		// (which must trip the affected-set bound into a full rebuild).
		k := 1 + rng.Intn(4)
		if rng.Intn(8) == 0 {
			k = n/2 + rng.Intn(n/2)
		}
		for j := 0; j < k; j++ {
			nw.ptrs[rng.Intn(n)].SetLevel(0)
		}
	case 5:
		nw.AdvanceEnergy(600 + rng.Float64()*7200)
	}
}

// TestIncrementalMatchesBruteDijkstra is the incremental-SPT oracle: over
// random topologies and randomized fail/repair/deplete/revive sequences,
// every Recompute — whichever path it takes — must equal both the
// specification Dijkstra (dist, pred, tie-breaks) and a from-scratch
// rebuild (parents, children order, loads, drains) exactly.
func TestIncrementalMatchesBruteDijkstra(t *testing.T) {
	policies := map[string]RoutingPolicy{
		"distance":     PolicyShortestDistance,
		"hopcount":     PolicyHopCount,
		"energy-aware": PolicyEnergyAware,
	}
	for name, policy := range policies {
		rng := rand.New(rand.NewSource(1000 + int64(policy)))
		trials := 12
		if testing.Short() {
			trials = 3
		}
		for trial := 0; trial < trials; trial++ {
			n := 30 + rng.Intn(120)
			specs := make([]NodeSpec, n)
			for i := range specs {
				specs[i] = NodeSpec{
					Pos:         geom.Point{X: rng.Float64() * 300, Y: rng.Float64() * 300},
					InitialFrac: 0.3 + rng.Float64()*0.7,
				}
			}
			nw, err := NewNetwork(specs, Config{
				Sink:      geom.Point{X: 150, Y: 150},
				CommRange: 35 + rng.Float64()*40,
				Policy:    policy,
			})
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 25; step++ {
				mutate(rng, nw)
				nw.Recompute()
				checkAgainstOracles(t, nw, name)
			}
		}
	}
}

// TestIncrementalExactTies drives the oracle on an exact integer lattice
// where shortest-path distances tie pervasively (no jitter: every
// orthogonal hop is exactly 30 m, so whole families of routes share
// identical float sums). This is the adversarial case for tie-break
// reproducibility: the canonical (distance, index) rule must make the
// incremental tree land on exactly the tree a full rebuild picks.
func TestIncrementalExactTies(t *testing.T) {
	const side = 10
	specs := make([]NodeSpec, 0, side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			specs = append(specs, NodeSpec{Pos: geom.Point{X: float64(x) * 30, Y: float64(y) * 30}})
		}
	}
	nw, err := NewNetwork(specs, Config{
		Sink:      geom.Point{X: 135, Y: 135}, // between the four center nodes
		CommRange: 45,                         // orthogonal (30) and diagonal (42.43) both in range
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracles(t, nw, "lattice initial")
	rng := rand.New(rand.NewSource(77))
	for step := 0; step < 60; step++ {
		mutate(rng, nw)
		nw.Recompute()
		checkAgainstOracles(t, nw, "lattice")
	}
}

// TestIncrementalToggleIdentical pins SetIncrementalRouting as a pure
// performance toggle: two networks fed the identical event sequence, one
// forced down the full-Dijkstra path, stay field-for-field identical.
func TestIncrementalToggleIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nw := randomNetwork(t, rng, 140, 55)
	full, err := FromState(nw.State())
	if err != nil {
		t.Fatal(err)
	}
	full.SetIncrementalRouting(false)
	for step := 0; step < 40; step++ {
		id := rng.Intn(140)
		switch rng.Intn(4) {
		case 0:
			nw.ptrs[id].Fail()
			full.ptrs[id].Fail()
		case 1:
			nw.ptrs[id].Repair()
			full.ptrs[id].Repair()
		case 2:
			nw.ptrs[id].SetLevel(0)
			full.ptrs[id].SetLevel(0)
		case 3:
			lvl := nw.ptrs[id].Capacity() * rng.Float64()
			nw.ptrs[id].SetLevel(lvl)
			full.ptrs[id].SetLevel(lvl)
		}
		nw.Recompute()
		full.Recompute()
		for i := 0; i < 140; i++ {
			id := NodeID(i)
			if nw.Parent(id) != full.Parent(id) || nw.DrainWatts(id) != full.DrainWatts(id) || nw.Load(id) != full.Load(id) {
				t.Fatalf("step %d: node %d diverged between incremental and full paths", step, i)
			}
		}
	}
}

// recomputeIncr runs Recompute and fails the test unless it took the
// incremental path.
func recomputeIncr(t *testing.T, nw *Network, tag string) {
	t.Helper()
	before := nw.fullRebuilds
	nw.Recompute()
	if nw.fullRebuilds != before {
		t.Fatalf("%s: Recompute took the full path", tag)
	}
}

// TestIncrementalLateChild pins a child whose route distance rounds to
// its parent's: node 3 sits 1.8e-15 m from node 2, so dist[2] + w(2,3)
// rounds back to dist[2], and node 3 has the higher ID, so it orders
// after its parent in the load order. Its traffic (and its child node
// 4's) must still reach node 2's relay load on the full path and
// through incremental patches. Killing nodes 4 and 5 in one Recompute
// dirties node 2 before node 3's relay changes, so node 2 must fold
// again after node 3 does. The coordinates are exact.
func TestIncrementalLateChild(t *testing.T) {
	specs := []NodeSpec{
		{Pos: geom.Point{X: 30, Y: 0}},
		{Pos: geom.Point{X: 0x1.e7087bb90cb53p+05, Y: 0x1.f55c74e1df143p+02}},
		{Pos: geom.Point{X: 0x1.6b5b59f7500e9p+06, Y: 0x1.a848185af785fp+01}},
		{Pos: geom.Point{X: 0x1.6b5b59f7500e9p+06, Y: 0x1.a848185af7857p+01}},
		{Pos: geom.Point{X: 0x1.e193062a4120ep+06, Y: 0x1.87dde0b0c1d1dp+01}},
		{Pos: geom.Point{X: 0x1.731b1e5853e53p+06, Y: 0x1.073d08d59abep+05}},
	}
	nw, err := NewNetwork(specs, Config{Sink: geom.Point{}, CommRange: 35})
	if err != nil {
		t.Fatal(err)
	}
	if nw.Parent(3) != 2 || nw.hopDist[3] != nw.hopDist[2] || nw.Parent(4) != 3 || nw.Parent(5) != 2 {
		t.Fatalf("late-child case not hit: parents %d %d %d, dist[2]=%v dist[3]=%v",
			nw.Parent(3), nw.Parent(4), nw.Parent(5), nw.hopDist[2], nw.hopDist[3])
	}
	relay := func(tag string, want float64) {
		t.Helper()
		checkAgainstOracles(t, nw, tag)
		if got := nw.Load(2).RelayBps; got != want {
			t.Fatalf("%s: node 2 relays %v bps, want %v", tag, got, want)
		}
	}
	relay("initial", 3*DefaultGenBps) // nodes 3, 4 (through 3) and 5
	nw.ptrs[4].SetLevel(0)
	nw.ptrs[5].SetLevel(0)
	recomputeIncr(t, nw, "kill 4 and 5")
	relay("kill 4 and 5", DefaultGenBps)
	nw.ptrs[4].SetLevel(nw.ptrs[4].Capacity())
	nw.ptrs[5].SetLevel(nw.ptrs[5].Capacity())
	recomputeIncr(t, nw, "revive 4 and 5")
	relay("revive 4 and 5", 3*DefaultGenBps)
}

// TestIncrementalTieRepair pins the wave's equal-distance branch: on a
// 6×6 lattice with orthogonal links only, node 7 has two optimal
// parents, nodes 1 and 6, and takes node 1 (the smaller key). Failing
// node 1 moves it to node 6; repairing node 1 moves it back without
// changing its distance, so only relax's equal branch reports the move
// to the incremental path.
func TestIncrementalTieRepair(t *testing.T) {
	const side = 6
	specs := make([]NodeSpec, 0, side*side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			specs = append(specs, NodeSpec{Pos: geom.Point{X: float64(x) * 30, Y: float64(y) * 30}})
		}
	}
	nw, err := NewNetwork(specs, Config{Sink: geom.Point{X: 0, Y: -30}, CommRange: 35})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracles(t, nw, "initial")
	if nw.Parent(7) != 1 {
		t.Fatalf("node 7 routes via %d, want 1", nw.Parent(7))
	}
	nw.ptrs[1].Fail()
	nw.Recompute() // node 1's subtree is most of the lattice: a full rebuild
	checkAgainstOracles(t, nw, "fail 1")
	if nw.Parent(7) != 6 {
		t.Fatalf("after failing node 1, node 7 routes via %d, want 6", nw.Parent(7))
	}
	nw.ptrs[1].Repair()
	recomputeIncr(t, nw, "repair 1")
	checkAgainstOracles(t, nw, "repair 1")
	if nw.Parent(7) != 1 {
		t.Fatalf("after repairing node 1, node 7 routes via %d, want 1", nw.Parent(7))
	}
}

// TestIncrementalPredCycles packs nodes a few ulps apart on four
// lattice cells, where float route distances round to each other across
// the cluster and the canonical tie-break can close a pred cycle (two
// nodes, each the other's smallest-key optimal parent). The full rebuild
// must mark such a tree cyclic and still derive it deterministically,
// and an incremental patch that closes a cycle must fall back to it
// rather than fold around the loop forever.
func TestIncrementalPredCycles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	built, closed := 0, 0
	for trial := 0; trial < 3000; trial++ {
		n := 6 + rng.Intn(10)
		specs := make([]NodeSpec, n)
		for i := range specs {
			c := rng.Intn(4)
			p := geom.Point{X: float64(c%2) * 30, Y: float64(c/2) * 30}
			p.X += float64(rng.Intn(7)-3) * 0x1p-46
			p.Y += float64(rng.Intn(7)-3) * 0x1p-49
			specs[i] = NodeSpec{Pos: p}
		}
		nw, err := NewNetwork(specs, Config{Sink: geom.Point{X: -20, Y: -20}, CommRange: 35})
		if err != nil {
			t.Fatal(err)
		}
		if nw.cyclic {
			built++
		}
		for k := 0; k < 6; k++ {
			id := rng.Intn(n)
			if rng.Intn(2) == 0 {
				nw.ptrs[id].Fail()
			} else {
				nw.ptrs[id].Repair()
			}
			was := nw.cyclic
			nw.Recompute()
			if !was && nw.cyclic {
				closed++
			}
			checkAgainstOracles(t, nw, fmt.Sprintf("trial %d event %d", trial, k))
		}
	}
	if built == 0 || closed == 0 {
		t.Errorf("no pred cycle exercised: %d built cyclic, %d closed by a Recompute", built, closed)
	}
}

// FuzzIncrementalRouting holds every Recompute to the oracles on small
// networks built from the input: nodes on a 6×6 lattice at 30 m, several
// to a cell allowed, each optionally moved by a few ulps so route
// distances tie exactly or round to each other, then a sequence of
// fail/repair/deplete/refill events with a Recompute after each (or
// after a batch).
//
// Input layout: byte 0 picks the policy (bit 0: hop count), the range
// (bit 1: 45 m, diagonals included; else 35 m) and the sink (bits 2–3);
// byte 1 the node count (2–33); then two bytes per node, the cell and
// the jitter; then one byte per event: bits 0–1 the kind, bits 2–6 the
// node, bit 7 set to batch it with the next event.
func FuzzIncrementalRouting(f *testing.F) {
	f.Add([]byte{0, 34, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0, 9, 0, 10, 0, 11, 0,
		12, 0, 13, 0, 14, 0, 15, 0, 16, 0, 17, 0, 18, 0, 19, 0, 20, 0, 21, 0, 22, 0, 23, 0,
		24, 0, 25, 0, 26, 0, 27, 0, 28, 0, 29, 0, 30, 0, 31, 0, 32, 0, 33, 0, 34, 0, 35, 0,
		1 << 2, 1<<2 | 1})
	f.Add([]byte{2, 10, 0, 0, 7, 0, 14, 0, 14, 0x31, 14, 0x53, 21, 0, 20, 0x25, 28, 0, 8, 0x77, 15, 0,
		2<<2 | 0x80, 3 << 2, 2<<2 | 3, 3<<2 | 3, 4 << 2, 4<<2 | 1, 0})
	f.Add([]byte{5, 20, 0, 0, 1, 1, 1, 3, 1, 5, 6, 0, 7, 9, 7, 11, 8, 0, 2, 0, 13, 0x41, 13, 0x43,
		14, 0, 19, 0, 20, 0, 25, 0, 26, 0x7f, 26, 0x01, 31, 0, 32, 0, 33, 0,
		0x80 | 1<<2 | 2, 7<<2 | 2, 7<<2 | 3, 1<<2 | 3, 12<<2 | 0, 0x80 | 5<<2, 12<<2 | 1, 5<<2 | 1})
	sinks := [4]geom.Point{{X: 0, Y: -30}, {X: 75, Y: 75}, {X: -20, Y: -20}, {X: 150, Y: 0}}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := Config{Policy: PolicyShortestDistance, CommRange: 35, Sink: sinks[data[0]>>2&3]}
		if data[0]&1 != 0 {
			cfg.Policy = PolicyHopCount
		}
		if data[0]&2 != 0 {
			cfg.CommRange = 45
		}
		n := 2 + int(data[1])%32
		data = data[2:]
		if len(data) < 2*n {
			return
		}
		specs := make([]NodeSpec, n)
		for i := range specs {
			cell, jit := data[2*i], data[2*i+1]
			p := geom.Point{X: float64(cell%6) * 30, Y: float64(cell/6%6) * 30}
			if jit&1 != 0 {
				p.X += float64(int(jit>>1&7)-3) * 0x1p-46
				p.Y += float64(int(jit>>4&7)-3) * 0x1p-49
			}
			specs[i] = NodeSpec{Pos: p}
		}
		data = data[2*n:]
		nw, err := NewNetwork(specs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstOracles(t, nw, "initial")
		if len(data) > 48 {
			data = data[:48]
		}
		for k, op := range data {
			id := int(op>>2&31) % n
			switch op & 3 {
			case 0:
				nw.ptrs[id].Fail()
			case 1:
				nw.ptrs[id].Repair()
			case 2:
				nw.ptrs[id].SetLevel(0)
			case 3:
				nw.ptrs[id].SetLevel(nw.ptrs[id].Capacity())
			}
			if op&0x80 != 0 && k < len(data)-1 {
				continue
			}
			nw.Recompute()
			checkAgainstOracles(t, nw, fmt.Sprintf("event %d", k))
		}
	})
}
