package wrsn

import (
	"math"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
)

// lineSpecs places n nodes on a line at the given spacing, starting at
// (spacing, 0); with the sink at the origin this forms a chain.
func lineSpecs(n int, spacing float64) []NodeSpec {
	specs := make([]NodeSpec, n)
	for i := range specs {
		specs[i] = NodeSpec{Pos: geom.Pt(float64(i+1)*spacing, 0)}
	}
	return specs
}

func mustNetwork(t *testing.T, specs []NodeSpec, cfg Config) *Network {
	t.Helper()
	nw, err := NewNetwork(specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(nil, Config{}); err == nil {
		t.Error("empty network accepted")
	}
	for _, bad := range []geom.Point{{X: math.Inf(1)}, {Y: math.Inf(-1)}, {X: math.NaN()}} {
		specs := lineSpecs(3, 40)
		specs[1].Pos = bad
		if _, err := NewNetwork(specs, Config{}); err == nil {
			t.Errorf("node at %v accepted", bad)
		}
	}
}

func TestChainRouting(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(5, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	// Node 0 is nearest the sink; each node's parent is its predecessor.
	if p := nw.Parent(0); p != ParentSink {
		t.Errorf("parent(0) = %v, want sink", p)
	}
	for i := NodeID(1); i < 5; i++ {
		if p := nw.Parent(i); p != i-1 {
			t.Errorf("parent(%d) = %v, want %v", i, p, i-1)
		}
	}
	if c := nw.ConnectedCount(); c != 5 {
		t.Errorf("connected = %d, want 5", c)
	}
}

func TestDisconnectedNode(t *testing.T) {
	specs := lineSpecs(3, 40)
	specs = append(specs, NodeSpec{Pos: geom.Pt(1000, 1000)}) // marooned
	nw := mustNetwork(t, specs, Config{Sink: geom.Pt(0, 0), CommRange: 50})
	if nw.Parent(3) != ParentNone {
		t.Errorf("marooned node parent = %v", nw.Parent(3))
	}
	if nw.Connected(3) {
		t.Error("marooned node reported connected")
	}
	if c := nw.ConnectedCount(); c != 3 {
		t.Errorf("connected = %d, want 3", c)
	}
	// A disconnected node still pays baseline power.
	want := nw.Radio().SenseW + nw.Radio().IdleW
	if d := nw.DrainWatts(3); d != want {
		t.Errorf("marooned drain = %v, want %v", d, want)
	}
}

func TestLoadsAggregateUpstream(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(4, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	// In a chain, node 0 relays everything generated by 1..3.
	var downstream float64
	for i := 1; i < 4; i++ {
		n, err := nw.Node(NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		downstream += n.GenBps
	}
	l := nw.Load(0)
	if math.Abs(l.RelayBps-downstream) > 1e-9 {
		t.Errorf("node 0 relay = %v, want %v", l.RelayBps, downstream)
	}
	// The leaf relays nothing.
	if l3 := nw.Load(3); l3.RelayBps != 0 {
		t.Errorf("leaf relay = %v, want 0", l3.RelayBps)
	}
	// Relays drain faster than leaves.
	if nw.DrainWatts(0) <= nw.DrainWatts(3) {
		t.Error("relay does not outdrain leaf")
	}
}

func TestRoutingParentsAreValid(t *testing.T) {
	// A small random-ish mesh: parents must be alive, within range, and
	// strictly closer (in route distance) to the sink.
	specs := []NodeSpec{
		{Pos: geom.Pt(30, 0)}, {Pos: geom.Pt(60, 10)}, {Pos: geom.Pt(40, 40)},
		{Pos: geom.Pt(80, 40)}, {Pos: geom.Pt(10, 45)}, {Pos: geom.Pt(55, 70)},
	}
	nw := mustNetwork(t, specs, Config{Sink: geom.Pt(0, 0), CommRange: 50})
	for i := 0; i < nw.Len(); i++ {
		id := NodeID(i)
		switch p := nw.Parent(id); p {
		case ParentNone:
			// fine: disconnected
		case ParentSink:
			node, _ := nw.Node(id)
			if node.Pos.Dist(nw.Sink()) > nw.CommRange() {
				t.Errorf("node %d claims sink parent beyond range", i)
			}
		default:
			node, _ := nw.Node(id)
			parent, err := nw.Node(p)
			if err != nil {
				t.Fatalf("node %d: bad parent %v", i, p)
			}
			if node.Pos.Dist(parent.Pos) > nw.CommRange() {
				t.Errorf("node %d -> %d edge beyond range", i, p)
			}
			// Child lists must be consistent.
			found := false
			for _, c := range nw.Children(p) {
				if c == id {
					found = true
				}
			}
			if !found {
				t.Errorf("node %d missing from parent %d's children", i, p)
			}
		}
	}
}

func TestRecomputeAfterDeath(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(4, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	mid, err := nw.Node(1)
	if err != nil {
		t.Fatal(err)
	}
	mid.SetLevel(0)
	nw.Recompute()
	if nw.Connected(1) {
		t.Error("dead node reported connected")
	}
	// Everything behind the dead node loses its route.
	for _, id := range []NodeID{2, 3} {
		if nw.Connected(id) {
			t.Errorf("node %d should be severed by node 1's death", id)
		}
	}
	if nw.Connected(0) != true {
		t.Error("node 0 should survive")
	}
	if nw.AliveCount() != 3 {
		t.Errorf("alive = %d, want 3", nw.AliveCount())
	}
}

func TestNodeAccessor(t *testing.T) {
	nw := mustNetwork(t, lineSpecs(2, 40), Config{Sink: geom.Pt(0, 0), CommRange: 50})
	if _, err := nw.Node(-1); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := nw.Node(2); err == nil {
		t.Error("out-of-range id accepted")
	}
	if n, err := nw.Node(1); err != nil || n.ID != 1 {
		t.Errorf("Node(1) = %v, %v", n, err)
	}
}

func TestNodeSpecDefaults(t *testing.T) {
	nw := mustNetwork(t, []NodeSpec{{Pos: geom.Pt(10, 0)}}, Config{Sink: geom.Pt(0, 0)})
	n, err := nw.Node(0)
	if err != nil {
		t.Fatal(err)
	}
	if n.Capacity() != DefaultBatteryJ {
		t.Errorf("default capacity = %v", n.Capacity())
	}
	if n.GenBps != DefaultGenBps {
		t.Errorf("default gen = %v", n.GenBps)
	}
	if n.Fraction() != 1 {
		t.Errorf("default initial fraction = %v", n.Fraction())
	}
}

// TestNewNetworkAllocs pins that building a network allocates a bounded
// number of objects, not one per node: batteries are written in place
// into the dense array. The nodes ring the sink inside radio range, so
// every node routes straight to the sink and the routing tree allocates
// no child lists either.
func TestNewNetworkAllocs(t *testing.T) {
	cfg := Config{Sink: geom.Pt(0, 0), CommRange: 50}
	allocs := func(n int) float64 {
		specs := make([]NodeSpec, n)
		for i := range specs {
			a := 2 * math.Pi * float64(i) / float64(n)
			specs[i] = NodeSpec{Pos: geom.Pt(20*math.Cos(a), 20*math.Sin(a))}
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := NewNetwork(specs, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(100), allocs(400)
	if large-small >= 30 {
		t.Errorf("NewNetwork allocates %.0f objects at 100 nodes and %.0f at 400; want a bound independent of the node count", small, large)
	}
}
