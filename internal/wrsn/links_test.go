package wrsn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/reprolab/wrsn-csa/internal/geom"
)

// edgeWeight prices the edge from a point into node `to` with the length
// measured from positions, not read from the link table; the
// specification Dijkstra (bruteSPT) prices its edges this way.
func (nw *Network) edgeWeight(from geom.Point, to int) float64 {
	return nw.weight(from.Dist(nw.pos[to]), to)
}

// aliveRows reads the link table the way routing and the analytics do:
// each alive node's row and the sink's, with nodes outside the live set
// skipped. Dead nodes get empty lists, as in bruteAdjacency.
func aliveRows(nw *Network) [][]int {
	n := len(nw.nodes)
	adj := make([][]int, n+1)
	for u := 0; u <= n; u++ {
		if !nw.inGraph(u) {
			continue
		}
		to, _ := nw.links.row(u)
		for _, v := range to {
			if nw.inGraph(int(v)) {
				adj[u] = append(adj[u], int(v))
			}
		}
	}
	return adj
}

// graphPos is the position of graph index u: a node, or n for the sink.
func graphPos(nw *Network, u int) geom.Point {
	if u == len(nw.nodes) {
		return nw.sink
	}
	return nw.pos[u]
}

// checkLinks holds the table to the pairwise scan: alive-filtered rows
// equal to bruteAdjacency element for element, and every stored length
// equal, bit for bit, to Dist measured from either end.
func checkLinks(t *testing.T, nw *Network, tag string) {
	t.Helper()
	got, want := aliveRows(nw), bruteAdjacency(nw)
	for u := range want {
		if !slices.Equal(got[u], want[u]) {
			t.Fatalf("%s: row %d = %v, want %v (order matters)", tag, u, got[u], want[u])
		}
	}
	for u := 0; u <= len(nw.nodes); u++ {
		to, ln := nw.links.row(u)
		a := graphPos(nw, u)
		for k, v := range to {
			b := graphPos(nw, int(v))
			if d := math.Float64bits(ln[k]); d != math.Float64bits(a.Dist(b)) || d != math.Float64bits(b.Dist(a)) {
				t.Fatalf("%s: link %d→%d stores %v, Dist gives %v and %v", tag, u, v, ln[k], a.Dist(b), b.Dist(a))
			}
		}
	}
}

// TestLinkTableExact pins the table's lengths (node and sink links) to
// Dist from both ends, that Fork shares the table, and that FromState
// rebuilds the identical arrays.
func TestLinkTableExact(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		nw := randomNetwork(t, rng, 1+rng.Intn(200), 30+rng.Float64()*60)
		checkLinks(t, nw, fmt.Sprintf("trial %d", trial))
		if nw.Fork().links != nw.links {
			t.Fatalf("trial %d: Fork copied the link table instead of sharing it", trial)
		}
		ref, err := FromState(nw.State())
		if err != nil {
			t.Fatal(err)
		}
		lt, rt := nw.links, ref.links
		if !slices.Equal(rt.off, lt.off) || !slices.Equal(rt.to, lt.to) || !slices.Equal(rt.ln, lt.ln) {
			t.Fatalf("trial %d: FromState rebuilt a different link table", trial)
		}
		if len(lt.to) != int(lt.off[len(lt.off)-1]) || cap(lt.to) != len(lt.to) || cap(lt.ln) != len(lt.to) {
			t.Fatalf("trial %d: table arrays sized %d/%d for %d links", trial, cap(lt.to), cap(lt.ln), lt.off[len(lt.off)-1])
		}
	}
}

// FuzzLinkTable holds the link table to the pairwise scan on arbitrary
// finite layouts, then holds the incremental Recompute after each
// fail/repair event to the specification Dijkstra and a full rebuild
// (checkAgainstOracles).
//
// The range and the sink are arguments (non-finite or non-positive
// inputs are skipped). data's first byte sets the node count, 1 to 48;
// each node follows, led by a kind byte:
//   - kind%4 == 0: a lattice point, two signed bytes times
//     range/(1+kind>>2&3), so neighbours sit exactly at the range or at a
//     half, third or quarter of it;
//   - 1: on an earlier node or on the sink (one byte, modulo i+1; i is
//     the sink);
//   - 2: float32 coordinates from 8 bytes;
//   - 3: float64 coordinates from 16 bytes.
//
// Non-finite coordinates become 0. Each byte after the nodes fails (bit
// 0 clear) or repairs node byte>>1 mod n.
func FuzzLinkTable(f *testing.F) {
	f.Add(50.0, 0.0, 0.0, []byte{5, 0, 1, 0, 0, 2, 0, 0, 0xff, 0, 1, 0, 1, 4, 4, 1, 1, 2, 1, 5, 3, 0})
	f.Add(30.0, 30.0, 0.0, []byte{3, 4, 1, 0, 8, 3, 0, 12, 0, 4, 1, 1, 2, 4, 0})
	f.Add(45.0, 12.5, -7.0, []byte{2, 2, 0x42, 0x48, 0, 0, 0x42, 0x20, 0, 0, 2, 0x42, 0x10, 0, 0, 0x42, 0x50, 0, 0,
		3, 0x40, 0x49, 0, 0, 0, 0, 0, 0, 0x40, 0x3e, 0, 0, 0, 0, 0, 0, 1, 0, 2, 3, 4})
	f.Add(1e12, 0.0, 0.0, []byte{1, 3, 0x42, 0x6d, 0x1a, 0x94, 0xa2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
		3, 0x42, 0x7d, 0x1a, 0x94, 0xa2, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 1})
	f.Add(1e200, 0.0, 0.0, []byte{1, 0, 0, 0, 3, 0x7e, 0x37, 0xe4, 0x3c, 0x88, 0x00, 0x75, 0x9c, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, rangeM, sinkX, sinkY float64, data []byte) {
		if !(rangeM > 0) || math.IsInf(rangeM, 0) || !finite(sinkX) || !finite(sinkY) {
			return
		}
		if len(data) == 0 {
			return
		}
		sink := geom.Point{X: sinkX, Y: sinkY}
		specs := make([]NodeSpec, 0, 48)
		for k := 1 + int(data[0])%48; k > 0; k-- {
			var p geom.Point
			var ok bool
			if p, data, ok = fuzzPoint(data, rangeM, sink, specs); !ok {
				return
			}
			specs = append(specs, NodeSpec{Pos: p})
		}
		nw, err := NewNetwork(specs, Config{Sink: sink, CommRange: rangeM})
		if err != nil {
			t.Fatal(err)
		}
		checkLinks(t, nw, "initial")
		checkAgainstOracles(t, nw, "initial")
		if len(data) > 32 {
			data = data[:32]
		}
		for k, op := range data {
			id := int(op>>1) % len(specs)
			if op&1 == 0 {
				nw.ptrs[id].Fail()
			} else {
				nw.ptrs[id].Repair()
			}
			nw.Recompute()
			checkAgainstOracles(t, nw, fmt.Sprintf("event %d", k))
		}
		checkLinks(t, nw, "final")
	})
}

// fuzzPoint decodes one FuzzLinkTable node, kind byte first, returning
// the position, the unread bytes, and false when data runs out.
func fuzzPoint(data []byte, rangeM float64, sink geom.Point, specs []NodeSpec) (geom.Point, []byte, bool) {
	var p geom.Point
	if len(data) == 0 {
		return p, data, false
	}
	kind := data[0]
	data = data[1:]
	switch kind % 4 {
	case 0:
		if len(data) < 2 {
			return p, data, false
		}
		step := rangeM / float64(1+kind>>2&3)
		p = geom.Point{X: float64(int8(data[0])) * step, Y: float64(int8(data[1])) * step}
		data = data[2:]
	case 1:
		if len(data) < 1 {
			return p, data, false
		}
		if j := int(data[0]) % (len(specs) + 1); j < len(specs) {
			p = specs[j].Pos
		} else {
			p = sink
		}
		data = data[1:]
	case 2:
		if len(data) < 8 {
			return p, data, false
		}
		p = geom.Point{
			X: float64(math.Float32frombits(binary.BigEndian.Uint32(data))),
			Y: float64(math.Float32frombits(binary.BigEndian.Uint32(data[4:]))),
		}
		data = data[8:]
	case 3:
		if len(data) < 16 {
			return p, data, false
		}
		p = geom.Point{
			X: math.Float64frombits(binary.BigEndian.Uint64(data)),
			Y: math.Float64frombits(binary.BigEndian.Uint64(data[8:])),
		}
		data = data[16:]
	}
	if !finite(p.X) {
		p.X = 0
	}
	if !finite(p.Y) {
		p.Y = 0
	}
	return p, data, true
}

// TestStrandedMatchesConnected holds Stranded's search over the link
// table to the connectivity NewNetwork's routing finds: a node is
// stranded exactly when the built network gives it no route. The fixed
// cases put born-depleted relays on the only path and the sink out of
// everyone's range; the random ones mix both into scattered fields,
// some under the default radio range.
func TestStrandedMatchesConnected(t *testing.T) {
	const dead = 1e-12 // a born-depleted initial fraction
	line := func(fracs ...float64) []NodeSpec {
		specs := make([]NodeSpec, len(fracs))
		for i, f := range fracs {
			specs[i] = NodeSpec{Pos: geom.Point{X: float64(i+1) * 30}, InitialFrac: f}
		}
		return specs
	}
	type tc struct {
		name  string
		specs []NodeSpec
		cfg   Config
	}
	cases := []tc{
		{"chain", line(1, 1, 1, 1), Config{CommRange: 35}},
		{"dead relay", line(1, dead, 1, 1), Config{CommRange: 35}},
		{"dead first hop", line(dead, 1, 1), Config{CommRange: 35}},
		{"sink out of range", line(1, 1, 1), Config{Sink: geom.Point{X: -100}, CommRange: 35}},
	}
	r := rand.New(rand.NewSource(7))
	for k := 0; k < 60; k++ {
		specs := make([]NodeSpec, 5+r.Intn(60))
		for i := range specs {
			specs[i] = NodeSpec{Pos: geom.Point{X: 300 * r.Float64(), Y: 300 * r.Float64()}, InitialFrac: 1}
			if r.Intn(8) == 0 {
				specs[i].InitialFrac = dead
			}
		}
		cfg := Config{Sink: geom.Point{X: 300 * r.Float64(), Y: 300 * r.Float64()}, CommRange: 30 + 40*r.Float64()}
		if k%4 == 0 {
			cfg.CommRange = 0
		}
		cases = append(cases, tc{fmt.Sprintf("random %d", k), specs, cfg})
	}
	var stranded, reached int
	for _, c := range cases {
		got, err := Stranded(c.specs, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		nw, err := NewNetwork(c.specs, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for i := range c.specs {
			if got[i] != !nw.Connected(NodeID(i)) {
				t.Fatalf("%s: node %d stranded %v, connected %v", c.name, i, got[i], nw.Connected(NodeID(i)))
			}
			if got[i] {
				stranded++
			} else {
				reached++
			}
		}
	}
	if stranded == 0 || reached == 0 {
		t.Fatalf("cases cover %d stranded and %d reached nodes, want both", stranded, reached)
	}
}
