package wrsn

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/reprolab/wrsn-csa/internal/geom"
)

// linkTable is the static radio graph in compressed sparse row form.
// Positions never move after construction, so the links and their
// lengths are derived once, next to the position grid, and every routing
// recompute and topology analysis reads them instead of re-querying the
// grid, re-testing the link predicate and re-measuring each edge.
//
// Row k spans to[off[k]:off[k+1]]. Row i (a node) lists i's in-range
// neighbours in ascending ID order, then the sink (graph index n) when
// it is in range; row n lists the nodes in range of the sink, ascending.
// ln holds each link's length measured from its row's node (from the
// sink for row n). Rows hold every link, alive or not: readers skip
// nodes outside the live set, which leaves exactly the alive adjacency
// the pairwise scan would build, in the same order.
//
// The stored lengths are the ones a relaxation from either end would
// compute: Dist2 and Dist are symmetric bit for bit, because negating a
// difference is exact and Hypot takes absolute values.
type linkTable struct {
	off []int32
	to  []int32
	ln  []float64
}

// row returns graph index u's neighbours and their link lengths.
func (lt *linkTable) row(u int) ([]int32, []float64) {
	a, b := lt.off[u], lt.off[u+1]
	return lt.to[a:b], lt.ln[a:b]
}

// index builds the position grid and the link table from the node
// positions, which are final by then. One grid query per node gathers
// its sorted row into a scratch buffer; the table's arrays are then
// allocated at their exact size and filled from it, the sink row last.
func (nw *Network) index() error {
	n := len(nw.pos)
	nw.grid = geom.NewGrid(nw.pos, nw.commRange)
	off := make([]int32, n+2)
	scratch := rowScratch.Get().(*[]int32)
	defer rowScratch.Put(scratch)
	// Room for eight links a node: the default deployment density holds
	// about six plus the sink's, and a denser layout grows the buffer.
	rows := slices.Grow((*scratch)[:0], 8*n)
	sinkDeg := 0
	for i, p := range nw.pos {
		row := nw.inRange(i, p)
		sort32(row)
		rows = append(rows, row...)
		if nw.linked(p, nw.sink) {
			rows = append(rows, int32(n))
			sinkDeg++
		}
		if len(rows)+sinkDeg > math.MaxInt32 {
			return fmt.Errorf("wrsn: radio graph exceeds %d links", math.MaxInt32)
		}
		off[i+1] = int32(len(rows))
	}
	*scratch = rows
	off[n+1] = off[n] + int32(sinkDeg)
	lt := &linkTable{off: off, to: make([]int32, off[n+1]), ln: make([]float64, off[n+1])}
	copy(lt.to, rows)
	sinkRow := lt.to[off[n]:off[n]]
	for i, p := range nw.pos {
		a, b := int(off[i]), int(off[i+1])
		for k := a; k < b; k++ {
			if j := lt.to[k]; int(j) == n {
				lt.ln[k] = p.Dist(nw.sink)
				sinkRow = append(sinkRow, int32(i))
			} else {
				lt.ln[k] = p.Dist(nw.pos[j])
			}
		}
	}
	for k, j := range sinkRow {
		lt.ln[int(off[n])+k] = nw.sink.Dist(nw.pos[j])
	}
	nw.links = lt
	return nil
}

// Stranded reports which nodes of a network built from specs under cfg
// would start without a route to the sink: born depleted, or out of
// multi-hop radio range of it through nodes that are not. It is the
// connectivity NewNetwork's routing would find, read off a breadth-first
// search of the link table from the sink: only the position grid and
// the link table are built.
func Stranded(specs []NodeSpec, cfg Config) ([]bool, error) {
	n := len(specs)
	if n == 0 {
		return nil, ErrNoNodes
	}
	if cfg.CommRange <= 0 {
		cfg.CommRange = DefaultCommRange
	}
	nw := &Network{sink: cfg.Sink, commRange: cfg.CommRange, pos: make([]geom.Point, n)}
	alive := newBitset(n)
	for i, s := range specs {
		if err := s.checkPos(i); err != nil {
			return nil, err
		}
		b, _, err := s.battery()
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
		nw.pos[i] = s.Pos
		setBit(alive, i, !b.Depleted())
	}
	if err := nw.index(); err != nil {
		return nil, err
	}
	stranded := make([]bool, n)
	for i := range stranded {
		stranded[i] = true
	}
	queue := append(make([]int32, 0, n+1), int32(n))
	for k := 0; k < len(queue); k++ {
		to, _ := nw.links.row(int(queue[k]))
		for _, v := range to {
			if int(v) != n && alive.get(int(v)) && stranded[v] {
				stranded[v] = false
				queue = append(queue, v)
			}
		}
	}
	return stranded, nil
}

// rowScratch recycles index's row buffer, so a process that builds
// many worlds in a row, such as a sweep, allocates it about once.
var rowScratch = sync.Pool{New: func() any { return new([]int32) }}

// inRange returns node i's in-range neighbours at position p, in grid
// order, in the reused candidate buffer.
func (nw *Network) inRange(i int, p geom.Point) []int32 {
	all := nw.grid.Candidates(nw.cand[:0], p, nw.commRange)
	nw.cand = all
	keep := all[:0]
	for _, j := range all {
		if int(j) != i && nw.linked(p, nw.pos[j]) {
			keep = append(keep, j)
		}
	}
	return keep
}

// linked reports whether two points are within radio range of each other.
func (nw *Network) linked(a, b geom.Point) bool {
	return a.Dist2(b) <= nw.commRange*nw.commRange
}

// inGraph reports whether graph index w (a node, or n for the sink) is
// in the alive topology. It reads the live set as it stands, so callers
// refresh it first.
func (nw *Network) inGraph(w int) bool {
	return w == len(nw.nodes) || nw.live.get(w)
}

// sort32 insertion-sorts a small neighbour list ascending; rows are a
// dozen entries, below the crossover where sort.Slice's overhead pays
// off.
func sort32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
