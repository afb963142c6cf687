package geom

import "math"

// Grid is a uniform-bucket spatial index over a fixed point set, built
// once and queried many times. It replaces O(n²) pairwise scans with
// O(n·k) neighborhood lookups: a range query visits only the buckets
// whose cells intersect the query square and returns a candidate
// superset of the disk — callers apply their own exact distance
// predicate, so an index-backed scan can reproduce a brute-force scan's
// results bit for bit.
//
// The cell size should match the dominant query radius (one comm range,
// one charging range): then a query touches at most a 3×3 block of
// cells. Points never move after construction; indices into the
// original slice are what queries return.
type Grid struct {
	cell   float64
	origin Point
	cols   int
	rows   int
	// buckets is a dense cols×rows array of index lists. Within one
	// bucket, indices are ascending (points are inserted in slice
	// order); across buckets a query yields no particular order.
	buckets [][]int32
}

// NewGrid indexes pts with the given cell size. A non-positive (or NaN)
// cell or empty pts yields a degenerate grid whose queries return
// nothing.
//
// The bucket array never exceeds maxBuckets(len(pts)) slots: when the
// bounding box divided by cell would need more, or when that quotient
// is not finite, the cell is widened — doubled until the grid fits, or
// made a single bucket when the extent itself overflows. A wider cell
// only makes queries return larger supersets, so callers that apply an
// exact predicate see the same results.
func NewGrid(pts []Point, cell float64) *Grid {
	g := &Grid{cell: cell}
	if !(cell > 0) || len(pts) == 0 {
		return g
	}
	bb := BoundingBox(pts)
	g.origin = bb.Min
	w, h := bb.Max.X-bb.Min.X, bb.Max.Y-bb.Min.Y
	if math.IsInf(w+h, 0) || math.IsNaN(w+h) {
		g.cell, g.cols, g.rows = math.Inf(1), 1, 1
	} else {
		limit := float64(maxBuckets(len(pts)))
		for (math.Floor(w/g.cell)+1)*(math.Floor(h/g.cell)+1) > limit {
			g.cell *= 2
		}
		g.cols = int(w/g.cell) + 1
		g.rows = int(h/g.cell) + 1
	}
	g.buckets = make([][]int32, g.cols*g.rows)
	// Count first, then carve every bucket out of one backing array.
	counts := make([]int32, g.cols*g.rows)
	cells := make([]int32, len(pts))
	for i, p := range pts {
		c := int32(g.cellIndex(p))
		cells[i] = c
		counts[c]++
	}
	flat := make([]int32, len(pts))
	start := int32(0)
	for c, k := range counts {
		g.buckets[c] = flat[start : start : start+k]
		start += k
	}
	for i := range pts {
		c := cells[i]
		g.buckets[c] = append(g.buckets[c], int32(i))
	}
	return g
}

// maxBuckets bounds a grid's bucket array for n points: four buckets
// per point, and never fewer than 4096. Deployments at the default
// spacing need about half a bucket per point.
func maxBuckets(n int) int { return max(4*n, 4096) }

// cellIndex maps a point inside the bounding box to its bucket slot.
func (g *Grid) cellIndex(p Point) int {
	cx := clampCell(p.X-g.origin.X, g.cell, g.cols)
	cy := clampCell(p.Y-g.origin.Y, g.cell, g.rows)
	return cy*g.cols + cx
}

// clampCell converts a coordinate offset to a cell ordinate clamped to
// the grid, so queries centered outside the indexed area still see the
// border cells. The comparisons run on the float, so an ordinate past
// the int range, or the NaN of an infinite offset over an infinite
// cell, clamps too.
func clampCell(off, cell float64, n int) int {
	c := math.Floor(off / cell)
	if !(c >= 0) {
		return 0
	}
	if c >= float64(n) {
		return n - 1
	}
	return int(c)
}

// Candidates appends to dst the indices of every indexed point whose
// cell intersects the axis-aligned square of half-width r around p —
// a superset of the points within distance r, and of those with
// Dist2 ≤ r². The margin widens the square slightly so border-of-cell
// rounding can never exclude a point a caller's exact predicate would
// accept. No cross-bucket ordering is guaranteed.
func (g *Grid) Candidates(dst []int32, p Point, r float64) []int32 {
	if g.buckets == nil || r < 0 {
		return dst
	}
	// A point passing an exact predicate like Dist(p,q) ≤ r can sit up
	// to a rounding error outside the mathematical square; a fixed
	// margin far above one ulp of any field coordinate absorbs that.
	// Where r² overflows, Dist2 ≤ r² holds for every pair, so the query
	// covers the whole grid.
	const margin = 1e-6
	r += margin
	if math.IsInf(r*r, 1) {
		r = math.Inf(1)
	}
	x0 := clampCell(p.X-r-g.origin.X, g.cell, g.cols)
	x1 := clampCell(p.X+r-g.origin.X, g.cell, g.cols)
	y0 := clampCell(p.Y-r-g.origin.Y, g.cell, g.rows)
	y1 := clampCell(p.Y+r-g.origin.Y, g.cell, g.rows)
	for cy := y0; cy <= y1; cy++ {
		row := cy * g.cols
		for cx := x0; cx <= x1; cx++ {
			dst = append(dst, g.buckets[row+cx]...)
		}
	}
	return dst
}
