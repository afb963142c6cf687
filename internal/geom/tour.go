package geom

// This file implements the tour machinery used by mobile-charger path
// planning: tour length evaluation, nearest-neighbor construction, cheapest
// insertion, and 2-opt local improvement. Tours are open or closed sequences
// of waypoints; the attack planner operates on open tours anchored at the
// charger's depot.

// TourLength returns the total length of the open path visiting pts in
// order. It returns 0 for fewer than two points.
func TourLength(pts []Point) float64 {
	var total float64
	for i := 1; i < len(pts); i++ {
		total += pts[i-1].Dist(pts[i])
	}
	return total
}

// NearestNeighborOrder returns a permutation of indices into pts visiting
// them greedily by proximity, starting from the point closest to start.
// It is the classic O(n²) constructive TSP heuristic.
func NearestNeighborOrder(start Point, pts []Point) []int {
	n := len(pts)
	order := make([]int, 0, n)
	visited := make([]bool, n)
	cur := start
	for len(order) < n {
		best, bestD := -1, 0.0
		for i, p := range pts {
			if visited[i] {
				continue
			}
			d := cur.Dist2(p)
			if best < 0 || d < bestD {
				best, bestD = i, d
			}
		}
		visited[best] = true
		order = append(order, best)
		cur = pts[best]
	}
	return order
}

// InsertionCost returns the detour incurred by inserting p between
// consecutive tour points a and b: d(a,p) + d(p,b) − d(a,b).
func InsertionCost(a, b, p Point) float64 {
	return a.Dist(p) + p.Dist(b) - a.Dist(b)
}

// TwoOpt improves the open tour in place using 2-opt moves until no
// improving move exists or maxPasses passes complete. The first point is
// treated as a fixed anchor (the depot) and is never moved. It returns the
// number of improving moves applied.
func TwoOpt(tour []Point, maxPasses int) int {
	n := len(tour)
	if n < 4 {
		return 0
	}
	moves := 0
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for i := 1; i < n-2; i++ {
			for j := i + 1; j < n-1; j++ {
				// Reversing tour[i..j] replaces edges (i−1,i) and (j,j+1)
				// with (i−1,j) and (i,j+1).
				delta := tour[i-1].Dist(tour[j]) + tour[i].Dist(tour[j+1]) -
					tour[i-1].Dist(tour[i]) - tour[j].Dist(tour[j+1])
				if delta < -1e-12 {
					reverse(tour[i : j+1])
					improved = true
					moves++
				}
			}
		}
		if !improved {
			break
		}
	}
	return moves
}

func reverse(pts []Point) {
	for l, r := 0, len(pts)-1; l < r; l, r = l+1, r-1 {
		pts[l], pts[r] = pts[r], pts[l]
	}
}

// PermuteBy returns pts reordered by the given index permutation. It copies;
// the input slice is not modified.
func PermuteBy(pts []Point, order []int) []Point {
	out := make([]Point, len(order))
	for i, idx := range order {
		out[i] = pts[idx]
	}
	return out
}
