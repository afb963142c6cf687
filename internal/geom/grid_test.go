package geom

import (
	"math"
	"math/rand"
	"testing"
)

// TestGridCandidatesSuperset checks every point accepted by an exact
// disk predicate appears among the grid candidates, across random point
// sets, radii, and query centers (inside and outside the indexed area).
func TestGridCandidatesSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: rng.Float64() * 300, Y: rng.Float64() * 300}
		}
		cell := 10 + rng.Float64()*80
		g := NewGrid(pts, cell)
		for q := 0; q < 20; q++ {
			p := Point{X: rng.Float64()*400 - 50, Y: rng.Float64()*400 - 50}
			r := rng.Float64() * 120
			got := map[int32]bool{}
			for _, i := range g.Candidates(nil, p, r) {
				got[i] = true
			}
			for i, pt := range pts {
				if p.Dist(pt) <= r && !got[int32(i)] {
					t.Fatalf("trial %d: point %d at %v (dist %v ≤ %v) missing from candidates",
						trial, i, pt, p.Dist(pt), r)
				}
			}
		}
	}
}

// TestGridDegenerate covers empty input, non-positive cell, and
// negative radius.
func TestGridDegenerate(t *testing.T) {
	if got := NewGrid(nil, 10).Candidates(nil, Point{}, 5); len(got) != 0 {
		t.Fatalf("empty grid returned %v", got)
	}
	if got := NewGrid([]Point{{X: 1, Y: 1}}, 0).Candidates(nil, Point{}, 5); len(got) != 0 {
		t.Fatalf("zero-cell grid returned %v", got)
	}
	g := NewGrid([]Point{{X: 1, Y: 1}}, 10)
	if got := g.Candidates(nil, Point{}, -1); len(got) != 0 {
		t.Fatalf("negative radius returned %v", got)
	}
}

// TestGridBucketBound checks that the bucket array stays within
// maxBuckets however small the cell or wide the extent, that an
// overflowing or NaN extent gets one bucket, that a widened grid still
// returns supersets, and that an ordinary cell is left alone.
func TestGridBucketBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]Point, 100)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 300, Y: rng.Float64() * 300}
	}
	for _, cell := range []float64{1e-4, 1e-300, math.SmallestNonzeroFloat64} {
		g := NewGrid(pts, cell)
		if len(g.buckets) > maxBuckets(len(pts)) {
			t.Fatalf("cell %g: %d buckets, bound %d", cell, len(g.buckets), maxBuckets(len(pts)))
		}
		for q := 0; q < 50; q++ {
			p := pts[rng.Intn(len(pts))]
			r := rng.Float64() * 40
			got := map[int32]bool{}
			for _, i := range g.Candidates(nil, p, r) {
				got[i] = true
			}
			for i, pt := range pts {
				if p.Dist(pt) <= r && !got[int32(i)] {
					t.Fatalf("cell %g: point %d (dist %v ≤ %v) missing", cell, i, p.Dist(pt), r)
				}
			}
		}
	}
	wide := []Point{{X: 0, Y: 0}, {X: 1e308, Y: 1e308}, {X: 5, Y: 5}}
	if g := NewGrid(wide, 50); len(g.buckets) > maxBuckets(len(wide)) {
		t.Fatalf("1e308 field: %d buckets", len(g.buckets))
	}
	for name, pts := range map[string][]Point{
		"overflow": {{X: -1e308, Y: 0}, {X: 1e308, Y: 0}, {X: 0, Y: 0}},
		"nan":      {{X: math.NaN(), Y: 0}, {X: 1, Y: 1}},
	} {
		g := NewGrid(pts, 50)
		if len(g.buckets) != 1 {
			t.Fatalf("%s: %d buckets, want 1", name, len(g.buckets))
		}
		if got := g.Candidates(nil, Point{}, 1); len(got) != len(pts) {
			t.Fatalf("%s: candidates %v, want every point", name, got)
		}
	}
	// The default deployment spacing (36 m per node, 50 m cells) is far
	// from the bound: the cell must come back unchanged.
	dense := make([]Point, 10_000)
	for i := range dense {
		dense[i] = Point{X: rng.Float64() * 3600, Y: rng.Float64() * 3600}
	}
	if g := NewGrid(dense, 50); g.cell != 50 {
		t.Fatalf("default spacing widened the cell to %g", g.cell)
	}
}

// TestGridSinglePointAndReuse checks dst reuse semantics and a
// one-point grid.
func TestGridSinglePointAndReuse(t *testing.T) {
	g := NewGrid([]Point{{X: 5, Y: 5}}, 4)
	buf := make([]int32, 0, 4)
	got := g.Candidates(buf, Point{X: 5.5, Y: 5.1}, 1)
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("got %v, want [0]", got)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("candidates did not reuse the provided buffer")
	}
}

func BenchmarkGridCandidates(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]Point, 500)
	for i := range pts {
		pts[i] = Point{X: rng.Float64() * 300, Y: rng.Float64() * 300}
	}
	g := NewGrid(pts, 50)
	var buf []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Candidates(buf[:0], pts[i%len(pts)], 50)
	}
}
