package geom

import (
	"math/rand"
	"testing"
)

func randomPoints(r *rand.Rand, n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(r.Float64()*1000, r.Float64()*1000)
	}
	return pts
}

func TestTourLength(t *testing.T) {
	if l := TourLength(nil); l != 0 {
		t.Errorf("empty tour length = %v", l)
	}
	if l := TourLength([]Point{Pt(0, 0)}); l != 0 {
		t.Errorf("single-point tour length = %v", l)
	}
	square := []Point{Pt(0, 0), Pt(1, 0), Pt(1, 1), Pt(0, 1)}
	if l := TourLength(square); l != 3 {
		t.Errorf("open square length = %v, want 3", l)
	}
}

func TestNearestNeighborOrder(t *testing.T) {
	pts := []Point{Pt(10, 0), Pt(1, 0), Pt(5, 0)}
	order := NearestNeighborOrder(Pt(0, 0), pts)
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNearestNeighborIsPermutation(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		pts := randomPoints(r, 30)
		order := NearestNeighborOrder(Pt(500, 500), pts)
		seen := make(map[int]bool, len(order))
		for _, idx := range order {
			if idx < 0 || idx >= len(pts) || seen[idx] {
				t.Fatalf("invalid permutation %v", order)
			}
			seen[idx] = true
		}
		if len(seen) != len(pts) {
			t.Fatalf("permutation misses points: %v", order)
		}
	}
}

func TestInsertionCost(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 0)
	// Inserting a point on the segment costs nothing.
	if c := InsertionCost(a, b, Pt(5, 0)); !almostEq(c, 0) {
		t.Errorf("on-segment insertion cost = %v", c)
	}
	// Off-segment detour is positive.
	if c := InsertionCost(a, b, Pt(5, 5)); c <= 0 {
		t.Errorf("detour cost = %v, want > 0", c)
	}
}

func TestTwoOptImproves(t *testing.T) {
	// A deliberately crossed tour: 2-opt must uncross it.
	tour := []Point{Pt(0, 0), Pt(10, 10), Pt(10, 0), Pt(0, 10)}
	before := TourLength(tour)
	moves := TwoOpt(tour, 10)
	after := TourLength(tour)
	if moves == 0 {
		t.Fatal("expected at least one improving move")
	}
	if after >= before {
		t.Fatalf("2-opt did not improve: %v -> %v", before, after)
	}
	if tour[0] != Pt(0, 0) {
		t.Fatalf("2-opt moved the anchor: %v", tour[0])
	}
}

func TestTwoOptNeverWorsens(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		pts := randomPoints(r, 20)
		before := TourLength(pts)
		anchor := pts[0]
		TwoOpt(pts, 50)
		after := TourLength(pts)
		if after > before+1e-9 {
			t.Fatalf("trial %d: 2-opt worsened %v -> %v", trial, before, after)
		}
		if pts[0] != anchor {
			t.Fatalf("trial %d: anchor moved", trial)
		}
	}
}

func TestTwoOptSmallTours(t *testing.T) {
	for n := 0; n < 4; n++ {
		pts := randomPoints(rand.New(rand.NewSource(3)), n)
		if moves := TwoOpt(pts, 5); moves != 0 {
			t.Errorf("n=%d: moves = %d, want 0", n, moves)
		}
	}
}

func TestPermuteBy(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(1, 1), Pt(2, 2)}
	out := PermuteBy(pts, []int{2, 0, 1})
	if out[0] != Pt(2, 2) || out[1] != Pt(0, 0) || out[2] != Pt(1, 1) {
		t.Errorf("PermuteBy = %v", out)
	}
	// The input must be untouched.
	if pts[0] != Pt(0, 0) {
		t.Error("PermuteBy mutated its input")
	}
}

func BenchmarkTwoOpt(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	base := randomPoints(r, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tour := append([]Point(nil), base...)
		TwoOpt(tour, 8)
	}
}
