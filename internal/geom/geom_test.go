package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b)) }

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(3, 4), Pt(-1, 2)
	if got := p.Add(q); got != Pt(2, 6) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(4, 2) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(6, 8) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
}

func TestDistances(t *testing.T) {
	p, q := Pt(0, 0), Pt(3, 4)
	if d := p.Dist(q); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d2 := p.Dist2(q); d2 != 25 {
		t.Errorf("Dist2 = %v, want 25", d2)
	}
	if m := p.Midpoint(q); m != Pt(1.5, 2) {
		t.Errorf("Midpoint = %v", m)
	}
}

func TestDistMatchesDist2(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		// Keep magnitudes sane so squaring cannot overflow.
		clamp := func(x float64) float64 { return math.Mod(x, 1e6) }
		a, b := Pt(clamp(ax), clamp(ay)), Pt(clamp(bx), clamp(by))
		d := a.Dist(b)
		return almostEq(d*d, a.Dist2(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLerp(t *testing.T) {
	p, q := Pt(0, 0), Pt(10, 20)
	if got := p.Lerp(q, 0); got != p {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := p.Lerp(q, 1); got != q {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := p.Lerp(q, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestRect(t *testing.T) {
	r := NewRect(Pt(4, 1), Pt(0, 3)) // corners in scrambled order
	if r.Min != Pt(0, 1) || r.Max != Pt(4, 3) {
		t.Fatalf("NewRect normalized to %+v", r)
	}
	if r.Width() != 4 || r.Height() != 2 {
		t.Errorf("Width/Height = %v/%v", r.Width(), r.Height())
	}
	if c := r.Center(); c != Pt(2, 2) {
		t.Errorf("Center = %v", c)
	}
	if !r.Contains(Pt(0, 1)) || !r.Contains(Pt(4, 3)) {
		t.Error("boundary points should be contained")
	}
	if r.Contains(Pt(-0.1, 2)) {
		t.Error("outside point contained")
	}
	if got := r.Clamp(Pt(-5, 10)); got != Pt(0, 3) {
		t.Errorf("Clamp = %v", got)
	}
}

func TestClampAlwaysInside(t *testing.T) {
	r := Square(100)
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		return r.Contains(r.Clamp(Pt(x, y)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoundingBox(t *testing.T) {
	if bb := BoundingBox(nil); bb != (Rect{}) {
		t.Errorf("empty bounding box = %+v", bb)
	}
	pts := []Point{Pt(1, 5), Pt(-2, 3), Pt(4, -1)}
	bb := BoundingBox(pts)
	if bb.Min != Pt(-2, -1) || bb.Max != Pt(4, 5) {
		t.Errorf("BoundingBox = %+v", bb)
	}
	for _, p := range pts {
		if !bb.Contains(p) {
			t.Errorf("bounding box misses %v", p)
		}
	}
}

func TestCentroid(t *testing.T) {
	if c := Centroid(nil); c != (Point{}) {
		t.Errorf("empty centroid = %v", c)
	}
	c := Centroid([]Point{Pt(0, 0), Pt(2, 0), Pt(1, 3)})
	if !almostEq(c.X, 1) || !almostEq(c.Y, 1) {
		t.Errorf("Centroid = %v", c)
	}
}
