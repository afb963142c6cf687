// Package geom provides the planar geometry primitives used throughout the
// WRSN simulator: points, distances, bounding boxes, and tour utilities for
// mobile-charger path planning.
//
// All coordinates are in meters. The package is allocation-light and safe for
// concurrent read-only use; none of its types contain interior mutability.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in the 2D deployment field, in meters.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p − q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Norm returns the Euclidean norm of p treated as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred comparison key in hot loops.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Midpoint returns the midpoint of segment pq.
func (p Point) Midpoint(q Point) Point {
	return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2}
}

// Lerp linearly interpolates from p to q; t=0 yields p, t=1 yields q.
// t outside [0,1] extrapolates.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle. Min is the lower-left corner and Max
// the upper-right; a Rect with Min==Max is a degenerate point.
type Rect struct {
	Min, Max Point
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		Min: Point{math.Min(a.X, b.X), math.Min(a.Y, b.Y)},
		Max: Point{math.Max(a.X, b.X), math.Max(a.Y, b.Y)},
	}
}

// Square returns the axis-aligned square [0,side] × [0,side].
func Square(side float64) Rect {
	return Rect{Max: Point{side, side}}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Center returns the centroid of r.
func (r Rect) Center() Point { return r.Min.Midpoint(r.Max) }

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns the closest point to p inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Max(r.Min.X, math.Min(r.Max.X, p.X)),
		Y: math.Max(r.Min.Y, math.Min(r.Max.Y, p.Y)),
	}
}

// BoundingBox returns the smallest Rect containing all pts. It returns the
// zero Rect when pts is empty.
func BoundingBox(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// Centroid returns the arithmetic mean of pts, or the zero Point when pts is
// empty.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		return Point{}
	}
	var c Point
	for _, p := range pts {
		c.X += p.X
		c.Y += p.Y
	}
	n := float64(len(pts))
	return Point{c.X / n, c.Y / n}
}
