// Package geom provides the 2-D vector algebra, the Olfati-Saber
// analytic helper functions (σ-norm, bump functions, action functions)
// and the sphere obstacles of Fig. 2 that the flocking controller and
// the physics engine are built on.
//
// Everything in this package is a pure function of its inputs; the
// flocking controller's determinism (and therefore the soundness of
// deterministic replay) rests on that property.
package geom

import "math"

// Vec2 is a two-dimensional vector. The simulated world is planar, as
// in the paper's evaluation (wheeled robots in a 100 m × 100 m arena).
type Vec2 struct {
	X, Y float64
}

// V is shorthand for constructing a Vec2.
func V(x, y float64) Vec2 { return Vec2{X: x, Y: y} }

// Zero2 is the zero vector.
var Zero2 = Vec2{}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns s·v.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{s * v.X, s * v.Y} }

// Neg returns -v.
func (v Vec2) Neg() Vec2 { return Vec2{-v.X, -v.Y} }

// Dot returns the inner product v·w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the scalar (z-component) cross product v × w.
func (v Vec2) Cross(w Vec2) float64 { return v.X*w.Y - v.Y*w.X }

// NormSq returns ‖v‖².
func (v Vec2) NormSq() float64 { return v.X*v.X + v.Y*v.Y }

// Norm returns the Euclidean norm ‖v‖.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Dist returns ‖v - w‖.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Norm() }

// DistSq returns ‖v - w‖².
func (v Vec2) DistSq(w Vec2) float64 { return v.Sub(w).NormSq() }

// Unit returns v/‖v‖, or the zero vector when ‖v‖ == 0.
func (v Vec2) Unit() Vec2 {
	n := v.Norm()
	if n == 0 {
		return Zero2
	}
	return v.Scale(1 / n)
}

// ClampAxes limits each component of v to [-limit, limit]. The paper
// caps robot acceleration at 5 m/s² per dimension (§4); this is the
// primitive that cap is built on.
func (v Vec2) ClampAxes(limit float64) Vec2 {
	return Vec2{clamp(v.X, -limit, limit), clamp(v.Y, -limit, limit)}
}

// ClampNorm limits ‖v‖ to at most limit, preserving direction.
func (v Vec2) ClampNorm(limit float64) Vec2 {
	n := v.Norm()
	if n <= limit || n == 0 {
		return v
	}
	return v.Scale(limit / n)
}

// Lerp returns v + t·(w - v).
func (v Vec2) Lerp(w Vec2, t float64) Vec2 {
	return Vec2{v.X + t*(w.X-v.X), v.Y + t*(w.Y-v.Y)}
}

// Perp returns v rotated 90° counter-clockwise.
func (v Vec2) Perp() Vec2 { return Vec2{-v.Y, v.X} }

// IsFinite reports whether both components are finite (no NaN/Inf).
// The physics engine rejects controller outputs that are not finite;
// a correct controller never produces them, so emitting one is treated
// as misbehavior.
func (v Vec2) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0)
}

// ApproxEqual reports whether v and w differ by at most eps in each
// component. Intended for tests; protocol code compares exactly.
func (v Vec2) ApproxEqual(w Vec2, eps float64) bool {
	return math.Abs(v.X-w.X) <= eps && math.Abs(v.Y-w.Y) <= eps
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
