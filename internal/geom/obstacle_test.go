package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSphereBetaOnSurface(t *testing.T) {
	o := SphereObstacle{C: V(10, 10), R: 2}
	x := V(16, 10) // 6 m east of center
	v := V(0, 3)   // moving tangentially
	ba := o.Beta(x, v)
	if !ba.OK {
		t.Fatal("projection should be defined")
	}
	// β-agent must lie on the sphere surface, on the segment C→x.
	if d := ba.Pos.Dist(o.C); math.Abs(d-o.R) > 1e-9 {
		t.Errorf("β-agent at distance %v from center, want R=%v", d, o.R)
	}
	want := V(12, 10)
	if !ba.Pos.ApproxEqual(want, 1e-9) {
		t.Errorf("β-agent at %v, want %v", ba.Pos, want)
	}
	// Velocity: tangential component scaled by μ = R/‖x−C‖ = 1/3.
	if !ba.Vel.ApproxEqual(V(0, 1), 1e-9) {
		t.Errorf("β-agent velocity %v, want (0,1)", ba.Vel)
	}
}

func TestSphereBetaRadialVelocityRemoved(t *testing.T) {
	o := SphereObstacle{C: Zero2, R: 1}
	x := V(4, 0)
	v := V(-2, 0) // heading straight at the obstacle
	ba := o.Beta(x, v)
	if !ba.OK {
		t.Fatal("projection should be defined")
	}
	if !ba.Vel.ApproxEqual(Zero2, 1e-12) {
		t.Errorf("radial velocity should vanish after projection, got %v", ba.Vel)
	}
}

func TestSphereBetaAtCenterUndefined(t *testing.T) {
	o := SphereObstacle{C: V(1, 1), R: 3}
	if ba := o.Beta(V(1, 1), V(1, 0)); ba.OK {
		t.Error("projection at center must be undefined")
	}
}

func TestSphereContains(t *testing.T) {
	o := SphereObstacle{C: Zero2, R: 2}
	if !o.Contains(V(1, 0)) {
		t.Error("interior point not contained")
	}
	if o.Contains(V(2, 0)) {
		t.Error("boundary point should not be 'strictly inside'")
	}
	if o.Contains(V(3, 3)) {
		t.Error("exterior point contained")
	}
}

// Property: sphere β-agent position is always on the surface, and its
// velocity is always tangential (orthogonal to the surface normal at
// the projection point).
func TestSphereBetaProperties(t *testing.T) {
	o := SphereObstacle{C: V(5, -3), R: 4}
	f := func(x, y, vx, vy float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(vx) || math.IsNaN(vy) {
			return true
		}
		if math.Abs(x) > 1e4 || math.Abs(y) > 1e4 || math.Abs(vx) > 1e4 || math.Abs(vy) > 1e4 {
			return true
		}
		p, v := V(x, y), V(vx, vy)
		if p == o.C {
			return true
		}
		ba := o.Beta(p, v)
		if !ba.OK {
			return false
		}
		onSurface := math.Abs(ba.Pos.Dist(o.C)-o.R) <= 1e-6*math.Max(1, p.Dist(o.C))
		normal := p.Sub(o.C).Unit()
		tangential := math.Abs(ba.Vel.Dot(normal)) <= 1e-6*math.Max(1, v.Norm())
		return onSurface && tangential
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
