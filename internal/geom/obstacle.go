package geom

// Obstacles are modeled as in Olfati-Saber §VII: each physical
// obstacle induces a virtual "β-agent" — the point on the obstacle
// boundary nearest to the robot, with a projected velocity — which the
// controller then treats like a (purely repulsive) neighbor. The
// paper's one obstacle scenario, the grid of Fig. 2 (§2.4), is made of
// spheres.

// BetaAgent is the position and velocity of the virtual agent an
// obstacle projects for one robot, plus whether the robot is within
// interaction range at all.
type BetaAgent struct {
	Pos Vec2
	Vel Vec2
	// OK is false when the projection is undefined (e.g. the robot
	// sits exactly at a sphere's center) or the obstacle is not
	// engaged; callers skip such agents.
	OK bool
}

// SphereObstacle is a disc of radius R centered at C (Olfati-Saber
// Eq. 51 case 2). Its methods are pure functions of their arguments:
// β-agent projection happens inside the deterministic controller and
// is replayed during audits.
type SphereObstacle struct {
	C Vec2
	R float64
}

// Beta implements the spherical-obstacle projection:
//
//	μ = R/‖x − C‖,  x̂ = μ·x + (1−μ)·C,  v̂ = μ·P·v,
//	P = I − a·aᵀ,   a = (x − C)/‖x − C‖.
//
// The projected velocity is the robot's velocity with its radial
// component removed and scaled by μ, i.e. the β-agent slides along the
// obstacle surface.
func (o SphereObstacle) Beta(x, v Vec2) BetaAgent {
	d := x.Sub(o.C)
	n := d.Norm()
	if n == 0 {
		return BetaAgent{} // projection undefined at the center
	}
	mu := o.R / n
	a := d.Scale(1 / n)
	// P·v = v − (a·v)·a
	pv := v.Sub(a.Scale(a.Dot(v)))
	return BetaAgent{
		Pos: x.Scale(mu).Add(o.C.Scale(1 - mu)),
		Vel: pv.Scale(mu),
		OK:  true,
	}
}

// Contains reports whether p lies strictly inside the disc; the
// physics engine uses it for crash detection.
func (o SphereObstacle) Contains(p Vec2) bool {
	return p.DistSq(o.C) < o.R*o.R
}
