package flocking

import (
	"fmt"
	"slices"

	"roborebound/internal/control"
	"roborebound/internal/geom"
	"roborebound/internal/wire"
)

// Neighbor is the last state heard from a peer.
type Neighbor = control.Peer

// Controller is the per-robot Olfati-Saber state machine. It
// implements control.Controller; see that package for the determinism
// contract.
type Controller struct {
	control.Self
	params    Params
	neighbors control.Peers
}

var _ control.Controller = (*Controller)(nil)

// New returns a controller in its canonical initial state.
func New(id wire.RobotID, p Params) *Controller {
	c := new(Controller)
	c.reset(id, p)
	return c
}

// reset puts c in robot id's initial state, keeping only the storage of
// its neighbor table.
func (c *Controller) reset(id wire.RobotID, p Params) {
	*c = Controller{Self: control.Self{ID: id}, params: p, neighbors: c.neighbors[:0]}
}

// OnMessage records a peer's state broadcast (see control.Peers.Hear:
// the claimed source is the surface the §5.3 spoofing attack exploits).
func (c *Controller) OnMessage(payload []byte) { c.neighbors.Hear(payload, c.ID, c.Time) }

// OnSensor runs one control step: update own pose, expire stale
// neighbors, compute the Olfati-Saber control vector, and emit the
// actuator command plus — on broadcast ticks — the state broadcast.
func (c *Controller) OnSensor(r wire.SensorReading) control.Outputs {
	c.Sense(r)
	c.expireNeighbors()
	return c.Act(c.controlVector(), c.params.BroadcastPeriod)
}

func (c *Controller) expireNeighbors() {
	if c.params.NeighborTimeout == 0 {
		return
	}
	keep := c.neighbors[:0]
	for _, n := range c.neighbors {
		if n.LastHeard+c.params.NeighborTimeout > c.Time {
			keep = append(keep, n)
		}
	}
	c.neighbors = keep
}

// controlVector computes u_i = u_α + u_β + u_γ (Algorithm 1 / [68]
// Eq. 59), saturated per axis.
func (c *Controller) controlVector() geom.Vec2 {
	p := &c.params
	u := geom.Zero2

	// α-term: spring/damper with each neighbor within range.
	rA, dA := p.RAlpha(), p.DAlpha()
	for _, n := range c.neighbors {
		xj := geom.V(float64(n.PosX), float64(n.PosY))
		vj := geom.V(float64(n.VelX), float64(n.VelY))
		diff := xj.Sub(c.Pos)
		z := geom.SigmaNorm(diff, p.Eps)
		if z >= rA {
			continue // outside interaction range
		}
		// NbrSpring: gradient-based attraction/repulsion.
		phi := geom.PhiAlpha(z, rA, dA, p.HAlpha, p.A, p.B)
		nij := geom.SigmaGrad(diff, p.Eps)
		u = u.Add(nij.Scale(p.C1Alpha * phi))
		// NbrDamp: velocity consensus.
		aij := geom.Bump(z/rA, p.HAlpha)
		u = u.Add(vj.Sub(c.Vel).Scale(p.C2Alpha * aij))
	}

	// β-term: repulsion from the nearest points of nearby obstacles.
	if p.C1Beta != 0 || p.C2Beta != 0 {
		rB, dB := p.RBeta(), p.DBeta()
		for _, o := range p.Obstacles {
			ba := o.Beta(c.Pos, c.Vel)
			if !ba.OK {
				continue
			}
			diff := ba.Pos.Sub(c.Pos)
			z := geom.SigmaNorm(diff, p.Eps)
			if z >= rB {
				continue
			}
			phi := geom.PhiBeta(z, dB, p.HBeta)
			nik := geom.SigmaGrad(diff, p.Eps)
			u = u.Add(nik.Scale(p.C1Beta * phi))
			bik := geom.Bump(z/dB, p.HBeta)
			u = u.Add(ba.Vel.Sub(c.Vel).Scale(p.C2Beta * bik))
		}
	}

	// γ-term: goal spring/damper (SysGoalSpring + SysGoalDamp). Table 3
	// gains are negative, so adding attracts toward the goal and damps
	// velocity relative to it.
	u = u.Add(c.Pos.Sub(p.Goal).Scale(p.C1Gamma))
	u = u.Add(c.Vel.Sub(p.GoalVel).Scale(p.C2Gamma))

	return u.ClampAxes(p.AccelCap)
}

// Neighbors returns a copy of the neighbor table (tests/metrics only).
func (c *Controller) Neighbors() []Neighbor {
	return append([]Neighbor(nil), c.neighbors...)
}

// AppendState appends the canonical checkpoint state (§5.2: time,
// pose, neighbor count, and per-neighbor ID, last-heard time, and
// pose).
func (c *Controller) AppendState(dst []byte) []byte {
	dst = slices.Grow(dst, control.SelfSize+2+len(c.neighbors)*control.PeerSize)
	return c.neighbors.AppendPeers(c.AppendSelf(dst))
}

func (c *Controller) restoreState(state []byte) error {
	r := wire.NewReader(state)
	c.ReadSelf(r)
	if err := c.neighbors.ReadPeers(r); err != nil {
		return fmt.Errorf("flocking state: %w", err)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("flocking state: %w", err)
	}
	return nil
}

// Factory builds flocking controllers for one mission configuration.
type Factory struct {
	Params Params
}

var _ control.Factory = Factory{}

// New implements control.Factory.
func (f Factory) New(id wire.RobotID) control.Controller {
	return New(id, f.Params)
}

// Load implements control.Factory.
func (f Factory) Load(c control.Controller, id wire.RobotID, state []byte) (control.Controller, error) {
	fc, ok := c.(*Controller)
	if !ok {
		fc = new(Controller)
	}
	fc.reset(id, f.Params)
	if state == nil {
		return fc, nil
	}
	if err := fc.restoreState(state); err != nil {
		return nil, err
	}
	return fc, nil
}
