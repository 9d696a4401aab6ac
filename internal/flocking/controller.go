package flocking

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"roborebound/internal/control"
	"roborebound/internal/geom"
	"roborebound/internal/wire"
)

// Neighbor is the last state heard from a peer. Positions and
// velocities are kept as float32 — exactly the precision they arrived
// with over the air — so checkpoint round-trips are lossless.
type Neighbor struct {
	ID         wire.RobotID
	LastHeard  wire.Tick // controller-local time when the state was recorded
	PosX, PosY float32
	VelX, VelY float32
}

// Controller is the per-robot Olfati-Saber state machine. It
// implements control.Controller; see that package for the determinism
// contract.
type Controller struct {
	id     wire.RobotID
	params Params

	time      wire.Tick // time of the last processed sensor reading
	pos       geom.Vec2 // own position (float64, from the s-node)
	vel       geom.Vec2
	neighbors []Neighbor // sorted by ID, unique

	bcast [wire.StateMsgSize]byte // Outputs.Broadcast, lent until the next call
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
	*c = Controller{id: id, params: p, neighbors: c.neighbors[:0]}
}

// OnMessage ingests a state broadcast from a peer. Messages that do
// not parse, or that claim this robot's own ID, are ignored. The
// claimed source ID is *not* authenticated — this is precisely the
// surface the §5.3 spoofing attack exploits.
func (c *Controller) OnMessage(payload []byte) {
	m, err := wire.DecodeStateMsg(payload)
	if err != nil || m.Src == c.id {
		return
	}
	nbr := Neighbor{
		ID:        m.Src,
		LastHeard: c.time,
		PosX:      m.PosX, PosY: m.PosY,
		VelX: m.VelX, VelY: m.VelY,
	}
	i := sort.Search(len(c.neighbors), func(i int) bool { return c.neighbors[i].ID >= m.Src })
	if i < len(c.neighbors) && c.neighbors[i].ID == m.Src {
		c.neighbors[i] = nbr
		return
	}
	c.neighbors = append(c.neighbors, Neighbor{})
	copy(c.neighbors[i+1:], c.neighbors[i:])
	c.neighbors[i] = nbr
}

// OnSensor runs one control step: update own pose, expire stale
// neighbors, compute the Olfati-Saber control vector, and emit the
// actuator command plus — on broadcast ticks — the state broadcast.
func (c *Controller) OnSensor(r wire.SensorReading) control.Outputs {
	c.time = r.Time
	c.pos = geom.V(r.PosX, r.PosY)
	c.vel = geom.V(float64(r.VelX), float64(r.VelY))
	c.expireNeighbors()

	u := c.controlVector()
	out := control.Outputs{
		Cmd:    wire.ActuatorCmd{Time: r.Time, AccX: u.X, AccY: u.Y},
		HasCmd: true,
	}
	if c.isBroadcastTick(r.Time) {
		msg := wire.StateMsg{
			Src:  c.id,
			Time: r.Time,
			PosX: float32(c.pos.X), PosY: float32(c.pos.Y),
			VelX: float32(c.vel.X), VelY: float32(c.vel.Y),
		}
		out.Broadcast = msg.AppendEncode(c.bcast[:0])
	}
	return out
}

// isBroadcastTick staggers broadcasts across robots by a per-ID phase,
// so an entire flock does not key up in the same tick. The phase is a
// pure function of the robot ID, so replay agrees.
func (c *Controller) isBroadcastTick(t wire.Tick) bool {
	period := c.params.BroadcastPeriod
	if period == 0 {
		return false
	}
	phase := wire.Tick(c.id) % period
	return t%period == phase
}

func (c *Controller) expireNeighbors() {
	if c.params.NeighborTimeout == 0 {
		return
	}
	keep := c.neighbors[:0]
	for _, n := range c.neighbors {
		if n.LastHeard+c.params.NeighborTimeout > c.time {
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
		diff := xj.Sub(c.pos)
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
		u = u.Add(vj.Sub(c.vel).Scale(p.C2Alpha * aij))
	}

	// β-term: repulsion from the nearest points of nearby obstacles.
	if p.C1Beta != 0 || p.C2Beta != 0 {
		rB, dB := p.RBeta(), p.DBeta()
		for _, o := range p.Obstacles {
			ba := o.Beta(c.pos, c.vel)
			if !ba.OK {
				continue
			}
			diff := ba.Pos.Sub(c.pos)
			z := geom.SigmaNorm(diff, p.Eps)
			if z >= rB {
				continue
			}
			phi := geom.PhiBeta(z, dB, p.HBeta)
			nik := geom.SigmaGrad(diff, p.Eps)
			u = u.Add(nik.Scale(p.C1Beta * phi))
			bik := geom.Bump(z/dB, p.HBeta)
			u = u.Add(ba.Vel.Sub(c.vel).Scale(p.C2Beta * bik))
		}
	}

	// γ-term: goal spring/damper (SysGoalSpring + SysGoalDamp). Table 3
	// gains are negative, so adding attracts toward the goal and damps
	// velocity relative to it.
	u = u.Add(c.pos.Sub(p.Goal).Scale(p.C1Gamma))
	u = u.Add(c.vel.Sub(p.GoalVel).Scale(p.C2Gamma))

	return u.ClampAxes(p.AccelCap)
}

// Pos returns the controller's view of its own position (tests only).
func (c *Controller) Pos() geom.Vec2 { return c.pos }

// Neighbors returns a copy of the neighbor table (tests/metrics only).
func (c *Controller) Neighbors() []Neighbor {
	return append([]Neighbor(nil), c.neighbors...)
}

// AppendState appends the canonical checkpoint state (§5.2: time,
// pose, neighbor count, and per-neighbor ID, last-heard time, and
// pose).
func (c *Controller) AppendState(dst []byte) []byte {
	dst = slices.Grow(dst, 8+16+8+2+len(c.neighbors)*26)
	dst = binary.BigEndian.AppendUint64(dst, uint64(c.time))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c.pos.X))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(c.pos.Y))
	dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(c.vel.X)))
	dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(c.vel.Y)))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(c.neighbors)))
	for _, n := range c.neighbors {
		dst = binary.BigEndian.AppendUint16(dst, uint16(n.ID))
		dst = binary.BigEndian.AppendUint64(dst, uint64(n.LastHeard))
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(n.PosX))
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(n.PosY))
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(n.VelX))
		dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(n.VelY))
	}
	return dst
}

func (c *Controller) restoreState(state []byte) error {
	r := wire.NewReader(state)
	c.time = wire.Tick(r.U64())
	c.pos = geom.V(r.F64(), r.F64())
	c.vel = geom.V(float64(r.F32()), float64(r.F32()))
	n := int(r.U16())
	if n > r.Remaining()/26 { // 26 bytes per encoded neighbor (U16 + U64 + 4×F32)
		return fmt.Errorf("flocking: neighbor count %d exceeds payload", n)
	}
	c.neighbors = slices.Grow(c.neighbors[:0], n)
	prev := -1
	for i := 0; i < n; i++ {
		nbr := Neighbor{
			ID:        wire.RobotID(r.U16()),
			LastHeard: wire.Tick(r.U64()),
			PosX:      r.F32(), PosY: r.F32(),
			VelX: r.F32(), VelY: r.F32(),
		}
		if int(nbr.ID) <= prev {
			return fmt.Errorf("flocking: non-canonical neighbor order in state")
		}
		prev = int(nbr.ID)
		c.neighbors = append(c.neighbors, nbr)
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
