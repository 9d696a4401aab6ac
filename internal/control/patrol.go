package control

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"roborebound/internal/geom"
	"roborebound/internal/wire"
)

// PatrolParams configures the waypoint-patrol controller: a simple
// perimeter-patrol protocol (§2.3's perimeter-defense application
// class) that exists to demonstrate RoboRebound is protocol-agnostic —
// any deterministic controller can be dropped under the same audit
// machinery.
type PatrolParams struct {
	// Waypoints is the closed patrol route, visited in order.
	Waypoints []geom.Vec2
	// ArriveRadius is how close counts as "reached" (meters).
	ArriveRadius float64
	// KP and KD are the PD gains steering toward the active waypoint.
	KP, KD float64
	// AccelCap is the per-axis acceleration saturation.
	AccelCap float64
	// BroadcastPeriod is the state-broadcast interval in ticks.
	BroadcastPeriod wire.Tick
	// RingGapM inflates each robot's route outward from the route
	// centroid by id × RingGapM meters, giving every robot its own
	// concentric ring (defense in depth, and no shared track for a
	// disabled robot to block). Zero keeps a single shared route.
	RingGapM float64
}

// DefaultPatrolParams returns a usable patrol configuration for the
// given route.
func DefaultPatrolParams(ticksPerSecond float64, waypoints []geom.Vec2) PatrolParams {
	return PatrolParams{
		Waypoints:       waypoints,
		ArriveRadius:    2.0,
		KP:              0.08,
		KD:              0.6,
		AccelCap:        5.0,
		BroadcastPeriod: wire.Tick(1.5 * ticksPerSecond),
	}
}

// Patrol is a deterministic PD waypoint-following controller. Each
// robot starts at the waypoint index equal to its ID modulo the route
// length, so a team spreads out along the perimeter.
type Patrol struct {
	id     wire.RobotID
	params PatrolParams

	time wire.Tick
	pos  geom.Vec2
	vel  geom.Vec2
	wp   uint16 // active waypoint index

	route []geom.Vec2             // storage of params.Waypoints when RingGapM inflates them
	bcast [wire.StateMsgSize]byte // Outputs.Broadcast, lent until the next call
}

var _ Controller = (*Patrol)(nil)

// NewPatrol returns a patrol controller in its initial state. The
// effective route is a pure function of (id, params), so an auditor's
// replica reconstructs it exactly.
func NewPatrol(id wire.RobotID, p PatrolParams) *Patrol {
	c := new(Patrol)
	c.reset(id, p)
	return c
}

// reset puts p in robot id's initial state, keeping only the storage of
// its inflated route.
func (p *Patrol) reset(id wire.RobotID, params PatrolParams) {
	*p = Patrol{id: id, params: params, route: p.route[:0]}
	if params.RingGapM != 0 && len(params.Waypoints) > 0 {
		var centroid geom.Vec2
		for _, w := range params.Waypoints {
			centroid = centroid.Add(w)
		}
		centroid = centroid.Scale(1 / float64(len(params.Waypoints)))
		p.route = slices.Grow(p.route, len(params.Waypoints))
		for _, w := range params.Waypoints {
			d := w.Sub(centroid)
			p.route = append(p.route, w.Add(d.Unit().Scale(float64(id)*params.RingGapM)))
		}
		p.params.Waypoints = p.route
	}
	if n := len(p.params.Waypoints); n > 0 {
		p.wp = uint16(int(id) % n)
	}
}

// Waypoint returns the active waypoint index (tests/metrics only).
func (p *Patrol) Waypoint() int { return int(p.wp) }

// OnSensor advances the PD loop toward the active waypoint.
func (p *Patrol) OnSensor(r wire.SensorReading) Outputs {
	p.time = r.Time
	p.pos = geom.V(r.PosX, r.PosY)
	p.vel = geom.V(float64(r.VelX), float64(r.VelY))

	var u geom.Vec2
	if n := len(p.params.Waypoints); n > 0 {
		target := p.params.Waypoints[p.wp]
		if p.pos.Dist(target) <= p.params.ArriveRadius {
			p.wp = uint16((int(p.wp) + 1) % n)
			target = p.params.Waypoints[p.wp]
		}
		u = target.Sub(p.pos).Scale(p.params.KP).
			Add(p.vel.Neg().Scale(p.params.KD)).
			ClampAxes(p.params.AccelCap)
	}
	out := Outputs{Cmd: wire.ActuatorCmd{Time: r.Time, AccX: u.X, AccY: u.Y}, HasCmd: true}
	if per := p.params.BroadcastPeriod; per > 0 && r.Time%per == wire.Tick(p.id)%per {
		m := wire.StateMsg{Src: p.id, Time: r.Time,
			PosX: float32(p.pos.X), PosY: float32(p.pos.Y),
			VelX: float32(p.vel.X), VelY: float32(p.vel.Y)}
		out.Broadcast = m.AppendEncode(p.bcast[:0])
	}
	return out
}

// OnMessage ignores peer traffic: patrol robots coordinate only
// through their pre-assigned route offsets.
func (p *Patrol) OnMessage([]byte) {}

// AppendState appends the canonical patrol state.
func (p *Patrol) AppendState(dst []byte) []byte {
	dst = slices.Grow(dst, 8+16+8+2)
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.time))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.pos.X))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(p.pos.Y))
	dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(p.vel.X)))
	dst = binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(p.vel.Y)))
	return binary.BigEndian.AppendUint16(dst, p.wp)
}

func (p *Patrol) restoreState(state []byte) error {
	r := wire.NewReader(state)
	p.time = wire.Tick(r.U64())
	p.pos = geom.V(r.F64(), r.F64())
	p.vel = geom.V(float64(r.F32()), float64(r.F32()))
	p.wp = r.U16()
	if err := r.Done(); err != nil {
		return fmt.Errorf("patrol state: %w", err)
	}
	if n := len(p.params.Waypoints); n > 0 && int(p.wp) >= n {
		return fmt.Errorf("patrol state: waypoint %d out of range", p.wp)
	}
	return nil
}

// PatrolFactory builds patrol controllers for one mission route.
type PatrolFactory struct {
	Params PatrolParams
}

var _ Factory = PatrolFactory{}

// New implements Factory.
func (f PatrolFactory) New(id wire.RobotID) Controller {
	return NewPatrol(id, f.Params)
}

// Load implements Factory.
func (f PatrolFactory) Load(c Controller, id wire.RobotID, state []byte) (Controller, error) {
	p, ok := c.(*Patrol)
	if !ok {
		p = new(Patrol)
	}
	p.reset(id, f.Params)
	if state == nil {
		return p, nil
	}
	if err := p.restoreState(state); err != nil {
		return nil, err
	}
	return p, nil
}
