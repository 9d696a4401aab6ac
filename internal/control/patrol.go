package control

import (
	"encoding/binary"
	"fmt"
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
	Steering
	// RingGapM inflates each robot's route outward from the route
	// centroid by id × RingGapM meters, giving every robot its own
	// concentric ring (defense in depth, and no shared track for a
	// disabled robot to block). Zero keeps a single shared route.
	RingGapM float64
}

// DefaultPatrolParams returns a usable patrol configuration for the
// given route.
func DefaultPatrolParams(waypoints []geom.Vec2) PatrolParams {
	return PatrolParams{Waypoints: waypoints, Steering: waypointSteering()}
}

// waypointSteering is the steering patrol and exploration share.
func waypointSteering() Steering {
	return Steering{ArriveRadius: 2, KP: 0.08, KD: 0.6, AccelCap: 5,
		BroadcastPeriod: 1.5 * wire.TicksPerSecond}
}

// Patrol is a deterministic PD waypoint-following controller. Each
// robot starts at the waypoint index equal to its ID modulo the route
// length, so a team spreads out along the perimeter.
type Patrol struct {
	Self
	params PatrolParams
	wp     uint16      // active waypoint index
	route  []geom.Vec2 // storage of params.Waypoints when RingGapM inflates them
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
	*p = Patrol{Self: Self{ID: id}, params: params, route: p.route[:0]}
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
	p.Sense(r)
	var u geom.Vec2
	if n := len(p.params.Waypoints); n > 0 {
		target := p.params.Waypoints[p.wp]
		if p.Pos.Dist(target) <= p.params.ArriveRadius {
			p.wp = uint16((int(p.wp) + 1) % n)
			target = p.params.Waypoints[p.wp]
		}
		u = p.Steer(target, p.params.Steering)
	}
	return p.Act(u, p.params.BroadcastPeriod)
}

// OnMessage ignores peer traffic: patrol robots coordinate only
// through their pre-assigned route offsets.
func (p *Patrol) OnMessage([]byte) {}

// AppendState appends the canonical patrol state.
func (p *Patrol) AppendState(dst []byte) []byte {
	dst = slices.Grow(dst, SelfSize+2)
	return binary.BigEndian.AppendUint16(p.AppendSelf(dst), p.wp)
}

func (p *Patrol) restoreState(state []byte) error {
	r := wire.NewReader(state)
	p.ReadSelf(r)
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
