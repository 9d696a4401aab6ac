package control

import (
	"bytes"
	"testing"

	"roborebound/internal/geom"
	"roborebound/internal/wire"
)

func patrolParams() PatrolParams {
	return DefaultPatrolParams(4, []geom.Vec2{
		geom.V(0, 0), geom.V(50, 0), geom.V(50, 50), geom.V(0, 50),
	})
}

func patrolReading(t wire.Tick, pos, vel geom.Vec2) wire.SensorReading {
	return wire.SensorReading{Time: t, PosX: pos.X, PosY: pos.Y,
		VelX: float32(vel.X), VelY: float32(vel.Y)}
}

func TestPatrolInitialWaypointSpread(t *testing.T) {
	p := patrolParams()
	for id := wire.RobotID(0); id < 8; id++ {
		c := NewPatrol(id, p)
		if c.Waypoint() != int(id)%4 {
			t.Errorf("robot %d starts at waypoint %d, want %d", id, c.Waypoint(), int(id)%4)
		}
	}
}

func TestPatrolSteersTowardWaypoint(t *testing.T) {
	p := patrolParams()
	c := NewPatrol(1, p) // waypoint 1 = (50, 0)
	out := c.OnSensor(patrolReading(0, geom.V(0, 0), geom.Zero2))
	if !out.HasCmd || out.Cmd.AccX <= 0 {
		t.Errorf("expected +x steering toward (50,0): %+v", out.Cmd)
	}
}

func TestPatrolAdvancesWaypoint(t *testing.T) {
	p := patrolParams()
	c := NewPatrol(1, p)
	// Arrive within radius of waypoint 1 → advance to waypoint 2.
	c.OnSensor(patrolReading(0, geom.V(49.5, 0), geom.Zero2))
	if c.Waypoint() != 2 {
		t.Errorf("waypoint = %d, want 2", c.Waypoint())
	}
	// Route wraps around.
	c2 := NewPatrol(3, p) // waypoint 3
	c2.OnSensor(patrolReading(0, geom.V(0, 50), geom.Zero2))
	if c2.Waypoint() != 0 {
		t.Errorf("waypoint = %d, want wraparound to 0", c2.Waypoint())
	}
}

func TestPatrolDamping(t *testing.T) {
	p := patrolParams()
	c := NewPatrol(1, p)
	// Moving fast toward the waypoint: the D term should brake.
	out := c.OnSensor(patrolReading(0, geom.V(45, 0), geom.V(20, 0)))
	if out.Cmd.AccX >= 0 {
		t.Errorf("expected braking, acc.X = %v", out.Cmd.AccX)
	}
}

func TestPatrolEmptyRoute(t *testing.T) {
	c := NewPatrol(1, PatrolParams{AccelCap: 5})
	out := c.OnSensor(patrolReading(0, geom.V(3, 4), geom.V(1, 1)))
	if !out.HasCmd || out.Cmd.AccX != 0 || out.Cmd.AccY != 0 {
		t.Errorf("empty route should command zero accel: %+v", out.Cmd)
	}
}

func TestPatrolBroadcasts(t *testing.T) {
	p := patrolParams() // period 6
	c := NewPatrol(2, p)
	out := c.OnSensor(patrolReading(2, geom.V(1, 2), geom.Zero2))
	if out.Broadcast == nil {
		t.Fatal("no broadcast on phase tick")
	}
	m, err := wire.DecodeStateMsg(out.Broadcast)
	if err != nil || m.Src != 2 {
		t.Errorf("broadcast decode: %v %+v", err, m)
	}
	out = c.OnSensor(patrolReading(3, geom.V(1, 2), geom.Zero2))
	if out.Broadcast != nil {
		t.Error("broadcast off phase")
	}
}

func TestPatrolStateRoundTrip(t *testing.T) {
	p := patrolParams()
	c := NewPatrol(1, p)
	c.OnSensor(patrolReading(7, geom.V(12.5, -3.25), geom.V(0.5, 0.125)))
	state := c.AppendState(nil)
	restored, err := PatrolFactory{Params: p}.Load(nil, 1, state)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored.AppendState(nil), state) {
		t.Error("state round trip not bit-exact")
	}
	in := patrolReading(8, geom.V(13, -3), geom.V(0.5, 0))
	a, b := c.OnSensor(in), restored.OnSensor(in)
	if a.Cmd != b.Cmd {
		t.Error("restored patrol diverges")
	}
}

func TestPatrolRestoreRejectsBadState(t *testing.T) {
	p := patrolParams()
	f := PatrolFactory{Params: p}
	if _, err := f.Load(nil, 1, []byte{1, 2, 3}); err == nil {
		t.Error("truncated state accepted")
	}
	c := NewPatrol(1, p)
	state := c.AppendState(nil)
	// Corrupt the waypoint index beyond the route length.
	state[len(state)-2] = 0xFF
	state[len(state)-1] = 0xFF
	if _, err := f.Load(nil, 1, state); err == nil {
		t.Error("out-of-range waypoint accepted")
	}
}
