package control

import (
	"bytes"
	"testing"

	"roborebound/internal/geom"
	"roborebound/internal/wire"
)

func exploreParams() ExploreParams {
	return DefaultExploreParams(4, 0, 0, 80, 40, 4)
}

func exploreReading(t wire.Tick, pos, vel geom.Vec2) wire.SensorReading {
	return wire.SensorReading{Time: t, PosX: pos.X, PosY: pos.Y,
		VelX: float32(vel.X), VelY: float32(vel.Y)}
}

func exploreState(src wire.RobotID, t wire.Tick) []byte {
	m := wire.StateMsg{Src: src, Time: t}
	return m.Encode()
}

func TestExploreStripAssignment(t *testing.T) {
	p := exploreParams() // 4 strips
	for id := wire.RobotID(1); id <= 8; id++ {
		e := NewExplore(id, p)
		strip, idle := e.Covering()
		if idle {
			t.Errorf("robot %d idle at start", id)
		}
		if want := (int(id) - 1) % 4; strip != want {
			t.Errorf("robot %d on strip %d, want %d", id, strip, want)
		}
	}
}

func TestExploreWaypointsInsideStrip(t *testing.T) {
	p := exploreParams()  // area 80×40, 4 strips of width 20, 4 lanes
	e := NewExplore(1, p) // strip 0: x ∈ [0, 20]
	for i := uint16(0); i < e.waypointsPerStrip(); i++ {
		wp := e.waypoint(0, i)
		if wp.X < 0 || wp.X > 20 || wp.Y < 0 || wp.Y > 40 {
			t.Errorf("waypoint %d = %v escapes strip 0", i, wp)
		}
	}
	// Strip 3: x ∈ [60, 80].
	for i := uint16(0); i < e.waypointsPerStrip(); i++ {
		wp := e.waypoint(3, i)
		if wp.X < 60 || wp.X > 80 {
			t.Errorf("waypoint %d = %v escapes strip 3", i, wp)
		}
	}
}

func TestExploreSteersTowardWaypoint(t *testing.T) {
	e := NewExplore(1, exploreParams())
	out := e.OnSensor(exploreReading(0, geom.V(0, 0), geom.Zero2))
	if !out.HasCmd {
		t.Fatal("no actuator command")
	}
	wp := e.waypoint(0, 0)
	u := geom.V(out.Cmd.AccX, out.Cmd.AccY)
	if u.Unit().Dot(wp.Unit()) < 0.9 {
		t.Errorf("steering %v not toward first waypoint %v", u, wp)
	}
}

// Drive the controller through its whole strip by teleporting onto
// each waypoint.
func sweepStrip(e *Explore, t0 wire.Tick) wire.Tick {
	tk := t0
	for i := 0; i < 200; i++ {
		strip, idle := e.Covering()
		if idle {
			break
		}
		wp := e.waypoint(uint16(strip), e.lane)
		e.OnSensor(exploreReading(tk, wp, geom.Zero2))
		tk++
	}
	return tk
}

func TestExploreCompletesAllStripsWhenAlone(t *testing.T) {
	// sweepStrip teleports waypoint-to-waypoint until idle: a lone
	// robot (hearing no peers) adopts every orphaned strip in turn and
	// finishes the whole survey.
	e := NewExplore(1, exploreParams())
	sweepStrip(e, 0)
	if _, idle := e.Covering(); !idle {
		t.Fatal("lone robot never finished the survey")
	}
}

func TestExploreLoneRobotAdoptsEverything(t *testing.T) {
	// With no peers ever heard, every other strip is orphaned: a lone
	// robot sweeps all of them.
	e := NewExplore(1, exploreParams())
	tk := wire.Tick(0)
	for round := 0; round < 8; round++ {
		tk = sweepStrip(e, tk)
		if _, idle := e.Covering(); idle {
			break
		}
	}
	if e.CoveredMask() != 0b1111 {
		t.Errorf("lone robot covered %04b, want 1111", e.CoveredMask())
	}
	if _, idle := e.Covering(); !idle {
		t.Error("not idle after covering everything")
	}
}

func TestExploreRespectsLivePeers(t *testing.T) {
	p := exploreParams()
	e := NewExplore(1, p)
	// Hear all three peers recently, then finish own strip: no
	// takeover — idle with only own strip covered.
	tk := wire.Tick(0)
	deliver := func() {
		for _, id := range []wire.RobotID{2, 3, 4} {
			e.OnMessage(exploreState(id, tk))
		}
	}
	for i := 0; i < 200; i++ {
		if _, idle := e.Covering(); idle {
			break
		}
		deliver()
		wp := e.waypoint(e.covering, e.lane)
		e.OnSensor(exploreReading(tk, wp, geom.Zero2))
		tk++
	}
	if _, idle := e.Covering(); !idle {
		t.Fatal("did not finish own strip")
	}
	if e.CoveredMask() != 0b0001 {
		t.Errorf("covered %04b, want only own strip", e.CoveredMask())
	}

	// Peer 2 (strip 1) goes silent: after PeerTimeout the idle robot
	// adopts strip 1 — but peers 3, 4 keep chattering.
	deadline := tk + p.PeerTimeout + 2
	for ; tk < deadline; tk++ {
		for _, id := range []wire.RobotID{3, 4} {
			e.OnMessage(exploreState(id, tk))
		}
		e.OnSensor(exploreReading(tk, geom.V(10, 20), geom.Zero2))
	}
	strip, idle := e.Covering()
	if idle || strip != 1 {
		t.Errorf("takeover failed: strip=%d idle=%v", strip, idle)
	}
}

func TestExploreStateRoundTrip(t *testing.T) {
	p := exploreParams()
	e := NewExplore(2, p)
	e.OnMessage(exploreState(3, 0))
	e.OnSensor(exploreReading(5, geom.V(25.5, 4.25), geom.V(0.5, -0.25)))
	e.OnMessage(exploreState(1, 5))
	state := e.AppendState(nil)
	restored, err := ExploreFactory{Params: p}.Load(nil, 2, state)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored.AppendState(nil), state) {
		t.Fatal("state round trip not bit-exact")
	}
	in := exploreReading(6, geom.V(26, 4), geom.V(0.25, 0))
	a, b := e.OnSensor(in), restored.OnSensor(in)
	if a.Cmd != b.Cmd || !bytes.Equal(a.Broadcast, b.Broadcast) {
		t.Error("restored controller diverges")
	}
}

func TestExploreRestoreRejectsBadState(t *testing.T) {
	p := exploreParams()
	f := ExploreFactory{Params: p}
	if _, err := f.Load(nil, 1, []byte{1, 2}); err == nil {
		t.Error("truncated state accepted")
	}
	e := NewExplore(1, p)
	state := e.AppendState(nil)
	// Corrupt the covering strip beyond Strips.
	state[8+16+8] = 0xFF
	state[8+16+8+1] = 0xFF
	if _, err := f.Load(nil, 1, state); err == nil {
		t.Error("out-of-range strip accepted")
	}
}

func TestExploreBroadcastCadence(t *testing.T) {
	p := exploreParams() // period 6
	e := NewExplore(2, p)
	out := e.OnSensor(exploreReading(2, geom.Zero2, geom.Zero2))
	if out.Broadcast == nil {
		t.Error("no broadcast on phase tick")
	}
	out = e.OnSensor(exploreReading(3, geom.Zero2, geom.Zero2))
	if out.Broadcast != nil {
		t.Error("broadcast off phase")
	}
}

func TestExploreIdleBrakes(t *testing.T) {
	p := exploreParams()
	p.Strips = 1 // only own strip; after it, with a live... no peers → lone robot covers all=1 strip
	e := NewExplore(1, p)
	tk := sweepStrip(e, 0)
	if _, idle := e.Covering(); !idle {
		t.Fatal("not idle")
	}
	out := e.OnSensor(exploreReading(tk, geom.V(5, 5), geom.V(2, 0)))
	if out.Cmd.AccX >= 0 {
		t.Error("idle robot should brake against its velocity")
	}
}
