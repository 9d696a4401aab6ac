package robot

import (
	"bytes"
	"testing"

	"roborebound/internal/core"
	"roborebound/internal/flocking"
	"roborebound/internal/geom"
	"roborebound/internal/obs"
	"roborebound/internal/radio"
	"roborebound/internal/sim"
	"roborebound/internal/trusted"
	"roborebound/internal/wire"
)

var master = []byte("robot-test-master")

func sealedKey() trusted.SealedMissionKey {
	var mission [trusted.MissionKeySize]byte
	copy(mission[:], "robot-mission")
	return trusted.SealMissionKey(master, mission, 3, 1)
}

func testRig(t *testing.T, protected bool) (*sim.Engine, *Robot, *sim.World, *radio.Medium) {
	t.Helper()
	world := sim.NewWorld(sim.DefaultWorldConfig())
	medium := radio.NewMedium(radio.DefaultParams(), world.Position, 1)
	engine := sim.NewEngine(world, medium)
	factory := flocking.Factory{Params: flocking.DefaultParams(4, 4, geom.V(100, 100))}
	body := world.AddBody(1, geom.V(0, 0))
	r := New(Config{
		ID:        1,
		Protected: protected,
		Core:      core.DefaultConfig(4),
		Factory:   factory,
		Master:    master,
		Sealed:    sealedKey(),
	}, body, medium, engine.Now)
	engine.AddActor(r)
	return engine, r, world, medium
}

func TestProtectedRobotWiring(t *testing.T) {
	engine, r, _, _ := testRig(t, true)
	if r.ANode() == nil || r.SNode() == nil || r.Engine() == nil {
		t.Fatal("protected robot missing trusted nodes or engine")
	}
	if !r.ANode().HasKey() {
		t.Fatal("mission key not installed")
	}
	engine.Run(8)
	// The control loop must be driving the actuators through the
	// a-node: acceleration toward the goal (100,100).
	if r.Body().Acc.X <= 0 || r.Body().Acc.Y <= 0 {
		t.Errorf("no goal-directed acceleration: %+v", r.Body().Acc)
	}
	// And the log must be accumulating entries.
	if r.Engine().Log().EntryCount() == 0 {
		t.Error("no log entries after 8 ticks")
	}
}

func TestUnprotectedRobotWiring(t *testing.T) {
	engine, r, _, medium := testRig(t, false)
	if r.ANode() != nil || r.Engine() != nil {
		t.Fatal("unprotected robot should have no trusted nodes")
	}
	engine.Run(8)
	if r.Body().Acc.X <= 0 {
		t.Errorf("no goal-directed acceleration: %+v", r.Body().Acc)
	}
	// Broadcasts go straight to the radio.
	if medium.Counters(1).TxApp == 0 {
		t.Error("no state broadcasts")
	}
}

func TestDeliverRoutesThroughANode(t *testing.T) {
	_, r, _, _ := testRig(t, true)
	before := r.Engine().Log().EntryCount()
	state := wire.StateMsg{Src: 2, Time: 1, PosX: 3}
	r.Deliver(wire.Frame{Src: 2, Dst: wire.Broadcast, Payload: state.Encode()})
	if r.Engine().Log().EntryCount() != before+1 {
		t.Error("delivered frame not logged")
	}
	fc := r.Controller().(*flocking.Controller)
	if len(fc.Neighbors()) != 1 {
		t.Error("delivered frame not fed to controller")
	}
	// Audit frames are not logged.
	r.Deliver(wire.Frame{Src: 2, Dst: 1, Flags: wire.FlagAudit, Payload: []byte{0xFF}})
	if r.Engine().Log().EntryCount() != before+1 {
		t.Error("audit frame logged")
	}
}

func TestUnprotectedDeliverIgnoresAudit(t *testing.T) {
	_, r, _, _ := testRig(t, false)
	state := wire.StateMsg{Src: 2, Time: 1}
	// Audit-flagged frames never reach the controller, even with a
	// well-formed application payload inside.
	r.Deliver(wire.Frame{Src: 2, Dst: 1, Flags: wire.FlagAudit, Payload: state.Encode()})
	fc := r.Controller().(*flocking.Controller)
	if len(fc.Neighbors()) != 0 {
		t.Error("audit frame reached the controller")
	}
	r.Deliver(wire.Frame{Src: 2, Dst: wire.Broadcast, Payload: state.Encode()})
	if len(fc.Neighbors()) != 1 {
		t.Error("application frame did not reach the controller")
	}
}

func TestSafeModeDisablesBody(t *testing.T) {
	engine, r, _, _ := testRig(t, true)
	// Alone, the robot can never collect tokens; after the grace
	// window (TVal = 40 ticks) it must disable itself.
	engine.Run(60)
	if !r.InSafeMode() {
		t.Fatal("isolated robot never entered safe mode")
	}
	if !r.Body().Disabled {
		t.Error("safe mode did not disable the body")
	}
	if got := r.SafeModeAt(); got == 0 {
		t.Error("safe mode time not recorded")
	}
	// Actuation and radio are dead.
	if r.RawActuate(wire.ActuatorCmd{AccX: 1}) {
		t.Error("actuation alive in safe mode")
	}
	if r.RawSend(wire.Frame{Payload: []byte("x")}) {
		t.Error("radio alive in safe mode")
	}
}

func TestCrashedRobotStopsTicking(t *testing.T) {
	engine, r, _, _ := testRig(t, true)
	engine.Run(4)
	entries := r.Engine().Log().EntryCount()
	r.Body().Crashed = true
	engine.Run(4)
	if r.Engine().Log().EntryCount() != entries {
		t.Error("crashed robot kept logging")
	}
}

func TestRawSendUnprotectedGoesToMedium(t *testing.T) {
	_, r, _, medium := testRig(t, false)
	if !r.RawSend(wire.Frame{Src: 1, Dst: wire.Broadcast, Payload: []byte("x")}) {
		t.Fatal("raw send failed")
	}
	if medium.Counters(1).TxFrames != 1 {
		t.Error("frame did not reach the medium")
	}
	if !r.RawActuate(wire.ActuatorCmd{AccX: 2}) || r.Body().Acc.X != 2 {
		t.Error("raw actuate failed")
	}
}

// auditingSwarm runs four protected robots in earshot of each other
// for ticks, each handing its events to trace (nil = untraced), so they
// audit each other and earn tokens.
func auditingSwarm(trace obs.Tracer, ticks wire.Tick) []*Robot {
	world := sim.NewWorld(sim.DefaultWorldConfig())
	medium := radio.NewMedium(radio.DefaultParams(), world.Position, 1)
	engine := sim.NewEngine(world, medium)
	factory := flocking.Factory{Params: flocking.DefaultParams(4, 4, geom.V(100, 100))}
	cc := core.DefaultConfig(4)
	cc.Fmax = 2 // three peers can cover a round
	cc.AutoServeLimit()
	var robots []*Robot
	for i := 1; i <= 4; i++ {
		id := wire.RobotID(i)
		r := New(Config{
			ID:        id,
			Protected: true,
			Core:      cc,
			Factory:   factory,
			Master:    master,
			Sealed:    sealedKey(),
			Trace:     trace,
		}, world.AddBody(id, geom.V(5*float64(i), 0)), medium, engine.Now)
		engine.AddActor(r)
		robots = append(robots, r)
	}
	engine.Run(ticks)
	return robots
}

// TestSnapshotIndependentOfTracing: a robot's encoded state is the same
// whether or not a tracer watched it. The token-count poll cursor is
// snapshot state, so it must advance on an untraced robot too.
func TestSnapshotIndependentOfTracing(t *testing.T) {
	col := obs.NewCollector()
	traced := auditingSwarm(col, 120)
	untraced := auditingSwarm(nil, 120)
	if col.Len() == 0 {
		t.Fatal("the traced swarm emitted no events")
	}
	for i, r := range traced {
		if r.ANode().ValidTokenCount() == 0 {
			t.Fatalf("robot %d holds no tokens: the swarm never audited, so the test reads nothing", r.ActorID())
		}
		a := r.EncodeState()
		b := untraced[i].EncodeState()
		if !bytes.Equal(a, b) {
			t.Errorf("robot %d encodes %d B traced and %d B untraced, and they differ", r.ActorID(), len(a), len(b))
		}
	}
}
