package control

import (
	"testing"

	"roborebound/internal/geom"
	"roborebound/internal/wire"
)

// Every OnSensor of every controller commanded the actuators when the
// command was a pointer (it was never nil), so HasCmd must be set on
// every step — including the degenerate configurations and the modes
// that command a stop — and the command must carry the reading's time:
// replay compares it against the logged entry byte for byte.
func TestEveryControlStepCarriesACommand(t *testing.T) {
	yielding := NewWarehouse(2, warehouseParams())
	yielding.OnSensor(whReading(0, geom.V(20, 20), geom.Zero2))
	yielding.OnMessage(whState(1, 0, geom.V(16, 20)))

	idle := NewExplore(1, exploreParams())
	sweepStrip(idle, 0)
	if _, isIdle := idle.Covering(); !isIdle {
		t.Fatal("explore fixture never went idle")
	}

	for _, c := range []struct {
		name string
		ctrl Controller
	}{
		{"patrol", NewPatrol(1, patrolParams())},
		{"patrol, empty route", NewPatrol(1, PatrolParams{AccelCap: 5})},
		{"warehouse", NewWarehouse(1, warehouseParams())},
		{"warehouse, yielding", yielding},
		{"warehouse, no stations", NewWarehouse(1, WarehouseParams{ArriveRadius: 1, KP: 0.1, KD: 0.5, AccelCap: 5})},
		{"explore, sweeping", NewExplore(1, exploreParams())},
		{"explore, idle", idle},
	} {
		sawBroadcast, sawQuiet := false, false
		for tick := wire.Tick(1000); tick < 1012; tick++ {
			out := c.ctrl.OnSensor(wire.SensorReading{Time: tick, PosX: 20, PosY: 20, VelX: -1})
			if !out.HasCmd {
				t.Errorf("%s: step at t=%d carries no command", c.name, tick)
			}
			if out.Cmd.Time != tick {
				t.Errorf("%s: command stamped t=%d on the reading of t=%d", c.name, out.Cmd.Time, tick)
			}
			if out.Broadcast != nil {
				sawBroadcast = true
			} else {
				sawQuiet = true
			}
		}
		// Degenerate parameter sets have no broadcast period; every
		// configured one must have been seen on both kinds of tick.
		if !sawQuiet || (!sawBroadcast && c.name != "patrol, empty route" && c.name != "warehouse, no stations") {
			t.Errorf("%s: 12 ticks covered broadcast=%v quiet=%v", c.name, sawBroadcast, sawQuiet)
		}
	}
	if (Outputs{}).HasCmd {
		t.Error("the zero Outputs claims a command")
	}
}

// A control step that does not broadcast allocates nothing: the command
// travels by value. (A broadcast step allocates its payload, which the
// radio owns from then on.)
func TestQuietControlStepDoesNotAllocate(t *testing.T) {
	wh := NewWarehouse(2, warehouseParams())
	wh.OnMessage(whState(1, 0, geom.V(16, 20)))
	ex := NewExplore(1, exploreParams())
	for _, id := range []wire.RobotID{2, 3, 4} {
		ex.OnMessage(exploreState(id, 0))
	}
	for _, c := range []struct {
		name   string
		ctrl   Controller
		id     wire.Tick
		period wire.Tick
	}{
		{"patrol", NewPatrol(1, patrolParams()), 1, patrolParams().BroadcastPeriod},
		{"warehouse", wh, 2, warehouseParams().BroadcastPeriod},
		{"explore", ex, 1, exploreParams().BroadcastPeriod},
	} {
		tick := wire.Tick(0)
		n := testing.AllocsPerRun(100, func() {
			tick++
			if tick%c.period == c.id%c.period {
				tick++ // the robot's own broadcast phase
			}
			if out := c.ctrl.OnSensor(wire.SensorReading{Time: tick, PosX: 20, PosY: 20, VelX: -1}); out.Broadcast != nil {
				t.Fatalf("%s: t=%d is a broadcast tick", c.name, tick)
			}
		})
		if n != 0 {
			t.Errorf("%s: a quiet control step allocates %v times, want 0", c.name, n)
		}
	}
}
