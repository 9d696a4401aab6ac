package control

import (
	"bytes"
	"testing"

	"roborebound/internal/geom"
	"roborebound/internal/wire"
)

func warehouseParams() WarehouseParams {
	return DefaultWarehouseParams(
		[]geom.Vec2{geom.V(0, 0), geom.V(0, 20)},   // pickups
		[]geom.Vec2{geom.V(50, 0), geom.V(50, 20)}, // dropoffs
	)
}

func whReading(t wire.Tick, pos, vel geom.Vec2) wire.SensorReading {
	return wire.SensorReading{Time: t, PosX: pos.X, PosY: pos.Y,
		VelX: float32(vel.X), VelY: float32(vel.Y)}
}

func whState(src wire.RobotID, t wire.Tick, pos geom.Vec2) []byte {
	m := wire.StateMsg{Src: src, Time: t, PosX: float32(pos.X), PosY: float32(pos.Y)}
	return m.Encode()
}

func TestWarehouseStationAssignment(t *testing.T) {
	p := warehouseParams()
	w1 := NewWarehouse(1, p)
	if w1.Target() != geom.V(0, 0) {
		t.Errorf("robot 1 pickup = %v", w1.Target())
	}
	w2 := NewWarehouse(2, p)
	if w2.Target() != geom.V(0, 20) {
		t.Errorf("robot 2 pickup = %v", w2.Target())
	}
	w3 := NewWarehouse(3, p) // wraps around
	if w3.Target() != geom.V(0, 0) {
		t.Errorf("robot 3 pickup = %v", w3.Target())
	}
}

func TestWarehouseDeliveryCycle(t *testing.T) {
	p := warehouseParams()
	w := NewWarehouse(1, p)
	// Dock at pickup → leg flips to dropoff.
	w.OnSensor(whReading(0, geom.V(0.5, 0), geom.Zero2))
	if w.Target() != geom.V(50, 0) {
		t.Fatalf("after pickup, target = %v", w.Target())
	}
	if w.Trips() != 0 {
		t.Error("trip counted before dropoff")
	}
	// Dock at dropoff → trip counted, onto the return lane.
	w.OnSensor(whReading(1, geom.V(49.5, 0.5), geom.Zero2))
	if w.Trips() != 1 {
		t.Errorf("trips = %d, want 1", w.Trips())
	}
	if w.Target() != geom.V(50, 4) {
		t.Errorf("after dropoff, target = %v (return-lane entry)", w.Target())
	}
	// Traverse the return lane back to the pickup.
	w.OnSensor(whReading(2, geom.V(50, 4), geom.Zero2))
	if w.Target() != geom.V(0, 4) {
		t.Errorf("return lane target = %v", w.Target())
	}
	w.OnSensor(whReading(3, geom.V(0.5, 4), geom.Zero2))
	if w.Target() != geom.V(0, 0) {
		t.Errorf("loop did not close onto the pickup: %v", w.Target())
	}
}

func TestWarehouseLanesSeparateFlows(t *testing.T) {
	// Outbound (wp 0→1) runs on y = station lane; return (wp 2→3) on
	// y + LaneOffset. Opposing flows never share a line.
	p := warehouseParams()
	w := NewWarehouse(1, p)
	out := w.Target() // pickup (0,0): outbound lane y=0
	if out.Y != 0 {
		t.Errorf("outbound lane y = %v", out.Y)
	}
	w.OnSensor(whReading(0, geom.V(0.5, 0), geom.Zero2))  // dock pickup
	w.OnSensor(whReading(1, geom.V(49.5, 0), geom.Zero2)) // dock dropoff
	if got := w.Target(); got.Y != p.LaneOffset {
		t.Errorf("return lane y = %v, want %v", got.Y, p.LaneOffset)
	}
}

func TestWarehouseYieldsToLowerID(t *testing.T) {
	p := warehouseParams()
	w := NewWarehouse(2, p) // pickup (0,20)
	w.OnSensor(whReading(0, geom.V(20, 20), geom.Zero2))
	// Lower-ID robot 1 directly ahead (toward the pickup), inside the
	// yield radius.
	w.OnMessage(whState(1, 0, geom.V(16, 20)))
	out := w.OnSensor(whReading(1, geom.V(20, 20), geom.V(-1, 0)))
	if !w.Yielding() {
		t.Fatal("robot 2 should yield to robot 1 ahead")
	}
	// Yielding = braking, not advancing: command opposes velocity.
	if out.Cmd.AccX <= 0 {
		t.Errorf("expected braking (+x against −x velocity), got %v", out.Cmd.AccX)
	}
}

func TestWarehouseDoesNotYieldToHigherID(t *testing.T) {
	p := warehouseParams()
	w := NewWarehouse(2, p)
	w.OnSensor(whReading(0, geom.V(20, 20), geom.Zero2))
	w.OnMessage(whState(9, 0, geom.V(16, 20))) // higher ID ahead
	w.OnSensor(whReading(1, geom.V(20, 20), geom.Zero2))
	if w.Yielding() {
		t.Error("priority inverted: yielded to higher ID")
	}
}

func TestWarehouseIgnoresTrafficBehindAndFar(t *testing.T) {
	p := warehouseParams()
	w := NewWarehouse(2, p) // heading toward (0,20) from (20,20): -x
	w.OnSensor(whReading(0, geom.V(20, 20), geom.Zero2))
	w.OnMessage(whState(1, 0, geom.V(24, 20))) // behind us
	w.OnSensor(whReading(1, geom.V(20, 20), geom.Zero2))
	if w.Yielding() {
		t.Error("yielded to a robot behind")
	}
	w2 := NewWarehouse(2, p)
	w2.OnSensor(whReading(0, geom.V(20, 20), geom.Zero2))
	w2.OnMessage(whState(1, 0, geom.V(2, 20))) // ahead but 18 m away > 15 m radius
	w2.OnSensor(whReading(1, geom.V(20, 20), geom.Zero2))
	if w2.Yielding() {
		t.Error("yielded to distant traffic")
	}
}

func TestWarehouseStaleTrafficExpires(t *testing.T) {
	p := warehouseParams() // StaleAfter = 24 ticks
	w := NewWarehouse(2, p)
	w.OnSensor(whReading(0, geom.V(20, 20), geom.Zero2))
	w.OnMessage(whState(1, 0, geom.V(16, 20)))
	w.OnSensor(whReading(1, geom.V(20, 20), geom.Zero2))
	if !w.Yielding() {
		t.Fatal("fresh blocker ignored")
	}
	// The blocker goes silent (disabled by RoboRebound, say): after
	// StaleAfter the aisle unblocks.
	w.OnSensor(whReading(30, geom.V(20, 20), geom.Zero2))
	if w.Yielding() {
		t.Error("stale blocker still blocks the aisle")
	}
}

func TestWarehouseNoMutualWait(t *testing.T) {
	// Two robots approaching head-on: only the higher ID yields.
	p := warehouseParams()
	a := NewWarehouse(1, p) // heading to (0,0)
	b := NewWarehouse(2, p) // heading to (0,20)
	a.OnSensor(whReading(0, geom.V(10, 10), geom.Zero2))
	b.OnSensor(whReading(0, geom.V(8, 12), geom.Zero2))
	a.OnMessage(whState(2, 0, geom.V(8, 12)))
	b.OnMessage(whState(1, 0, geom.V(10, 10)))
	a.OnSensor(whReading(1, geom.V(10, 10), geom.Zero2))
	b.OnSensor(whReading(1, geom.V(8, 12), geom.Zero2))
	if a.Yielding() && b.Yielding() {
		t.Error("mutual wait: deadlock")
	}
	if a.Yielding() {
		t.Error("lower ID yielded")
	}
}

func TestWarehouseStateRoundTrip(t *testing.T) {
	p := warehouseParams()
	w := NewWarehouse(1, p)
	w.OnMessage(whState(2, 0, geom.V(3, 4)))
	w.OnSensor(whReading(0, geom.V(0.5, 0), geom.Zero2)) // dock: flips leg
	w.OnMessage(whState(3, 0, geom.V(7, 8)))
	state := w.AppendState(nil)
	restored, err := WarehouseFactory{Params: p}.Load(nil, 1, state)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored.AppendState(nil), state) {
		t.Fatal("state round trip not bit-exact")
	}
	in := whReading(1, geom.V(5, 0), geom.V(1, 0))
	a, b := w.OnSensor(in), restored.OnSensor(in)
	if a.Cmd != b.Cmd {
		t.Error("restored controller diverges")
	}
}

func TestWarehouseRestoreRejectsBadState(t *testing.T) {
	f := WarehouseFactory{Params: warehouseParams()}
	if _, err := f.Load(nil, 1, []byte{9}); err == nil {
		t.Error("truncated state accepted")
	}
	w := NewWarehouse(1, warehouseParams())
	if _, err := f.Load(nil, 1, append(w.AppendState(nil), 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestWarehouseEmptyStations(t *testing.T) {
	w := NewWarehouse(1, WarehouseParams{Steering: Steering{ArriveRadius: 1, KP: 0.1, KD: 0.5, AccelCap: 5}})
	out := w.OnSensor(whReading(0, geom.V(3, 3), geom.Zero2))
	if !out.HasCmd {
		t.Fatal("no command")
	}
	// Target defaults to origin; must not panic.
}
