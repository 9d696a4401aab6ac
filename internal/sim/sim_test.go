package sim

import (
	"math"
	"testing"

	"roborebound/internal/geom"
	"roborebound/internal/radio"
	"roborebound/internal/wire"
)

func TestDoubleIntegrator(t *testing.T) {
	cfg := DefaultWorldConfig() // dt = 0.25
	cfg.CrashRadius = 0
	w := NewWorld(cfg)
	b := w.AddBody(1, geom.V(0, 0))
	b.Acc = geom.V(1, 0)
	w.Step(0)
	// Semi-implicit Euler: v = 0.25, x = 0.0625.
	if math.Abs(b.Vel.X-0.25) > 1e-12 || math.Abs(b.Pos.X-0.0625) > 1e-12 {
		t.Errorf("after one tick: pos=%v vel=%v", b.Pos, b.Vel)
	}
}

func TestAccelCapEnforcedByWorld(t *testing.T) {
	cfg := DefaultWorldConfig()
	w := NewWorld(cfg)
	b := w.AddBody(1, geom.V(0, 0))
	b.Acc = geom.V(100, -100) // compromised controller commands 100 m/s²
	w.Step(0)
	want := cfg.AccelCap / cfg.TicksPerSecond
	if math.Abs(b.Vel.X-want) > 1e-12 || math.Abs(b.Vel.Y+want) > 1e-12 {
		t.Errorf("physical accel cap not enforced: vel=%v", b.Vel)
	}
}

func TestNonFiniteCommandRejected(t *testing.T) {
	w := NewWorld(DefaultWorldConfig())
	b := w.AddBody(1, geom.V(0, 0))
	b.Acc = geom.V(math.NaN(), math.Inf(1))
	w.Step(0)
	if !b.Pos.IsFinite() || !b.Vel.IsFinite() {
		t.Error("NaN command corrupted physics state")
	}
}

func TestMaxSpeed(t *testing.T) {
	cfg := DefaultWorldConfig()
	cfg.MaxSpeed = 8
	w := NewWorld(cfg)
	b := w.AddBody(1, geom.V(0, 0))
	b.Acc = geom.V(5, 0)
	for i := 0; i < 100; i++ {
		w.Step(wire.Tick(i))
	}
	if b.Vel.Norm() > 8+1e-9 {
		t.Errorf("speed %v exceeds cap", b.Vel.Norm())
	}
}

func TestDisabledBodyBrakes(t *testing.T) {
	cfg := DefaultWorldConfig() // brake 2.5 m/s², dt 0.25
	w := NewWorld(cfg)
	b := w.AddBody(1, geom.V(0, 0))
	b.Vel = geom.V(5, 0)
	b.Acc = geom.V(5, 0) // commanded accel must be ignored
	b.Disabled = true
	w.Step(0)
	if math.Abs(b.Vel.X-4.375) > 1e-12 {
		t.Errorf("braking: vel=%v, want 4.375", b.Vel.X)
	}
	for i := 0; i < 20; i++ {
		w.Step(wire.Tick(i))
	}
	if b.Vel != geom.Zero2 {
		t.Errorf("disabled robot never stopped: vel=%v", b.Vel)
	}
}

func TestObstacleCrash(t *testing.T) {
	cfg := DefaultWorldConfig()
	cfg.Obstacles = []geom.SphereObstacle{{C: geom.V(10, 0), R: 2}}
	w := NewWorld(cfg)
	b := w.AddBody(1, geom.V(7, 0))
	b.Vel = geom.V(8, 0)
	for i := 0; i < 8 && !b.Crashed; i++ {
		w.Step(wire.Tick(i))
	}
	if !b.Crashed {
		t.Fatal("robot drove through an obstacle without crashing")
	}
	if len(w.Crashes()) != 1 || w.Crashes()[0].A != 1 || w.Crashes()[0].B != 1 {
		t.Errorf("crash events: %+v", w.Crashes())
	}
	// Crashed robots stay put.
	pos := b.Pos
	w.Step(99)
	if b.Pos != pos {
		t.Error("crashed robot moved")
	}
}

func TestRobotRobotCrash(t *testing.T) {
	cfg := DefaultWorldConfig() // crash radius 0.5
	w := NewWorld(cfg)
	a := w.AddBody(1, geom.V(0, 0))
	b := w.AddBody(2, geom.V(4, 0))
	a.Vel = geom.V(4, 0)
	b.Vel = geom.V(-4, 0)
	for i := 0; i < 10 && !a.Crashed; i++ {
		w.Step(wire.Tick(i))
	}
	if !a.Crashed || !b.Crashed {
		t.Fatal("head-on robots did not crash")
	}
	ev := w.Crashes()
	if len(ev) != 1 || ev[0].A != 1 || ev[0].B != 2 {
		t.Errorf("crash events: %+v", ev)
	}
}

func TestDuplicateBodyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate body accepted")
		}
	}()
	w := NewWorld(DefaultWorldConfig())
	w.AddBody(1, geom.Zero2)
	w.AddBody(1, geom.Zero2)
}

// testActor broadcasts a payload on tick 0 and records deliveries.
type testActor struct {
	id     wire.RobotID
	medium *radio.Medium
	got    []wire.Frame
	ticks  []wire.Tick
}

func (a *testActor) ActorID() wire.RobotID { return a.id }
func (a *testActor) Deliver(f wire.Frame)  { a.got = append(a.got, f) }
func (a *testActor) Tick(now wire.Tick) {
	a.ticks = append(a.ticks, now)
	if now == 0 {
		a.medium.Send(a.id, wire.Frame{Src: a.id, Dst: wire.Broadcast, Payload: []byte{byte(a.id)}})
	}
}

func TestEngineDeliveryNextTick(t *testing.T) {
	w := NewWorld(DefaultWorldConfig())
	w.AddBody(1, geom.V(0, 0))
	w.AddBody(2, geom.V(10, 0))
	m := radio.NewMedium(radio.DefaultParams(), w.Position, 1)
	e := NewEngine(w, m)
	a1 := &testActor{id: 1, medium: m}
	a2 := &testActor{id: 2, medium: m}
	e.AddActor(a2)
	e.AddActor(a1)

	e.StepOnce() // tick 0: both broadcast
	if len(a1.got) != 0 || len(a2.got) != 0 {
		t.Error("frames delivered in the same tick they were sent")
	}
	e.StepOnce() // tick 1: deliveries land
	if len(a1.got) != 1 || len(a2.got) != 1 {
		t.Fatalf("deliveries: a1=%d a2=%d, want 1 each", len(a1.got), len(a2.got))
	}
	if a1.got[0].Src != 2 || a2.got[0].Src != 1 {
		t.Error("wrong frames delivered")
	}
	if e.Now() != 2 {
		t.Errorf("Now = %d", e.Now())
	}
}

// deliveryOrderActor records the global order in which the engine
// hands out deliveries across all actors.
type deliveryOrderActor struct {
	id    wire.RobotID
	trace *[]wire.RobotID // shared: appends own id per delivery
}

func (a *deliveryOrderActor) ActorID() wire.RobotID { return a.id }
func (a *deliveryOrderActor) Deliver(wire.Frame)    { *a.trace = append(*a.trace, a.id) }
func (a *deliveryOrderActor) Tick(wire.Tick)        {}

func TestEngineDeliversByReceiverThenQueueOrder(t *testing.T) {
	// The engine documents step 1 as "frames queued last tick are
	// delivered (by receiver ID, then queue order)". Queue frames to
	// several receivers in interleaved order and assert the engine
	// walks receivers ascending, exhausting each before the next.
	w := NewWorld(DefaultWorldConfig())
	w.AddBody(1, geom.V(0, 0))
	w.AddBody(2, geom.V(5, 0))
	w.AddBody(3, geom.V(10, 0))
	m := radio.NewMedium(radio.DefaultParams(), w.Position, 1)
	e := NewEngine(w, m)
	var trace []wire.RobotID
	for _, id := range []wire.RobotID{3, 1, 2} {
		e.AddActor(&deliveryOrderActor{id: id, trace: &trace})
	}
	m.Send(3, wire.Frame{Src: 3, Dst: wire.Broadcast}) // → 1, 2
	m.Send(1, wire.Frame{Src: 1, Dst: 3})              // → 3
	m.Send(2, wire.Frame{Src: 2, Dst: wire.Broadcast}) // → 1, 3
	e.StepOnce()
	want := []wire.RobotID{1, 1, 2, 3, 3}
	if len(trace) != len(want) {
		t.Fatalf("delivery trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("delivery trace %v, want receiver-major %v", trace, want)
		}
	}
}

func TestEngineObserversAndRun(t *testing.T) {
	w := NewWorld(DefaultWorldConfig())
	m := radio.NewMedium(radio.DefaultParams(), w.Position, 1)
	e := NewEngine(w, m)
	var seen []wire.Tick
	e.Observe(func(now wire.Tick) { seen = append(seen, now) })
	e.Run(5)
	if len(seen) != 5 || seen[0] != 0 || seen[4] != 4 {
		t.Errorf("observer ticks: %v", seen)
	}
}

func TestEngineDuplicateActorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate actor accepted")
		}
	}()
	w := NewWorld(DefaultWorldConfig())
	m := radio.NewMedium(radio.DefaultParams(), w.Position, 1)
	e := NewEngine(w, m)
	e.AddActor(&testActor{id: 1})
	e.AddActor(&testActor{id: 1})
}
