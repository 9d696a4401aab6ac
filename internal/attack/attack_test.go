package attack

import (
	"slices"
	"testing"

	"roborebound/internal/core"
	"roborebound/internal/flocking"
	"roborebound/internal/geom"
	"roborebound/internal/radio"
	"roborebound/internal/robot"
	"roborebound/internal/sim"
	"roborebound/internal/trusted"
	"roborebound/internal/wire"
)

func spoof() *Spoof {
	return &Spoof{
		Goal: geom.V(100, 100), Z: 150, Epsilon: 2, C: 1,
		IDs: []wire.RobotID{1, 2, 3, 4, 5}, Period: 1, PhantomsPerVictim: 1,
	}
}

func ctxWith(neighbors []neighborSpec) (*Ctx, *[]wire.Frame) {
	var sent []wire.Frame
	ctx := &Ctx{
		Now: 10, ID: 5, Pos: geom.V(0, 0),
		SendFrame: func(f wire.Frame) bool { sent = append(sent, f); return true },
		Actuate:   func(ax, ay float64) bool { return true },
	}
	for _, n := range neighbors {
		ctx.Neighbors = append(ctx.Neighbors, flockingNeighbor(n))
	}
	return ctx, &sent
}

type neighborSpec struct {
	id   wire.RobotID
	x, y float32
}

func TestSpoofInsideZ(t *testing.T) {
	s := spoof()
	// Victim 1 at (90, 100): 10 m from the goal, inside Z.
	ctx, sent := ctxWith([]neighborSpec{{1, 90, 100}})
	s.Act(ctx)
	if len(*sent) != 1 {
		t.Fatalf("sent %d frames, want 1", len(*sent))
	}
	m, err := wire.DecodeStateMsg((*sent)[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	// Phantom must be 1 m from the victim, toward the goal: (91, 100).
	if m.PosX != 91 || m.PosY != 100 {
		t.Errorf("phantom at (%v,%v), want (91,100)", m.PosX, m.PosY)
	}
	// Spoofed velocity flees the goal at c = 1: (−1, 0).
	if m.VelX != -1 || m.VelY != 0 {
		t.Errorf("phantom velocity (%v,%v), want (−1,0)", m.VelX, m.VelY)
	}
	// Claimed ID is neither the victim nor the attacker.
	if m.Src == 1 || m.Src == 5 {
		t.Errorf("claimed ID %d collides with victim or attacker", m.Src)
	}
}

func TestSpoofOutsideZ(t *testing.T) {
	s := spoof()
	s.Z = 50
	// Victim at (200, 100): 100 m from goal, outside Z = 50.
	ctx, sent := ctxWith([]neighborSpec{{1, 200, 100}})
	s.Act(ctx)
	if len(*sent) != 1 {
		t.Fatalf("sent %d frames", len(*sent))
	}
	m, _ := wire.DecodeStateMsg((*sent)[0].Payload)
	// Ring phantom at goal + (Z−ε)·u = (100+48, 100).
	if m.PosX != 148 || m.PosY != 100 {
		t.Errorf("ring phantom at (%v,%v), want (148,100)", m.PosX, m.PosY)
	}
}

func TestSpoofVictimFilter(t *testing.T) {
	s := spoof()
	s.MaxVictimDist = 50
	ctx, sent := ctxWith([]neighborSpec{{1, 300, 100}}) // 200 m out
	s.Act(ctx)
	if len(*sent) != 0 {
		t.Error("filtered victim was spoofed")
	}
}

func TestSpoofVictimPartition(t *testing.T) {
	s := spoof()
	s.VictimMod, s.VictimResidue = 2, 0
	ctx, sent := ctxWith([]neighborSpec{{1, 90, 100}, {2, 95, 100}})
	s.Act(ctx)
	// Only victim 2 (ID ≡ 0 mod 2) is handled.
	if len(*sent) != 1 {
		t.Fatalf("sent %d frames, want 1", len(*sent))
	}
}

func TestSpoofPeriod(t *testing.T) {
	s := spoof()
	s.Period = 4
	ctx, sent := ctxWith([]neighborSpec{{1, 90, 100}})
	ctx.Now = 10 // 10 % 4 ≠ 0
	s.Act(ctx)
	if len(*sent) != 0 {
		t.Error("spoofed off-period")
	}
	ctx.Now = 12
	s.Act(ctx)
	if len(*sent) != 1 {
		t.Error("did not spoof on period")
	}
}

func TestSpoofStablePhantomIDs(t *testing.T) {
	s := spoof()
	s.PhantomsPerVictim = 2
	ctx, sent := ctxWith([]neighborSpec{{1, 90, 100}})
	s.Act(ctx)
	first := [](wire.RobotID){(*sent)[0].Src, (*sent)[1].Src}
	*sent = nil
	s.Act(ctx)
	second := [](wire.RobotID){(*sent)[0].Src, (*sent)[1].Src}
	if first[0] != second[0] || first[1] != second[1] {
		t.Errorf("phantom IDs not stable: %v vs %v", first, second)
	}
	if first[0] == first[1] {
		t.Error("duplicate phantom IDs")
	}
}

func TestSpoofVictimAtGoal(t *testing.T) {
	s := spoof()
	ctx, sent := ctxWith([]neighborSpec{{1, 100, 100}}) // exactly at goal
	s.Act(ctx)
	if len(*sent) != 0 {
		t.Error("undefined direction should skip the victim")
	}
}

func TestRamTargetsNearest(t *testing.T) {
	r := Ram{}
	var acc geom.Vec2
	ctx := &Ctx{
		Now: 1, ID: 5, Pos: geom.V(0, 0),
		SendFrame: func(wire.Frame) bool { return true },
		Actuate:   func(ax, ay float64) bool { acc = geom.V(ax, ay); return true },
	}
	ctx.Neighbors = append(ctx.Neighbors,
		flockingNeighbor(neighborSpec{1, 10, 0}),
		flockingNeighbor(neighborSpec{2, 3, 4}), // nearest (5 m)
	)
	r.Act(ctx)
	if acc.Unit().Dot(geom.V(0.6, 0.8)) < 0.99 {
		t.Errorf("ram direction %v, want toward (3,4)", acc.Unit())
	}
	// No neighbors → no actuation.
	acc = geom.Zero2
	r.Act(&Ctx{Actuate: func(ax, ay float64) bool { acc = geom.V(ax, ay); return true }})
	if acc != geom.Zero2 {
		t.Error("ram actuated without a target")
	}
}

func TestAuditDoSEmitsJunk(t *testing.T) {
	d := &AuditDoS{PerTick: 3}
	ctx, sent := ctxWith(nil)
	d.Act(ctx)
	if len(*sent) != 3 {
		t.Fatalf("sent %d frames, want 3", len(*sent))
	}
	for _, f := range *sent {
		if !f.IsAudit() {
			t.Error("junk frame not audit-flagged")
		}
	}
}

func TestStrategyNames(t *testing.T) {
	for _, s := range []Strategy{spoof(), Silent{}, Ram{}, &AuditDoS{}} {
		if s.Name() == "" {
			t.Errorf("%T has empty name", s)
		}
	}
}

func flockingNeighbor(n neighborSpec) flocking.Neighbor {
	return flocking.Neighbor{ID: n.id, PosX: n.x, PosY: n.y}
}

// scribbler records the neighbor view it is handed, then writes over
// it and grows it.
type scribbler struct{ seen [][]flocking.Neighbor }

func (*scribbler) Name() string { return "scribbler" }

func (s *scribbler) Act(ctx *Ctx) {
	s.seen = append(s.seen, append([]flocking.Neighbor(nil), ctx.Neighbors...))
	for i := range ctx.Neighbors {
		ctx.Neighbors[i].ID += 100
		ctx.Neighbors[i].PosX = -1
	}
	ctx.Neighbors = append(ctx.Neighbors, flocking.Neighbor{ID: 99})
}

// TestStrategyWritesStayInItsView: a compromised flocking robot hands
// its strategy a view of the controller's neighbor table in storage the
// attacker keeps from tick to tick. A strategy that writes into that
// view leaves the table the controller steers by unchanged, and the
// next tick's view is the table again, not the strategy's writes.
func TestStrategyWritesStayInItsView(t *testing.T) {
	world := sim.NewWorld(sim.DefaultWorldConfig())
	medium := radio.NewMedium(radio.DefaultParams(), world.Position, 1)
	engine := sim.NewEngine(world, medium)
	master := []byte("attack-test-master")
	var mission [trusted.MissionKeySize]byte
	r := robot.New(robot.Config{
		ID:        1,
		Protected: true,
		Core:      core.DefaultConfig(4),
		Factory:   flocking.Factory{Params: flocking.DefaultParams(4, 4, geom.V(100, 100))},
		Master:    master,
		Sealed:    trusted.SealMissionKey(master, mission, 3, 1),
	}, world.AddBody(1, geom.V(0, 0)), medium, engine.Now)
	s := &scribbler{}
	c := NewCompromised(r, 0, s, true)
	fc := c.Controller().(*flocking.Controller)
	for tick := wire.Tick(0); tick < 4; tick++ {
		for id := wire.RobotID(2); id <= 4; id++ {
			m := wire.StateMsg{Src: id, Time: tick, PosX: float32(id), PosY: 1}
			c.Deliver(wire.Frame{Src: id, Dst: wire.Broadcast, Payload: m.Encode()})
		}
		c.Tick(tick)
		table := fc.AppendNeighbors(nil)
		if len(table) != 3 {
			t.Fatalf("tick %d: the controller's table has %d neighbors, want 3", tick, len(table))
		}
		for _, n := range table {
			if n.ID < 2 || n.ID > 4 || n.PosX != float32(n.ID) {
				t.Fatalf("tick %d: the strategy's writes reached the controller's table: %+v", tick, n)
			}
		}
		if seen := s.seen[len(s.seen)-1]; !slices.Equal(seen, table) {
			t.Fatalf("tick %d: the strategy was handed %+v, not the table %+v", tick, seen, table)
		}
	}
}

// TestStrategyActAllocatesOnlyItsPayloads: a warm Act of each strategy
// that forges state messages makes no allocation of its own — Spoof
// writes its claimed IDs into scratch it keeps, and every strategy
// encodes into payloads carved from its context's slab. A slab chunk
// holds 9 state messages, and no Act here sends more than 8, so the
// chunks average under one allocation per call; any per-call
// allocation (a claim slice, an encode buffer of its own) reads at
// least one.
func TestStrategyActAllocatesOnlyItsPayloads(t *testing.T) {
	victims := []neighborSpec{{1, 90, 100}, {2, 400, 400}, {3, 60, 20}, {4, 300, 90}}
	multi := spoof()
	multi.PhantomsPerVictim = 2
	for _, s := range []Strategy{spoof(), multi, Blocker{X: 4, Y: 4}, Equivocate{Spread: 5}} {
		ctx, _ := ctxWith(victims)
		sent := 0
		ctx.SendFrame = func(f wire.Frame) bool { sent += len(f.Payload); return true }
		s.Act(ctx)
		if sent == 0 {
			t.Fatalf("%s sent nothing; the test measures nothing", s.Name())
		}
		if allocs := testing.AllocsPerRun(100, func() { s.Act(ctx) }); allocs != 0 {
			t.Errorf("a warm %s Act allocates %.2f times, want 0", s.Name(), allocs)
		}
	}
}
