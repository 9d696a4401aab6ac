package flocking

import (
	"bytes"
	"math"
	"testing"

	"roborebound/internal/geom"
	"roborebound/internal/wire"
)

func testParams() Params {
	return DefaultParams(4, 4, geom.V(100, 100))
}

func reading(t wire.Tick, pos, vel geom.Vec2) wire.SensorReading {
	return wire.SensorReading{
		Time: t,
		PosX: pos.X, PosY: pos.Y,
		VelX: float32(vel.X), VelY: float32(vel.Y),
	}
}

func stateMsg(src wire.RobotID, t wire.Tick, pos, vel geom.Vec2) []byte {
	m := wire.StateMsg{Src: src, Time: t,
		PosX: float32(pos.X), PosY: float32(pos.Y),
		VelX: float32(vel.X), VelY: float32(vel.Y)}
	return m.Encode()
}

func TestTable3Defaults(t *testing.T) {
	p := DefaultParams(4, 4, geom.Zero2)
	cases := []struct {
		name string
		got  float64
		want float64
	}{
		{"kappa", p.Kappa, 1.2},
		{"eps", p.Eps, 0.1},
		{"a", p.A, 5.0},
		{"b", p.B, 5.0},
		{"h_phi_alpha", p.HAlpha, 0.2},
		{"h_phi_beta", p.HBeta, 0.9},
		{"c1_alpha", p.C1Alpha, 0.005},
		{"c2_alpha", p.C2Alpha, 0.05},
		{"c1_beta", p.C1Beta, 0.0},
		{"c2_beta", p.C2Beta, 0.0},
		{"c1_gamma", p.C1Gamma, -0.001},
		{"c2_gamma", p.C2Gamma, -0.060},
		{"r=1.2d", p.R(), 4.8},
		{"d'=0.5κd", p.DPrime(), 2.4},
		{"r'=κd'", p.RPrime(), 2.88},
		{"accel cap", p.AccelCap, 5.0},
	}
	for _, c := range cases {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("%s = %v, want %v (Table 3)", c.name, c.got, c.want)
		}
	}
	if p.ControlPeriod != 1 { // 0.25 s at 4 ticks/s
		t.Errorf("control period = %d ticks, want 1", p.ControlPeriod)
	}
	if p.BroadcastPeriod != 6 { // 1.5 s at 4 ticks/s
		t.Errorf("broadcast period = %d ticks, want 6", p.BroadcastPeriod)
	}
}

func TestGoalAttraction(t *testing.T) {
	c := New(1, testParams())
	// At rest, far from the goal, alone: the control vector must point
	// toward the goal.
	out := c.OnSensor(reading(0, geom.V(0, 0), geom.Zero2))
	if !out.HasCmd {
		t.Fatal("no actuator command")
	}
	u := geom.V(out.Cmd.AccX, out.Cmd.AccY)
	toGoal := testParams().Goal.Sub(geom.V(0, 0)).Unit()
	if u.Unit().Dot(toGoal) < 0.99 {
		t.Errorf("control %v does not point at goal (dir %v)", u, toGoal)
	}
}

func TestGoalDamping(t *testing.T) {
	p := testParams()
	c := New(1, p)
	// Sitting exactly at the goal with residual velocity: the command
	// must oppose the velocity.
	out := c.OnSensor(reading(0, p.Goal, geom.V(2, 0)))
	if out.Cmd.AccX >= 0 {
		t.Errorf("damping term should brake: acc = (%v, %v)", out.Cmd.AccX, out.Cmd.AccY)
	}
}

func TestNeighborRepulsionWhenTooClose(t *testing.T) {
	p := testParams()
	p.C1Gamma, p.C2Gamma = 0, 0 // isolate the α-term
	c := New(1, p)
	c.OnSensor(reading(0, geom.V(0, 0), geom.Zero2))
	// Neighbor 1 m east; desired spacing is 4 m ⇒ repulsion (−x).
	c.OnMessage(stateMsg(2, 0, geom.V(1, 0), geom.Zero2))
	out := c.OnSensor(reading(1, geom.V(0, 0), geom.Zero2))
	if out.Cmd.AccX >= 0 {
		t.Errorf("expected repulsion from close neighbor, acc.X = %v", out.Cmd.AccX)
	}
}

func TestNeighborAttractionWhenTooFar(t *testing.T) {
	p := testParams()
	p.C1Gamma, p.C2Gamma = 0, 0
	c := New(1, p)
	c.OnSensor(reading(0, geom.V(0, 0), geom.Zero2))
	// Neighbor 4.5 m east: inside range (4.8 m), past spacing (4 m) ⇒
	// attraction (+x).
	c.OnMessage(stateMsg(2, 0, geom.V(4.5, 0), geom.Zero2))
	out := c.OnSensor(reading(1, geom.V(0, 0), geom.Zero2))
	if out.Cmd.AccX <= 0 {
		t.Errorf("expected attraction to far neighbor, acc.X = %v", out.Cmd.AccX)
	}
}

func TestNeighborOutOfRangeIgnored(t *testing.T) {
	p := testParams()
	p.C1Gamma, p.C2Gamma = 0, 0
	c := New(1, p)
	c.OnSensor(reading(0, geom.V(0, 0), geom.Zero2))
	c.OnMessage(stateMsg(2, 0, geom.V(50, 0), geom.Zero2))
	out := c.OnSensor(reading(1, geom.V(0, 0), geom.Zero2))
	if out.Cmd.AccX != 0 || out.Cmd.AccY != 0 {
		t.Errorf("out-of-range neighbor influenced control: %+v", out.Cmd)
	}
}

func TestVelocityConsensus(t *testing.T) {
	p := testParams()
	p.C1Gamma, p.C2Gamma = 0, 0
	p.C1Alpha = 0 // isolate the damping term
	c := New(1, p)
	c.OnSensor(reading(0, geom.V(0, 0), geom.Zero2))
	// Neighbor at desired spacing, moving north: consensus pulls our
	// velocity toward it.
	c.OnMessage(stateMsg(2, 0, geom.V(4, 0), geom.V(0, 1)))
	out := c.OnSensor(reading(1, geom.V(0, 0), geom.Zero2))
	if out.Cmd.AccY <= 0 {
		t.Errorf("expected velocity consensus toward moving neighbor, acc.Y = %v", out.Cmd.AccY)
	}
}

func TestObstacleRepulsion(t *testing.T) {
	p := testParams()
	p.C1Gamma, p.C2Gamma = 0, 0
	p.C1Beta, p.C2Beta = 5.0, 1.0
	p.Obstacles = []geom.SphereObstacle{{C: geom.V(2, 0), R: 1}}
	c := New(1, p)
	// Robot 1 m from the obstacle surface, well inside r' = 2.88 m.
	out := c.OnSensor(reading(0, geom.V(0, 0), geom.Zero2))
	if out.Cmd.AccX >= 0 {
		t.Errorf("expected obstacle repulsion (−x), acc.X = %v", out.Cmd.AccX)
	}
	// φ_β is repulsive-only: approaching from the far side must push +x.
	c2 := New(2, p)
	out2 := c2.OnSensor(reading(0, geom.V(4, 0), geom.Zero2))
	if out2.Cmd.AccX <= 0 {
		t.Errorf("expected repulsion (+x) on far side, acc.X = %v", out2.Cmd.AccX)
	}
}

func TestAccelerationSaturation(t *testing.T) {
	p := testParams()
	p.C1Gamma = -10 // absurd gain to force saturation
	p.Goal = geom.V(1000, 1000)
	c := New(1, p)
	out := c.OnSensor(reading(0, geom.V(0, 0), geom.Zero2))
	if math.Abs(out.Cmd.AccX) > p.AccelCap || math.Abs(out.Cmd.AccY) > p.AccelCap {
		t.Errorf("acceleration exceeds per-axis cap: %+v", out.Cmd)
	}
	if math.Abs(out.Cmd.AccX) != p.AccelCap {
		t.Errorf("expected saturation at %v, got %v", p.AccelCap, out.Cmd.AccX)
	}
}

func TestBroadcastCadenceAndStagger(t *testing.T) {
	p := testParams() // broadcast period 6 ticks
	c := New(2, p)    // phase = 2
	var broadcasts []wire.Tick
	for tk := wire.Tick(0); tk < 24; tk++ {
		out := c.OnSensor(reading(tk, geom.Zero2, geom.Zero2))
		if out.Broadcast != nil {
			broadcasts = append(broadcasts, tk)
		}
	}
	want := []wire.Tick{2, 8, 14, 20}
	if len(broadcasts) != len(want) {
		t.Fatalf("broadcasts at %v, want %v", broadcasts, want)
	}
	for i := range want {
		if broadcasts[i] != want[i] {
			t.Fatalf("broadcasts at %v, want %v", broadcasts, want)
		}
	}
	// A different ID gets a different phase.
	c3 := New(3, p)
	out := c3.OnSensor(reading(2, geom.Zero2, geom.Zero2))
	if out.Broadcast != nil {
		t.Error("robot 3 broadcast on robot 2's phase")
	}
}

func TestBroadcastContents(t *testing.T) {
	p := testParams()
	c := New(2, p)
	pos, vel := geom.V(7, -3), geom.V(0.5, 0.25)
	out := c.OnSensor(reading(2, pos, vel))
	if out.Broadcast == nil {
		t.Fatal("no broadcast on phase tick")
	}
	m, err := wire.DecodeStateMsg(out.Broadcast)
	if err != nil {
		t.Fatal(err)
	}
	if m.Src != 2 || m.Time != 2 || m.PosX != 7 || m.PosY != -3 ||
		m.VelX != 0.5 || m.VelY != 0.25 {
		t.Errorf("broadcast contents: %+v", m)
	}
}

func TestOwnEchoIgnored(t *testing.T) {
	c := New(5, testParams())
	c.OnSensor(reading(0, geom.Zero2, geom.Zero2))
	c.OnMessage(stateMsg(5, 0, geom.V(1, 1), geom.Zero2))
	if len(c.AppendNeighbors(nil)) != 0 {
		t.Error("own broadcast echo recorded as neighbor")
	}
}

func TestMalformedMessageIgnored(t *testing.T) {
	c := New(1, testParams())
	c.OnMessage([]byte{0xde, 0xad})
	c.OnMessage(nil)
	if len(c.AppendNeighbors(nil)) != 0 {
		t.Error("malformed message created a neighbor")
	}
}

func TestNeighborUpdateInPlace(t *testing.T) {
	c := New(1, testParams())
	c.OnSensor(reading(0, geom.Zero2, geom.Zero2))
	c.OnMessage(stateMsg(2, 0, geom.V(1, 0), geom.Zero2))
	c.OnMessage(stateMsg(2, 0, geom.V(2, 0), geom.Zero2))
	nbrs := c.AppendNeighbors(nil)
	if len(nbrs) != 1 || nbrs[0].PosX != 2 {
		t.Errorf("neighbor update failed: %+v", nbrs)
	}
}

func TestNeighborsSortedByID(t *testing.T) {
	c := New(1, testParams())
	c.OnSensor(reading(0, geom.Zero2, geom.Zero2))
	for _, id := range []wire.RobotID{9, 3, 7, 2, 8} {
		c.OnMessage(stateMsg(id, 0, geom.V(1, 1), geom.Zero2))
	}
	nbrs := c.AppendNeighbors(nil)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1].ID >= nbrs[i].ID {
			t.Fatalf("neighbors not sorted: %+v", nbrs)
		}
	}
}

func TestNeighborExpiry(t *testing.T) {
	p := testParams() // timeout 18 ticks (4.5 s)
	c := New(1, p)
	c.OnSensor(reading(0, geom.Zero2, geom.Zero2))
	c.OnMessage(stateMsg(2, 0, geom.V(1, 0), geom.Zero2))
	c.OnSensor(reading(17, geom.Zero2, geom.Zero2))
	if len(c.AppendNeighbors(nil)) != 1 {
		t.Fatal("neighbor expired too early")
	}
	c.OnSensor(reading(18, geom.Zero2, geom.Zero2))
	if len(c.AppendNeighbors(nil)) != 0 {
		t.Error("stale neighbor not expired")
	}
}

func TestStateRoundTripExact(t *testing.T) {
	p := testParams()
	c := New(1, p)
	c.OnSensor(reading(0, geom.V(1.234567890123, -9.87654321), geom.V(0.125, -0.5)))
	for _, id := range []wire.RobotID{4, 2, 9} {
		c.OnMessage(stateMsg(id, 0, geom.V(float64(id), 1), geom.V(0.25, 0)))
	}
	state := c.AppendState(nil)
	restored, err := Factory{Params: p}.Load(nil, 1, state)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored.AppendState(nil), state) {
		t.Fatal("state round trip not bit-exact")
	}

	// The restored controller must behave identically: same inputs →
	// same outputs, bit for bit.
	in1 := reading(5, geom.V(1.5, -9.5), geom.V(0.0625, -0.25))
	a := c.OnSensor(in1)
	b := restored.OnSensor(in1)
	if !a.HasCmd || !b.HasCmd || a.Cmd != b.Cmd {
		t.Errorf("restored controller diverges: %+v vs %+v", a.Cmd, b.Cmd)
	}
	if !bytes.Equal(a.Broadcast, b.Broadcast) {
		t.Error("broadcast divergence after restore")
	}
}

func TestRestoreRejectsNonCanonicalState(t *testing.T) {
	p := testParams()
	c := New(1, p)
	c.OnSensor(reading(0, geom.Zero2, geom.Zero2))
	c.OnMessage(stateMsg(2, 0, geom.V(1, 0), geom.Zero2))
	c.OnMessage(stateMsg(3, 0, geom.V(2, 0), geom.Zero2))
	state := c.AppendState(nil)

	// Swap the two neighbor records (26 bytes each, after the 38-byte
	// header): a forged, non-canonical checkpoint must be rejected,
	// otherwise two different encodings of the same state would hash
	// differently and break token binding.
	const header = 8 + 16 + 8 + 2
	swapped := append([]byte(nil), state...)
	copy(swapped[header:header+26], state[header+26:header+52])
	copy(swapped[header+26:header+52], state[header:header+26])
	if _, err := (Factory{Params: p}).Load(nil, 1, swapped); err == nil {
		t.Error("non-canonical neighbor order accepted")
	}

	if _, err := (Factory{Params: p}).Load(nil, 1, state[:10]); err == nil {
		t.Error("truncated state accepted")
	}
	if _, err := (Factory{Params: p}).Load(nil, 1, append(state, 0)); err == nil {
		t.Error("oversized state accepted")
	}
}

func TestDeterministicAcrossInstances(t *testing.T) {
	p := testParams()
	run := func() []byte {
		c := New(1, p)
		for tk := wire.Tick(0); tk < 40; tk++ {
			c.OnMessage(stateMsg(2, tk, geom.V(float64(tk)*0.1, 3), geom.V(0.5, 0)))
			c.OnSensor(reading(tk, geom.V(float64(tk)*0.05, 0), geom.V(0.2, 0)))
		}
		return c.AppendState(nil)
	}
	if !bytes.Equal(run(), run()) {
		t.Error("two identical runs produced different state")
	}
}

// TestLatticeFormation drives a small closed-loop flock (controller +
// double-integrator physics, no radio) and checks Olfati-Saber's core
// emergent property: neighbors settle near the desired spacing d and
// the group's velocities agree.
func TestLatticeFormation(t *testing.T) {
	p := DefaultParams(4, 4, geom.V(60, 60))
	// Strengthen the lattice so it settles within a short test horizon
	// (Table 3's gains converge over hundreds of seconds).
	p.C1Alpha, p.C2Alpha = 0.2, 0.4

	type robot struct {
		c        *Controller
		pos, vel geom.Vec2
	}
	robots := make([]*robot, 4)
	starts := []geom.Vec2{{X: 0, Y: 0}, {X: 5, Y: 1}, {X: 1, Y: 6}, {X: 7, Y: 7}}
	for i := range robots {
		robots[i] = &robot{c: New(wire.RobotID(i+1), p), pos: starts[i]}
	}
	const dt = 0.25
	for tk := wire.Tick(0); tk < 1200; tk++ {
		// Broadcast phase: everyone hears everyone (no radio model).
		for i, r := range robots {
			msg := stateMsg(wire.RobotID(i+1), tk, r.pos, r.vel)
			for j, other := range robots {
				if i != j {
					other.c.OnMessage(msg)
				}
			}
		}
		for _, r := range robots {
			out := r.c.OnSensor(reading(tk, r.pos, r.vel))
			acc := geom.V(out.Cmd.AccX, out.Cmd.AccY)
			r.vel = r.vel.Add(acc.Scale(dt))
			r.pos = r.pos.Add(r.vel.Scale(dt))
		}
	}
	// Velocity consensus: all velocities close to the mean.
	var meanVel geom.Vec2
	for _, r := range robots {
		meanVel = meanVel.Add(r.vel)
	}
	meanVel = meanVel.Scale(1.0 / float64(len(robots)))
	for i, r := range robots {
		if r.vel.Sub(meanVel).Norm() > 0.3 {
			t.Errorf("robot %d velocity %v far from consensus %v", i+1, r.vel, meanVel)
		}
	}
	// Spacing: nearest-neighbor distances near d = 4 (quasi-lattice).
	for i, r := range robots {
		nearest := 1e18
		for j, o := range robots {
			if i == j {
				continue
			}
			if d := r.pos.Dist(o.pos); d < nearest {
				nearest = d
			}
		}
		if nearest < 2.0 || nearest > 7.0 {
			t.Errorf("robot %d nearest neighbor at %.2f m, want ≈4 m", i+1, nearest)
		}
	}
}

// Every flocking step commanded the actuators when the command was a
// pointer (never nil), so HasCmd is set on every step, alone or in a
// flock, broadcasting or not; and a step that does not broadcast
// allocates nothing, because the command travels by value.
func TestEveryStepCarriesACommandAndQuietOnesDoNotAllocate(t *testing.T) {
	p := testParams() // broadcast period 6 ticks
	alone, flock := New(2, p), New(2, p)
	var peers [][]byte
	for id := wire.RobotID(3); id < 12; id++ {
		peers = append(peers, stateMsg(id, 0, geom.V(float64(id)*3, 5), geom.V(0.5, 0)))
	}
	for name, c := range map[string]*Controller{"alone": alone, "in a flock": flock} {
		hear := func() { // keeps the flock's neighbor table from expiring
			for _, m := range peers {
				if c == flock {
					c.OnMessage(m)
				}
			}
		}
		for tk := wire.Tick(0); tk < 12; tk++ {
			hear()
			out := c.OnSensor(reading(tk, geom.V(1, 2), geom.V(0.1, 0)))
			if !out.HasCmd || out.Cmd.Time != tk {
				t.Errorf("%s: step at t=%d: HasCmd=%v, command stamped t=%d", name, tk, out.HasCmd, out.Cmd.Time)
			}
			if wantBroadcast := tk%6 == 2; (out.Broadcast != nil) != wantBroadcast {
				t.Errorf("%s: broadcast=%v at t=%d", name, out.Broadcast != nil, tk)
			}
		}
		tk := wire.Tick(12)
		if n := testing.AllocsPerRun(100, func() {
			tk++
			if tk%6 == 2 {
				tk++ // robot 2's broadcast phase
			}
			hear()
			c.OnSensor(reading(tk, geom.V(1, 2), geom.V(0.1, 0)))
		}); n != 0 {
			t.Errorf("%s: a quiet control step allocates %v times, want 0", name, n)
		}
	}
}

// BenchmarkOnMessage is one received state message against a dense
// cell's neighbour table (44 peers): decode, find the slot, overwrite.
// The slot search is sort.Search with a closure, which the compiler
// inlines, so a profile line that blames the closure is naming inlined
// code, not a call: 31.6 ns/op as is, 30.3 with a hand-written loop
// (1.3 ns on ~90 calls of a 74 µs dense robot-tick) and 45-57 with
// slices.BinarySearchFunc, which copies the 32-byte Neighbor into its
// comparator at every probe. The messages below arrive in ascending ID
// order, as the medium delivers them, and a "slot after the last one"
// probe ahead of the search does not show: ten alternating runs of the
// two binaries read 32-65 ns without it and 32-58 ns with it (medians
// 35.5 and 35.1), so the table keeps no hint.
func BenchmarkOnMessage(b *testing.B) {
	c := New(1, testParams())
	var msgs [][]byte
	for id := wire.RobotID(2); id < 46; id++ {
		msgs = append(msgs, stateMsg(3*id, 0, geom.V(float64(id), 5), geom.V(0.5, 0)))
	}
	for _, m := range msgs {
		c.OnMessage(m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.OnMessage(msgs[i%len(msgs)])
	}
}
