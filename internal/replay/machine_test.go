package replay

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"roborebound/internal/control"
	"roborebound/internal/flocking"
	"roborebound/internal/geom"
	"roborebound/internal/trusted"
	"roborebound/internal/wire"
)

// controllerFactories holds one factory for each controller the
// repository ships, with parameters under which a controller's state
// depends on its robot: a patrol route inflated per robot, warehouse
// stations and explore strips dealt by ID.
var controllerFactories = func() []struct {
	name string
	f    control.Factory
} {
	route := []geom.Vec2{geom.V(0, 0), geom.V(40, 0), geom.V(40, 40), geom.V(0, 40)}
	patrol := control.DefaultPatrolParams(route)
	patrol.RingGapM = 3
	pickups := []geom.Vec2{geom.V(0, 0), geom.V(0, 10), geom.V(0, 20)}
	dropoffs := []geom.Vec2{geom.V(50, 0), geom.V(50, 10), geom.V(50, 20)}
	return []struct {
		name string
		f    control.Factory
	}{
		{"flocking", flocking.Factory{Params: flocking.DefaultParams(4, 4, geom.V(100, 100))}},
		{"patrol", control.PatrolFactory{Params: patrol}},
		{"warehouse", control.WarehouseFactory{Params: control.DefaultWarehouseParams(pickups, dropoffs)}},
		{"explore", control.ExploreFactory{Params: control.DefaultExploreParams(0, 0, 80, 80, 4)}},
	}
}()

// run advances r by n control periods, hearing a peer's state before
// every third; seed shifts the peers, positions and phase, so two
// robots' runs differ.
func (r *liveRobot) run(n, seed int) {
	for i := 0; i < n; i++ {
		if (i+seed)%3 == 0 {
			src := wire.RobotID(1 + (i+seed)%6)
			if src == r.id {
				src = 7
			}
			r.recv(peerState(src, r.now, geom.V(float64(seed+i), float64(2*i))))
		}
		r.step(geom.V(float64(seed)+0.5*float64(i), float64(i)), geom.V(0.5, 1))
	}
}

// segments returns two honest requests of robot id's controller under
// f: from boot to a first checkpoint, and from there to a second.
func segments(t testing.TB, f control.Factory, id wire.RobotID, seed int) (boot, inc Request) {
	r := newLiveRobotWith(t, id, f)
	r.run(20, seed)
	mid := r.checkpoint()
	boot = Request{Auditee: id, ReqT: r.now, FromBoot: true, End: mid, Entries: r.entries}
	r.entries = nil
	r.run(24, seed+1)
	inc = Request{Auditee: id, ReqT: r.now, Start: &mid, End: r.checkpoint(), Entries: r.entries}
	for _, req := range []Request{boot, inc} {
		kinds := map[uint8]bool{}
		for _, e := range req.Entries {
			kinds[e.Kind] = true
		}
		if !kinds[wire.EntrySend] || !kinds[wire.EntryRecv] {
			t.Fatalf("robot %d's segment broadcasts nothing or hears nothing", id)
		}
	}
	return boot, inc
}

// auditorConfig is the verifier configuration of an auditor with its
// own trusted hardware, replaying controllers of f.
func auditorConfig(t testing.TB, f control.Factory) Config {
	return Config{Factory: f, BatchSize: trusted.DefaultBatchSize, AuthSlack: 16,
		CheckAuthenticator: newLiveRobot(t, 9).anode.CheckAuthenticator}
}

// transcript feeds c the inputs a segment logged and returns what it
// emitted for them, encoded, followed by its state after the last.
func transcript(c control.Controller, entries []wire.LogEntry) []byte {
	var out []byte
	for _, e := range entries {
		switch e.Kind {
		case wire.EntrySensor:
			r, err := wire.DecodeSensorReading(e.Payload)
			if err != nil {
				continue
			}
			o := c.OnSensor(r)
			out = append(out, byte(len(o.Broadcast)))
			out = append(out, o.Broadcast...)
			if o.HasCmd {
				out = o.Cmd.AppendEncode(out)
			}
		case wire.EntryRecv:
			if f, err := wire.DecodeFrame(e.Payload); err == nil {
				c.OnMessage(f.Payload)
			}
		}
	}
	return c.AppendState(out)
}

// TestWarmVerifyAllocatesNothing pins the auditor's replay at zero
// allocations once its machine is warm, for every controller and for
// both kinds of segment, while the machine alternates between two
// auditees: a from-boot and a from-checkpoint replay of robot 3, each
// after one of robot 5.
func TestWarmVerifyAllocatesNothing(t *testing.T) {
	for _, c := range controllerFactories {
		t.Run(c.name, func(t *testing.T) {
			boot, inc := segments(t, c.f, 3, 1)
			otherBoot, otherInc := segments(t, c.f, 5, 4)
			cfg := auditorConfig(t, c.f)
			cfg.Machine = new(Machine)
			for _, k := range []struct {
				name       string
				req, other Request
			}{{"from boot", boot, otherBoot}, {"from a checkpoint", inc, otherInc}} {
				for _, req := range []Request{k.other, k.req} {
					if err := Verify(req, cfg); err != nil {
						t.Fatalf("%s: robot %d's segment rejected: %v", k.name, req.Auditee, err)
					}
				}
				allocs := testing.AllocsPerRun(20, func() {
					if err := Verify(k.other, cfg); err != nil {
						panic(err)
					}
					if err := Verify(k.req, cfg); err != nil {
						panic(err)
					}
				})
				if allocs != 0 {
					t.Errorf("%s: %.1f allocations per pair of warm replays, want 0", k.name, allocs)
				}
			}
		})
	}
}

// TestMachineReuseMatchesAFreshLoad: a machine whose replica last ran
// another auditee, and was rejected part-way through its segment, then
// replays robot 6 to the verdicts a fresh machine reaches; and the
// replica, loaded with robot 6's checkpoint state (or its initial
// state, or after a failed load), is the controller a fresh load
// yields — the same state, and the same outputs for the same inputs.
func TestMachineReuseMatchesAFreshLoad(t *testing.T) {
	for _, c := range controllerFactories {
		t.Run(c.name, func(t *testing.T) {
			_, incA := segments(t, c.f, 3, 1)
			bootB, incB := segments(t, c.f, 6, 2)
			cfg := auditorConfig(t, c.f)
			m := new(Machine)
			cfg.Machine = m

			// Robot 3's segment with its last actuator command forged:
			// every input has been replayed when the replay is rejected.
			bad := incA
			bad.Entries = append([]wire.LogEntry(nil), incA.Entries...)
			last := len(bad.Entries) - 1
			bad.Entries[last] = wire.LogEntry{Kind: wire.EntryActuator, Payload: bytes.Repeat([]byte{0xAB}, wire.ActuatorCmdSize)}
			var f *Failure
			if err := Verify(bad, cfg); !errors.As(err, &f) || f.Stage != "output" || f.Entry != last {
				t.Fatalf("forged last command: rejected with %v, want an output failure at entry %d", err, last)
			}
			for _, req := range []Request{incB, bootB} {
				if err := Verify(req, cfg); err != nil {
					t.Fatalf("robot 6's segment rejected on the machine robot 3's failed replay left: %v", err)
				}
				if !bytes.Equal(m.state, req.End.State) {
					t.Fatal("the machine's end state is not the checkpoint's")
				}
			}

			// The replica robot 3's replay left, loaded directly.
			if Verify(bad, cfg) == nil {
				t.Fatal("forged segment accepted")
			}
			replica := m.ctrl
			stateB, stateA := incB.Start.State, incA.End.State
			loads := []struct {
				name  string
				state []byte
			}{{"checkpoint state", stateB}, {"initial state", nil}}
			for _, l := range loads {
				got, err := c.f.Load(replica, 6, l.state)
				if err != nil {
					t.Fatalf("%s: %v", l.name, err)
				}
				want, err := c.f.Load(nil, 6, l.state)
				if err != nil {
					t.Fatalf("%s: %v", l.name, err)
				}
				if l.state == nil && !bytes.Equal(want.AppendState(nil), c.f.New(6).AppendState(nil)) {
					t.Fatalf("%s: Load of nil is not New", l.name)
				}
				if g, w := transcript(got, incB.Entries), transcript(want, incB.Entries); !bytes.Equal(g, w) {
					t.Errorf("%s: the reused replica's outputs and end state differ from a fresh load's", l.name)
				}
				replica = got
			}
			if _, err := c.f.Load(replica, 6, stateA[:len(stateA)-1]); err == nil {
				t.Fatal("a truncated state loaded")
			}
			got, err := c.f.Load(replica, 6, stateB)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := c.f.Load(nil, 6, stateB)
			if g, w := transcript(got, incB.Entries), transcript(want, incB.Entries); !bytes.Equal(g, w) {
				t.Error("after a failed load: the reused replica's outputs and end state differ from a fresh load's")
			}
		})
	}
}

// FuzzReplayMachineReuse drives a replica of one robot through
// arbitrary inputs and state loads, then loads a second robot's state
// into it: the load must fail exactly when a load into nothing fails,
// and otherwise yield that fresh controller's state and outputs.
func FuzzReplayMachineReuse(f *testing.F) {
	for i, c := range controllerFactories {
		boot, inc := segments(f, c.f, 3, i)
		f.Add(uint8(i), uint16(3), boot.End.State, []byte{0, 1, 5, 9, 2, 3, 1, 2, 7, 7, 4, 4}, uint16(6), inc.End.State)
		f.Add(uint8(i), uint16(6), inc.End.State[:len(inc.End.State)/2], []byte{1, 0, 0}, uint16(6), boot.End.State)
	}
	f.Fuzz(func(t *testing.T, which uint8, idA uint16, stateA, script []byte, idB uint16, stateB []byte) {
		fac := controllerFactories[int(which)%len(controllerFactories)].f
		inputs := scriptEntries(script)
		replica := fac.New(wire.RobotID(idA))
		if c, err := fac.Load(replica, wire.RobotID(idA), stateA); err == nil {
			transcript(c, inputs)
		} // else replica is what the failed load left, which only Load reads

		got, errGot := fac.Load(replica, wire.RobotID(idB), stateB)
		want, errWant := fac.Load(nil, wire.RobotID(idB), stateB)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("load into the replica: %v; into nothing: %v", errGot, errWant)
		}
		if errWant != nil {
			return
		}
		if g, w := transcript(got, inputs), transcript(want, inputs); !bytes.Equal(g, w) {
			t.Fatalf("the reused replica's outputs and end state differ from a fresh load's:\n%x\n%x", g, w)
		}
	})
}

// scriptEntries turns fuzz bytes into logged inputs, four bytes each:
// a sensor reading (even first byte) or a received payload — a peer's
// state, or the bytes themselves when the first byte's second bit is
// set. Time advances by the first byte's top bits.
func scriptEntries(b []byte) []wire.LogEntry {
	var out []wire.LogEntry
	var now wire.Tick
	for ; len(b) >= 4; b = b[4:] {
		now += wire.Tick(b[0] >> 5)
		x, y, v := float64(int8(b[1])), float64(int8(b[2])), float32(int8(b[3]))/8
		switch {
		case b[0]&1 == 0:
			r := wire.SensorReading{Time: now, PosX: x, PosY: y, VelX: v, VelY: -v}
			out = append(out, wire.LogEntry{Kind: wire.EntrySensor, Payload: r.Encode()})
		case b[0]&2 == 0:
			m := wire.StateMsg{Src: wire.RobotID(b[3] % 8), Time: now, PosX: float32(x), PosY: float32(y), VelX: v}
			f := wire.Frame{Src: m.Src, Dst: wire.Broadcast, Payload: m.Encode()}
			out = append(out, wire.LogEntry{Kind: wire.EntryRecv, Payload: f.Encode()})
		default:
			f := wire.Frame{Src: 1, Dst: wire.Broadcast, Payload: append([]byte(nil), b[:4]...)}
			out = append(out, wire.LogEntry{Kind: wire.EntryRecv, Payload: f.Encode()})
		}
	}
	return out
}

// TestControllerBytes pins every controller's audit contract, the
// bytes an auditor's replay compares. Robot 3 of each factory in
// controllerFactories drives itself through a scripted mission, its
// own commands integrated into its next reading, one reading per tick
// (so on and off its broadcast ticks). It hears robots 1, 2 and 4,
// some of them receding ahead of it, robot 1 parked in its lane for a
// while, robots 1 and 2 falling silent part-way (so an explorer adopts
// their strips, then idles); and a peer claiming its own ID, and a
// garbage payload. The digest covers every Outputs
// (command and broadcast bytes) and the state every 200 ticks and at
// the end. The digests were taken on amd64; architectures that fuse
// x*y+z compute other commands (ROADMAP item 5).
func TestControllerBytes(t *testing.T) {
	want := map[string]string{
		"flocking":  "5e6aab492d428fa4fc78eb9a2722d7d06da374efacf2ccc296470efdc4b32f28",
		"patrol":    "12875e7ffbb206ea67d16f702d386f658b0a2102cf91f7c7d1eec85216f1039e",
		"warehouse": "beeda19c2585b4dd960f190ab8c80ec09bdb356ddfb41d9ea436f012a86057e7",
		"explore":   "f035d4d58901b3031d088233821584d37822a3502d39cb695b3df82c2ab6f813",
	}
	for _, c := range controllerFactories {
		t.Run(c.name, func(t *testing.T) {
			const id = 3
			ctrl := c.f.New(id)
			h := sha256.New()
			var buf []byte
			pos, vel := geom.V(2, 18), geom.V(0.5, 0)
			for now := wire.Tick(0); now < 6000; now++ {
				var msg []byte
				switch src := []wire.RobotID{1, 2, 4}[now/5%3]; {
				case now%5 == 0 && (src == 4 || now < 400):
					k := now / 5 % 4
					off := []geom.Vec2{geom.V(5, 0), geom.V(0, 5), geom.V(8, 0), geom.V(3, 3)}[k]
					v := []geom.Vec2{geom.V(0.5, -0.25), geom.V(0, 1), geom.V(1.5, 0), geom.V(-1, 0.5)}[k]
					if now >= 100 && now < 160 && src == 1 {
						off, v = geom.V(6, 0), geom.Zero2 // parked just ahead, in the lane
					}
					m := wire.StateMsg{Src: src, Time: now, PosX: float32(pos.X + off.X), PosY: float32(pos.Y + off.Y),
						VelX: float32(v.X), VelY: float32(v.Y)}
					msg = m.Encode()
				case now == 37:
					m := wire.StateMsg{Src: id, Time: now, PosX: float32(pos.X), PosY: float32(pos.Y)}
					msg = m.Encode()
				case now == 41:
					msg = []byte{0xDE, 0xAD, 0xBE, 0xEF}
				}
				if msg != nil {
					ctrl.OnMessage(msg)
				}
				o := ctrl.OnSensor(wire.SensorReading{Time: now,
					PosX: pos.X, PosY: pos.Y, VelX: float32(vel.X), VelY: float32(vel.Y)})
				buf = append(buf[:0], byte(len(o.Broadcast)))
				buf = append(buf, o.Broadcast...)
				if o.HasCmd {
					buf = o.Cmd.AppendEncode(buf)
				}
				if now%200 == 199 {
					buf = ctrl.AppendState(buf)
				}
				h.Write(buf)
				vel = vel.Add(geom.V(o.Cmd.AccX, o.Cmd.AccY).Scale(0.25))
				pos = pos.Add(vel.Scale(0.25))
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[c.name] {
				t.Errorf("digest %s, want %s", got, want[c.name])
			}
		})
	}
}
