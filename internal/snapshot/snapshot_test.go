package snapshot

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"testing"

	"roborebound/internal/attack"
	"roborebound/internal/control"
	"roborebound/internal/faultinject"
	"roborebound/internal/geom"
	"roborebound/internal/radio"
	"roborebound/internal/robot"
	"roborebound/internal/sim"
	"roborebound/internal/wire"
)

// buildTestRun assembles a minimal deterministic run: three
// unprotected patrol robots (one wrapped as compromised-silent) on a
// lossy medium, with an invariant checker attached. Identical calls
// build byte-identical runs — the premise every test here leans on.
func buildTestRun() *Run {
	wcfg := sim.DefaultWorldConfig()
	world := sim.NewWorld(wcfg)
	medium := radio.NewMedium(radio.DefaultParams(), world.Position, 42)
	medium.SetLossModel(radio.UniformLoss{Rate: 0.05})
	engine := sim.NewEngine(world, medium)

	route := []geom.Vec2{geom.V(0, 0), geom.V(30, 0), geom.V(30, 30), geom.V(0, 30)}
	factory := control.PatrolFactory{Params: control.DefaultPatrolParams(route)}

	run := &Run{
		Engine:  engine,
		World:   world,
		Medium:  medium,
		Checker: faultinject.NewChecker(40, 16, nil),
	}
	for i := 0; i < 3; i++ {
		id := wire.RobotID(i + 1)
		body := world.AddBody(id, route[i])
		r := robot.New(robot.Config{ID: id, Factory: factory}, body, medium, engine.Now)
		e := RobotEntry{ID: id, Rob: r}
		if i == 2 {
			c := attack.NewCompromised(r, 8, attack.Silent{}, false)
			e.Comp = c
			engine.AddActor(c)
		} else {
			engine.AddActor(r)
		}
		run.Robots = append(run.Robots, e)
	}
	return run
}

func stepChecked(run *Run, n int) {
	for i := 0; i < n; i++ {
		run.Engine.StepOnce()
		var snaps []faultinject.RobotSnapshot
		for _, e := range run.Robots {
			snaps = append(snaps, faultinject.RobotSnapshot{
				ID: e.ID, Counters: *run.Medium.Counters(e.ID),
			})
		}
		run.Checker.Check(run.Engine.Now()-1, snaps)
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	a := buildTestRun()
	stepChecked(a, 20)
	echo := []byte("test-config-echo")
	snapA := Capture(a, echo)

	dec, err := Decode(snapA)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !bytes.Equal(dec.ConfigEcho, echo) {
		t.Fatalf("config echo corrupted: %q", dec.ConfigEcho)
	}
	if dec.Tick != 20 {
		t.Fatalf("snapshot tick = %d, want 20", dec.Tick)
	}
	if len(dec.Robots) != 3 || !dec.Robots[2].Compromised || dec.Robots[0].Compromised {
		t.Fatalf("roster decoded wrong: %+v", dec.Robots)
	}

	// Restore onto a structurally identical rebuild, then re-capture:
	// the bytes must be identical (double-encode stability).
	b := buildTestRun()
	if err := Apply(b, dec); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if b.Engine.Now() != 20 {
		t.Fatalf("restored engine clock = %d, want 20", b.Engine.Now())
	}
	snapB := Capture(b, echo)
	if !bytes.Equal(snapA, snapB) {
		t.Fatalf("re-captured snapshot differs from the original (%d vs %d bytes)", len(snapB), len(snapA))
	}

	// And the restored run must evolve identically to the original.
	stepChecked(a, 30)
	stepChecked(b, 30)
	for i, e := range a.Robots {
		ba, bb := e.Rob.Body(), b.Robots[i].Rob.Body()
		if ba.Pos != bb.Pos || ba.Vel != bb.Vel {
			t.Fatalf("robot %d diverged after resume: %+v vs %+v", e.ID, ba, bb)
		}
	}
	finalA := Capture(a, echo)
	finalB := Capture(b, echo)
	if !bytes.Equal(finalA, finalB) {
		t.Fatal("resumed run's final state differs from the uninterrupted run")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	run := buildTestRun()
	stepChecked(run, 10)
	valid := Capture(run, []byte("echo"))
	if _, err := Decode(valid); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}

	// Every truncation must error (the integrity trailer no longer
	// matches, or the envelope is too short to hold one).
	for n := 0; n < len(valid); n += 1 + n/7 {
		if _, err := Decode(valid[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}

	// Any bit flip must error via the integrity hash.
	for _, off := range []int{0, 4, 5, 7, len(valid) / 2, len(valid) - 33, len(valid) - 1} {
		mut := append([]byte(nil), valid...)
		mut[off] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at offset %d accepted", off)
		}
	}

	// Tampering past the integrity check (hash recomputed) must still
	// be caught by the structural validation.
	tamper := func(mutate func([]byte)) []byte {
		body := append([]byte(nil), valid[:len(valid)-32]...)
		mutate(body)
		sum := shaSum(body)
		return append(body, sum...)
	}
	if _, err := Decode(tamper(func(b []byte) { b[0] = 'X' })); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Decode(tamper(func(b []byte) { b[4], b[5] = 0xFF, 0xFF })); err == nil {
		t.Fatal("unknown version accepted")
	}
	// Version 1 carried a chain-implementation byte and a reference-plane
	// echo byte that no longer exist; it is refused, not migrated.
	_, err := Decode(tamper(func(b []byte) { b[4], b[5] = 0, 1 }))
	if err == nil || !strings.Contains(err.Error(), "snapshot: version 1 not supported") {
		t.Fatalf("version-1 envelope: got %v, want version 1 not supported", err)
	}
}

func shaSum(b []byte) []byte {
	s := sha256.Sum256(b)
	return s[:]
}

func TestApplyRejectsMismatchedRun(t *testing.T) {
	run := buildTestRun()
	stepChecked(run, 10)
	snap := Capture(run, nil)
	dec, err := Decode(snap)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	short := buildTestRun()
	short.Robots = short.Robots[:2]
	if err := Apply(short, dec); err == nil {
		t.Fatal("roster size mismatch accepted")
	}

	wrongKind := buildTestRun()
	wrongKind.Robots[2].Comp = nil
	if err := Apply(wrongKind, dec); err == nil {
		t.Fatal("compromised-kind mismatch accepted")
	}

	noChecker := buildTestRun()
	noChecker.Checker = nil
	if err := Apply(noChecker, dec); err == nil {
		t.Fatal("checker-presence mismatch accepted")
	}
}
