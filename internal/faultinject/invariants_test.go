package faultinject

import (
	"errors"
	"strings"
	"testing"

	"roborebound/internal/obs"
	"roborebound/internal/radio"
	"roborebound/internal/wire"
)

// healthy returns a snapshot of a well-behaved protected robot whose
// covered-round count advances with time.
func healthy(id wire.RobotID, now wire.Tick) RobotSnapshot {
	return RobotSnapshot{
		ID:        id,
		Protected: true,
		Counters: radio.ByteCounters{
			TxApp: uint64(now) * 10, RxApp: uint64(now) * 20,
			TxFrames: uint64(now), RxFrames: uint64(now) * 2,
		},
		RoundsCovered: uint64(now / 16),
	}
}

func runTicks(c *Checker, upTo wire.Tick, snap func(id wire.RobotID, now wire.Tick) RobotSnapshot) *Violation {
	for now := wire.Tick(1); now <= upTo; now++ {
		snaps := []RobotSnapshot{snap(1, now), snap(2, now), snap(3, now)}
		if v := c.Check(now, snaps); v != nil {
			return v
		}
	}
	return nil
}

func TestCheckerCleanRun(t *testing.T) {
	c := NewChecker(40, 16, nil)
	if v := runTicks(c, 400, healthy); v != nil {
		t.Fatalf("clean run reported %v", v)
	}
}

func TestCheckerNoFalsePositive(t *testing.T) {
	sched := &Schedule{Faults: []Fault{{Kind: Partition, Start: 95, Duration: 10, Targets: []wire.RobotID{2}}}}
	c := NewChecker(40, 16, sched)
	v := runTicks(c, 200, func(id wire.RobotID, now wire.Tick) RobotSnapshot {
		s := healthy(id, now)
		if id == 2 && now >= 100 {
			s.InSafeMode = true
		}
		return s
	})
	if v == nil || v.Invariant != "no-false-positive" {
		t.Fatalf("got %v, want no-false-positive", v)
	}
	if v.Tick != 100 || v.Robot != 2 {
		t.Errorf("violation at tick %d robot %d, want 100/2", v.Tick, v.Robot)
	}
	if len(v.ActiveFaults) != 1 || !strings.Contains(v.ActiveFaults[0], "partition") {
		t.Errorf("missing fault context: %v", v.ActiveFaults)
	}
	if !strings.Contains(v.Error(), "tick 100") || !strings.Contains(v.Error(), "robot 2") {
		t.Errorf("Error() lacks context: %s", v.Error())
	}
}

func TestCheckerCompromisedMayEnterSafeMode(t *testing.T) {
	c := NewChecker(40, 16, nil)
	v := runTicks(c, 200, func(id wire.RobotID, now wire.Tick) RobotSnapshot {
		s := healthy(id, now)
		if id == 2 {
			s.Compromised = true
			s.Misbehaved = true
			s.MisbehavedAt = 80
			s.InSafeMode = now >= 100
		}
		return s
	})
	if v != nil {
		t.Fatalf("Safe-Moding an attacker reported %v", v)
	}
}

func TestCheckerBTIDeadline(t *testing.T) {
	c := NewChecker(40, 16, nil)
	v := runTicks(c, 300, func(id wire.RobotID, now wire.Tick) RobotSnapshot {
		s := healthy(id, now)
		if id == 3 {
			s.Compromised = true
			s.Misbehaved = true
			s.MisbehavedAt = 100
			// Never Safe-Modes: BTI must fire at 100+40+16+1.
		}
		return s
	})
	if v == nil || v.Invariant != "bti" {
		t.Fatalf("got %v, want bti", v)
	}
	if v.Tick != 157 || v.Robot != 3 {
		t.Errorf("bti fired at tick %d robot %d, want 157/3", v.Tick, v.Robot)
	}
}

func TestCheckerCrashSilentGetsBTIClock(t *testing.T) {
	c := NewChecker(40, 16, nil)
	v := runTicks(c, 300, func(id wire.RobotID, now wire.Tick) RobotSnapshot {
		s := healthy(id, now)
		if id == 1 {
			s.Compromised = true
			s.CrashFaulted = true
			s.Misbehaved = true
			s.MisbehavedAt = 100
		}
		return s
	})
	if v == nil || v.Invariant != "bti" || !strings.Contains(v.Detail, "crash-silent") {
		t.Fatalf("got %v, want crash-silent bti", v)
	}
}

func TestCheckerCounterMonotonicity(t *testing.T) {
	c := NewChecker(40, 16, nil)
	v := runTicks(c, 100, func(id wire.RobotID, now wire.Tick) RobotSnapshot {
		s := healthy(id, now)
		if id == 2 && now >= 50 {
			s.Counters.TxApp = 1 // went backwards
		}
		return s
	})
	if v == nil || v.Invariant != "conservation-radio" || v.Robot != 2 {
		t.Fatalf("got %v, want conservation-radio on robot 2", v)
	}
}

func TestCheckerGlobalConservation(t *testing.T) {
	c := NewChecker(40, 16, nil)
	v := runTicks(c, 100, func(id wire.RobotID, now wire.Tick) RobotSnapshot {
		s := healthy(id, now)
		// Receive far more than (n-1) x what anyone transmitted.
		s.Counters.RxApp = uint64(now) * 1000
		return s
	})
	if v == nil || v.Invariant != "conservation-radio" || v.Robot != wire.Broadcast {
		t.Fatalf("got %v, want global conservation-radio", v)
	}
}

func TestCheckerLogAccounting(t *testing.T) {
	c := NewChecker(40, 16, nil)
	v := runTicks(c, 100, func(id wire.RobotID, now wire.Tick) RobotSnapshot {
		s := healthy(id, now)
		if id == 1 && now >= 10 {
			s.LogAccounting = errors.New("entryBytes drifted")
		}
		return s
	})
	if v == nil || v.Invariant != "conservation-log" || v.Tick != 10 {
		t.Fatalf("got %v, want conservation-log at tick 10", v)
	}
}

func TestCheckerAuditLiveness(t *testing.T) {
	c := NewChecker(40, 16, nil)
	v := runTicks(c, 400, func(id wire.RobotID, now wire.Tick) RobotSnapshot {
		s := healthy(id, now)
		if id == 2 {
			s.RoundsCovered = 3 // stuck forever after round 3
		}
		return s
	})
	if v == nil || v.Invariant != "audit-liveness" || v.Robot != 2 {
		t.Fatalf("got %v, want audit-liveness on robot 2", v)
	}
}

func TestCheckerLivenessWaitsForQuietEnv(t *testing.T) {
	// A fault active until tick 300 defers the liveness deadline: at
	// tick 300+TVal+2*TAudit the clock has barely restarted.
	sched := &Schedule{Faults: []Fault{{Kind: LossBurst, Start: 60, Duration: 241, Rate: 0.9}}}
	c := NewChecker(40, 16, sched)
	var firstViolation wire.Tick
	for now := wire.Tick(1); now <= 500; now++ {
		s := healthy(2, now)
		s.RoundsCovered = 3
		if v := c.Check(now, []RobotSnapshot{s}); v != nil {
			firstViolation = v.Tick
			break
		}
	}
	if firstViolation == 0 {
		t.Fatal("liveness never fired")
	}
	// Env quiet from tick 300; deadline = 300 + TVal + 2*TAudit + 1.
	if want := wire.Tick(300 + 40 + 32 + 1); firstViolation != want {
		t.Errorf("liveness fired at %d, want %d (after the fault clears)", firstViolation, want)
	}
}

func TestCheckerLatchesFirstViolation(t *testing.T) {
	c := NewChecker(40, 16, nil)
	bad := RobotSnapshot{ID: 1, Protected: true, InSafeMode: true}
	v1 := c.Check(10, []RobotSnapshot{bad})
	worse := bad
	worse.LogAccounting = errors.New("also broken")
	v2 := c.Check(11, []RobotSnapshot{worse})
	if v1 == nil || v2 != v1 {
		t.Fatal("checker must latch the first violation")
	}
	if got := c.Violation(); got != v1 || got.Tick != 10 {
		t.Errorf("Violation() = %v", got)
	}
}

// TestCheckerExplainHook: the hook is asked once, at the latch, with
// the violation's invariant, tick and robot already set and before the
// in-stream marker is emitted; its events ride along, its error lands
// in Detail (and so in the marker), and a system-wide violation never
// asks it.
func TestCheckerExplainHook(t *testing.T) {
	dump := []obs.Event{{Tick: 9, Robot: 1, Kind: obs.EvTokenGranted, Peer: 2}}
	col := obs.NewCollector()
	var asked []Violation
	c := NewChecker(40, 16, nil)
	c.Trace = col
	c.Explain = func(v *Violation) ([]obs.Event, error) {
		asked = append(asked, *v)
		if col.Len() != 0 {
			t.Error("Explain ran after the violation marker was emitted")
		}
		return dump, errors.New("re-run latched elsewhere")
	}
	bad := RobotSnapshot{ID: 1, Protected: true, InSafeMode: true}
	c.Check(10, []RobotSnapshot{bad})
	v := c.Check(11, []RobotSnapshot{bad})
	if len(asked) != 1 || asked[0].Invariant != "no-false-positive" || asked[0].Tick != 10 || asked[0].Robot != 1 {
		t.Fatalf("Explain asked %+v, want once for no-false-positive at tick 10 robot 1", asked)
	}
	if len(v.Events) != 1 || v.Events[0] != dump[0] {
		t.Errorf("Events = %v, want the hook's dump", v.Events)
	}
	if !strings.HasSuffix(v.Detail, "[no event history: re-run latched elsewhere]") {
		t.Errorf("Detail %q hides the hook's error", v.Detail)
	}
	if ev := col.Events(); len(ev) != 1 || !strings.Contains(ev[0].Detail, "re-run latched elsewhere") {
		t.Errorf("violation marker %v lacks the hook's error", ev)
	}

	global := NewChecker(40, 16, nil)
	global.Explain = func(*Violation) ([]obs.Event, error) {
		t.Error("Explain asked for a system-wide violation")
		return nil, nil
	}
	v = runTicks(global, 100, func(id wire.RobotID, now wire.Tick) RobotSnapshot {
		s := healthy(id, now)
		s.Counters.RxApp = uint64(now) * 1000
		return s
	})
	if v == nil || v.Robot != wire.Broadcast || v.Events != nil {
		t.Fatalf("got %v, want a global violation with no events", v)
	}
}
