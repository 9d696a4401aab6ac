package roborebound

import (
	"math"
	"testing"

	"roborebound/internal/geom"
)

func TestGridPositions(t *testing.T) {
	pos := GridPositions(9, 4, geom.V(10, 10))
	if len(pos) != 9 {
		t.Fatalf("got %d positions", len(pos))
	}
	if pos[0] != geom.V(10, 10) {
		t.Errorf("origin wrong: %v", pos[0])
	}
	if pos[1] != geom.V(14, 10) || pos[3] != geom.V(10, 14) {
		t.Errorf("grid layout wrong: %v %v", pos[1], pos[3])
	}
	// Non-square counts still place everyone with correct spacing.
	pos = GridPositions(5, 2, geom.Zero2)
	if len(pos) != 5 {
		t.Fatalf("got %d positions", len(pos))
	}
	for i := 0; i < len(pos); i++ {
		for j := i + 1; j < len(pos); j++ {
			if pos[i].Dist(pos[j]) < 2-1e-9 {
				t.Errorf("positions %d and %d closer than spacing", i, j)
			}
		}
	}
}

func TestFlockScenarioFmaxSemantics(t *testing.T) {
	base := FlockScenario{N: 4, Spacing: 4, Goal: geom.V(50, 50), Protected: true}
	if got := base.Build().Cfg.Core.Fmax; got != 3 {
		t.Errorf("default Fmax = %d, want 3", got)
	}
	base.Fmax = 1
	if got := base.Build().Cfg.Core.Fmax; got != 1 {
		t.Errorf("Fmax = %d, want 1", got)
	}
	base.Fmax = -1
	if got := base.Build().Cfg.Core.Fmax; got != 0 {
		t.Errorf("Fmax = %d, want explicit 0", got)
	}
}

func TestFlockScenarioAuditPeriodOverride(t *testing.T) {
	fs := FlockScenario{N: 4, Spacing: 4, Protected: true, AuditPeriodSeconds: 8}
	s := fs.Build()
	if got := s.Cfg.Core.TAudit; got != 32 { // 8 s × 4 ticks/s
		t.Errorf("TAudit = %d ticks, want 32", got)
	}
}

func TestFlockScenarioJitterDeterministic(t *testing.T) {
	build := func() geom.Vec2 {
		s := FlockScenario{N: 4, Spacing: 4, Seed: 9, JitterM: 2}.Build()
		p, _ := s.World.Position(1)
		return p
	}
	if build() != build() {
		t.Error("jitter not deterministic per seed")
	}
	s := FlockScenario{N: 4, Spacing: 4, Seed: 9, JitterM: 2}.Build()
	p, _ := s.World.Position(1)
	if p == geom.Zero2 {
		t.Error("jitter did not move robot 1 off the grid origin")
	}
	if p.Norm() > 2*math.Sqrt2+1e-9 {
		t.Errorf("jitter exceeded bound: %v", p)
	}
}

func TestSimIDsAndCorrectIDs(t *testing.T) {
	fs := attackScenario(true, false)
	s := fs.Build()
	if len(s.IDs()) != 9 {
		t.Fatalf("IDs = %v", s.IDs())
	}
	correct := s.CorrectIDs()
	if len(correct) != 8 {
		t.Fatalf("CorrectIDs = %v", correct)
	}
	for _, id := range correct {
		if id == 3 { // the compromised slot
			t.Error("compromised robot listed as correct")
		}
	}
	if s.Compromised(3) == nil || s.Robot(3) == nil {
		t.Error("compromised robot not addressable")
	}
	// A cell lists its IDs several times; the list is its one allocation.
	if got := testing.AllocsPerRun(10, func() { s.IDs() }); got != 1 {
		t.Errorf("IDs makes %v allocations, want 1", got)
	}
}

func TestTickSecondsRoundTrip(t *testing.T) {
	s := NewSim(SimConfig{})
	if s.Tick(2.5) != 10 {
		t.Errorf("Tick(2.5s) = %d, want 10", s.Tick(2.5))
	}
	if s.Seconds(10) != 2.5 {
		t.Errorf("Seconds(10) = %v", s.Seconds(10))
	}
}

func TestMaxSpeedOverride(t *testing.T) {
	fs := FlockScenario{N: 4, Spacing: 4, MaxSpeedMS: 3}
	s := fs.Build()
	s.RunSeconds(30)
	for _, b := range s.World.Bodies() {
		if b.Vel.Norm() > 3+1e-9 {
			t.Errorf("robot %d exceeds speed cap: %v", b.ID, b.Vel.Norm())
		}
	}
}
