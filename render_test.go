package roborebound

import (
	"strings"
	"testing"

	"roborebound/internal/geom"
)

func TestRenderAttackPanels(t *testing.T) {
	cfg := DefaultAttackRun()
	cfg.N = 9
	cfg.DurationSec = 40
	cfg.Protected = true
	res := RunAttack(cfg)

	trace := RenderAttackTrace("trace", res)
	if !strings.Contains(trace, "<svg") || !strings.Contains(trace, "<path") {
		t.Error("trace SVG malformed")
	}
	if !strings.Contains(trace, "#fed7d7") {
		t.Error("attack window not shaded")
	}

	final := RenderAttackFinal("final", cfg, res)
	if !strings.Contains(final, "<svg") {
		t.Error("final SVG malformed")
	}
	// 8 correct robots + keep-out ring.
	if got := strings.Count(final, "<circle"); got != 9 {
		t.Errorf("expected 9 circles (8 robots + ring), got %d", got)
	}
}

func TestRenderFig2Panel(t *testing.T) {
	// At (220, 220) Fig. 2's obstacle grid sits clear of the start grid.
	cfg := Fig2Config{N: 9, NumCompromised: 1, SpacingM: 10,
		GoalX: 220, GoalY: 220, DurationSec: 20, Seed: 1}
	res := RunFig2(cfg, true)
	svg := RenderFig2Final("fig2", cfg, res, nil)
	if !strings.Contains(svg, "<svg") {
		t.Error("fig2 SVG malformed")
	}
	if got := strings.Count(svg, "<circle"); got != 8 {
		t.Errorf("expected 8 correct-robot circles, got %d", got)
	}
}

func TestSnapshotSimMarkers(t *testing.T) {
	s := attackScenario(true, false).Build()
	s.RunSeconds(40) // attacker disabled by now
	goal := geom.V(220, 220)
	svg := s.SnapshotSim("snapshot", &goal)
	if !strings.Contains(svg, "<svg") {
		t.Fatal("snapshot malformed")
	}
	// The disabled attacker gets the gray marker.
	if !strings.Contains(svg, `fill="#718096"`) {
		t.Error("disabled marker missing")
	}
	// Correct robots get the default blue.
	if !strings.Contains(svg, `fill="#2b6cb0"`) {
		t.Error("correct marker missing")
	}
}

func TestRobotLabel(t *testing.T) {
	cases := map[uint16]string{0: "r0", 7: "r7", 42: "r42", 1234: "r1234"}
	for in, want := range cases {
		if got := robotLabel(wireRobotID(in)); got != want {
			t.Errorf("robotLabel(%d) = %q, want %q", in, got, want)
		}
	}
}
