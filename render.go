package roborebound

import (
	"roborebound/internal/geom"
	"roborebound/internal/viz"
	"roborebound/internal/wire"
)

// SVG rendering of experiment results — the reproduction's versions of
// the paper's figure panels. Callers (the CLI's -svg flag) write the
// returned documents to disk.

// RenderAttackTrace renders the Fig. 8b/8d/9a panel: every correct
// robot's distance-to-goal trace with the attack-active window shaded.
func RenderAttackTrace(title string, res AttackRunResult) string {
	series := make(map[string][]float64, len(res.DistSeries))
	//rebound:nondet map-to-map rekey with distinct keys (one per robot); the renderer sorts labels before drawing
	for id, ys := range res.DistSeries {
		series[robotLabel(id)] = ys
	}
	return viz.RenderLinePlot(viz.LinePlot{
		Title:   title,
		XLabel:  "time (s)",
		YLabel:  "distance to goal (m)",
		X:       res.SampleTimesSec,
		Series:  series,
		ShadeX0: res.AttackActiveSec[0],
		ShadeX1: res.AttackActiveSec[1],
	})
}

// RenderAttackFinal renders the Fig. 8c/8e/9b panel: final positions
// with the goal and the attack's keep-out ring.
func RenderAttackFinal(title string, cfg AttackRunConfig, res AttackRunResult) string {
	goal := geom.V(cfg.GoalX, cfg.GoalY)
	robots := make(map[wire.RobotID]geom.Vec2, len(res.FinalPositions))
	//rebound:nondet map-to-map rekey with distinct keys (one per robot); the renderer iterates IDs in sorted order
	for id, p := range res.FinalPositions {
		robots[id] = geom.V(p[0], p[1])
	}
	keepOut := 0.0
	if !cfg.DisableAttack {
		keepOut = cfg.Z
	}
	return viz.RenderSnapshot(viz.Snapshot{
		Title:         title,
		Robots:        robots,
		Goal:          &goal,
		KeepOutRadius: keepOut,
	})
}

// RenderFig2Final renders a Fig. 2a/2b-style snapshot from a Fig. 2
// run.
func RenderFig2Final(title string, cfg Fig2Config, res Fig2Result, obstacles []geom.SphereObstacle) string {
	goal := geom.V(cfg.GoalX, cfg.GoalY)
	robots := make(map[wire.RobotID]geom.Vec2, len(res.FinalPositions))
	//rebound:nondet map-to-map rekey with distinct keys (one per robot); the renderer iterates IDs in sorted order
	for id, p := range res.FinalPositions {
		robots[id] = geom.V(p[0], p[1])
	}
	return viz.RenderSnapshot(viz.Snapshot{
		Title:     title,
		Robots:    robots,
		Goal:      &goal,
		Obstacles: obstacles,
	})
}

// SnapshotSim renders the live state of a simulation (markers reflect
// compromised/disabled/crashed status). Useful from examples and
// debugging sessions.
func (s *Sim) SnapshotSim(title string, goal *geom.Vec2) string {
	robots := make(map[wire.RobotID]geom.Vec2)
	markers := make(map[wire.RobotID]viz.Marker)
	for _, id := range s.IDs() {
		pos, ok := s.World.Position(id)
		if !ok {
			continue
		}
		robots[id] = pos
		switch {
		case s.World.Body(id).Crashed:
			markers[id] = viz.MarkerCrashed
		case s.robots[id].InSafeMode():
			markers[id] = viz.MarkerDisabled
		case s.Compromised(id) != nil:
			markers[id] = viz.MarkerCompromised
		}
	}
	return viz.RenderSnapshot(viz.Snapshot{
		Title:     title,
		Robots:    robots,
		Markers:   markers,
		Goal:      goal,
		Obstacles: s.Cfg.World.Obstacles,
	})
}

func robotLabel(id wire.RobotID) string {
	const digits = "0123456789"
	if id == 0 {
		return "r0"
	}
	var buf [8]byte
	i := len(buf)
	for v := int(id); v > 0; v /= 10 {
		i--
		buf[i] = digits[v%10]
	}
	return "r" + string(buf[i:])
}
