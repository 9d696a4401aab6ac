// Package sim provides the discrete-time simulation substrate: a
// physics world of double-integrator robots (the paper's wheeled
// robots with per-axis acceleration caps, §4), and a deterministic
// engine that advances actors, the radio medium, and physics in a
// fixed order so that every run is a pure function of (scenario, seed).
package sim

import (
	"math"
	"slices"
	"sort"

	"roborebound/internal/geom"
	"roborebound/internal/geom/spatial"
	"roborebound/internal/obs/perf"
	"roborebound/internal/wire"
)

// WorldConfig parameterizes the physics.
type WorldConfig struct {
	// TicksPerSecond sets the integration step dt = 1/TicksPerSecond.
	// The paper's control period of 0.25 s corresponds to 4 ticks/s.
	TicksPerSecond float64
	// AccelCap is the per-axis acceleration saturation applied by the
	// motors themselves (5 m/s², §4) — a defense-independent physical
	// limit, so even a compromised controller cannot exceed it.
	AccelCap float64
	// MaxSpeed optionally caps speed (Ocado's robots do 8 m/s; 0
	// disables the cap).
	MaxSpeed float64
	// BrakeDecel is the deceleration applied when a robot is disabled
	// (Safe Mode disconnects the motors; friction/brakes stop it).
	BrakeDecel float64
	// CrashRadius is the robot-robot collision distance; 0 disables
	// robot-robot crash detection.
	CrashRadius float64
	// Obstacles are solid discs; entering one is a crash.
	Obstacles []geom.SphereObstacle
	// Deprecated: ignored; the grid is the only path. Kept only because
	// benchmark/ still assigns it; removed with those assignments
	// (ROADMAP item 2, PR A).
	SpatialIndex bool
}

// DefaultWorldConfig returns the paper-matched physics at 4 ticks/s.
func DefaultWorldConfig() WorldConfig {
	return WorldConfig{
		TicksPerSecond: 4,
		AccelCap:       5,
		MaxSpeed:       8,
		BrakeDecel:     2.5,
		CrashRadius:    0.5,
	}
}

// Body is one robot's physical state.
type Body struct {
	ID  wire.RobotID
	Pos geom.Vec2
	Vel geom.Vec2
	Acc geom.Vec2 // commanded acceleration, held until re-commanded

	// Disabled marks Safe Mode: the actuator path is cut, so the
	// commanded acceleration is ignored and brakes engage.
	Disabled bool
	// Crashed marks a collision; the robot stops permanently.
	Crashed bool
}

// CrashEvent records a collision for the metrics layer.
type CrashEvent struct {
	Time wire.Tick
	A, B wire.RobotID // B == A for an obstacle crash
}

// World simulates all robot bodies.
type World struct {
	cfg    WorldConfig            //rebound:snapshot-skip immutable config, supplied at rebuild
	bodies []*Body                // sorted by ID
	index  map[wire.RobotID]*Body //rebound:snapshot-skip rebuilt from bodies on restore
	// chunk is where AddBody carves new bodies from (see there).
	chunk []Body //rebound:snapshot-skip body storage, the bodies are snapshotted through bodies

	crashes []CrashEvent

	// Spatial-index state. The body grid is rebuilt each detectCrashes
	// (bodies move every tick); its backing arrays amortize to zero
	// allocations.
	grid    spatial.Grid //rebound:snapshot-skip rebuilt from bodies every detectCrashes
	pairBuf [][2]int32   //rebound:snapshot-skip per-tick scratch

	perf *perf.PhaseTimer //rebound:snapshot-skip observation-only wall-clock plane, reattached at rebuild
}

// SetPerf attaches the wall-clock phase timer (nil = disabled); the
// world times its per-tick spatial-grid rebuild with it.
func (w *World) SetPerf(t *perf.PhaseTimer) { w.perf = t }

// NewWorld creates an empty world.
func NewWorld(cfg WorldConfig) *World {
	return &World{cfg: cfg, index: make(map[wire.RobotID]*Body)}
}

// AddBody places a robot. Panics on duplicate IDs (a scenario bug).
func (w *World) AddBody(id wire.RobotID, pos geom.Vec2) *Body {
	if _, dup := w.index[id]; dup {
		panic("sim: duplicate body ID")
	}
	// Bodies are carved from chunks that double up to 64 bodies and are
	// never regrown, so a body keeps its address (robots and the index
	// hold it) and a swarm's bodies cost a handful of allocations.
	if len(w.chunk) == cap(w.chunk) {
		w.chunk = make([]Body, 0, min(max(2*cap(w.chunk), 4), 64))
	}
	w.chunk = append(w.chunk, Body{ID: id, Pos: pos})
	b := &w.chunk[len(w.chunk)-1]
	w.index[id] = b
	i := sort.Search(len(w.bodies), func(i int) bool { return w.bodies[i].ID >= id })
	w.bodies = append(w.bodies, nil)
	copy(w.bodies[i+1:], w.bodies[i:])
	w.bodies[i] = b
	return b
}

// Body returns the body for id, or nil.
func (w *World) Body(id wire.RobotID) *Body { return w.index[id] }

// Bodies returns the bodies in ID order (do not mutate the slice).
func (w *World) Bodies() []*Body { return w.bodies }

// Position implements radio.Position.
func (w *World) Position(id wire.RobotID) (geom.Vec2, bool) {
	b := w.index[id]
	if b == nil {
		return geom.Vec2{}, false
	}
	return b.Pos, true
}

// Crashes returns all collision events so far.
func (w *World) Crashes() []CrashEvent { return w.crashes }

// Step integrates one tick of physics (semi-implicit Euler) and then
// runs crash detection.
func (w *World) Step(now wire.Tick) {
	dt := 1 / w.cfg.TicksPerSecond
	for _, b := range w.bodies {
		if b.Crashed {
			b.Vel = geom.Zero2
			continue
		}
		if b.Disabled {
			// Motors cut: decelerate at BrakeDecel until stopped.
			speed := b.Vel.Norm()
			drop := w.cfg.BrakeDecel * dt
			if speed <= drop {
				b.Vel = geom.Zero2
			} else {
				b.Vel = b.Vel.Scale((speed - drop) / speed)
			}
		} else {
			acc := b.Acc
			if !acc.IsFinite() {
				acc = geom.Zero2 // reject garbage commands physically
			}
			acc = acc.ClampAxes(w.cfg.AccelCap)
			b.Vel = b.Vel.Add(acc.Scale(dt))
			if w.cfg.MaxSpeed > 0 {
				b.Vel = b.Vel.ClampNorm(w.cfg.MaxSpeed)
			}
		}
		b.Pos = b.Pos.Add(b.Vel.Scale(dt))
	}
	w.detectCrashes(now)
}

func (w *World) crash(now wire.Tick, a, b *Body) {
	if !a.Crashed {
		a.Crashed = true
		a.Vel = geom.Zero2
	}
	if !b.Crashed {
		b.Crashed = true
		b.Vel = geom.Zero2
	}
	w.crashes = append(w.crashes, CrashEvent{Time: now, A: a.ID, B: b.ID})
}

func (w *World) detectCrashes(now wire.Tick) {
	w.detectObstacleCrashes(now)
	// A zero, negative or NaN radius crashes no pair: DistSq < r² is
	// false for every distance.
	if !(w.cfg.CrashRadius > 0) {
		return
	}
	w.detectPairCrashes(now)
}

// detectObstacleCrashes marks bodies inside any obstacle. Fig. 2 has
// nine, so a linear scan is the whole index.
func (w *World) detectObstacleCrashes(now wire.Tick) {
	for _, b := range w.bodies {
		if b.Crashed {
			continue
		}
		for _, o := range w.cfg.Obstacles {
			if o.Contains(b.Pos) {
				w.crash(now, b, b)
				break
			}
		}
	}
}

// detectPairCrashes finds robot-robot collisions the way an all-pairs
// scan in (i, j>i) order would, from the grid's candidates. Bodies are
// indexed by slice position (= ID order); NearPairs returns a superset
// of every pair with DistSq < r² (the cell size is 4·CrashRadius, so
// its 2·maxDist ≤ cell precondition holds with double margin, and
// bodies at non-finite positions — which no scan crashes either, their
// DistSq being NaN or +Inf — are rightly absent). Sorting the
// candidates lexicographically and then applying the all-pairs scan's
// own tests in order reproduces its exact crash() call sequence:
// positions don't change during detection, so the `< r2` outcomes are
// order-free, and the state the `a.Crashed && b.Crashed` skip reads is
// mutated by the same prefix of crash calls at every step.
func (w *World) detectPairCrashes(now wire.Tick) {
	r2 := w.cfg.CrashRadius * w.cfg.CrashRadius
	// Cells a few crash radii wide keep the ±1-ring query box to a
	// handful of cells while staying far smaller than the swarm
	// footprint. A radius too large to cell by makes every pair a
	// candidate (NearPairs' linear form on an infinite reach) and the
	// cell size moot; Reset only needs it finite.
	cell, reach := 4*w.cfg.CrashRadius, w.cfg.CrashRadius
	if math.IsInf(cell, 1) {
		cell, reach = 1, math.Inf(1)
	}
	ps := w.perf.Start()
	w.grid.Reset(cell)
	w.grid.Grow(len(w.bodies))
	for i, b := range w.bodies {
		w.grid.Add(int32(i), b.Pos)
	}
	w.grid.Build()
	w.perf.End(perf.PhaseSpatialBuild, ps)
	w.pairBuf = w.grid.NearPairs(reach, w.pairBuf)
	slices.SortFunc(w.pairBuf, func(a, b [2]int32) int {
		if a[0] != b[0] {
			if a[0] < b[0] {
				return -1
			}
			return 1
		}
		switch {
		case a[1] < b[1]:
			return -1
		case a[1] > b[1]:
			return 1
		}
		return 0
	})
	for _, pr := range w.pairBuf {
		a, b := w.bodies[pr[0]], w.bodies[pr[1]]
		if a.Crashed && b.Crashed {
			continue
		}
		if a.Pos.DistSq(b.Pos) < r2 {
			w.crash(now, a, b)
		}
	}
}
