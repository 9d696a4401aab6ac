package roborebound

import (
	"math"

	"roborebound/internal/attack"
	"roborebound/internal/control"
	"roborebound/internal/core"
	"roborebound/internal/faultinject"
	"roborebound/internal/flocking"
	"roborebound/internal/geom"
	"roborebound/internal/prng"
	"roborebound/internal/sim"
	"roborebound/internal/wire"
)

// GridPositions lays out n robots on the smallest square grid that
// holds them, spaced `spacing` meters apart, with the grid's corner at
// origin. This is the paper's placement for both evaluation setups
// (§5.2: "square arrangements with 4–18 robots per edge").
func GridPositions(n int, spacing float64, origin geom.Vec2) []geom.Vec2 {
	side := gridSide(n)
	out := make([]geom.Vec2, 0, n)
	for i := 0; i < n; i++ {
		row, col := i/side, i%side
		out = append(out, origin.Add(geom.V(float64(col)*spacing, float64(row)*spacing)))
	}
	return out
}

// gridSide is the row length of GridPositions' grid for n robots.
func gridSide(n int) int { return int(math.Ceil(math.Sqrt(float64(n)))) }

// CompromisedSpec marks one grid slot as compromised.
type CompromisedSpec struct {
	// Index is the grid slot (0-based).
	Index int
	// AtSeconds is the compromise time.
	AtSeconds float64
	// Strategy builds the attack; it receives the full ID roster and
	// the mission goal so spoofing attacks can masquerade and aim.
	Strategy func(ids []wire.RobotID, goal geom.Vec2) attack.Strategy
	// KeepProtocol keeps the legitimate stack running post-compromise.
	KeepProtocol bool
}

// SpoofStrategy builds the §5.3 spoofing attack with the paper's
// parameters (z = 150 m, ε = 2 m, c = 1, spoofing every control
// period, one phantom per victim).
func SpoofStrategy(z, epsilon, c float64) func(ids []wire.RobotID, goal geom.Vec2) attack.Strategy {
	return func(ids []wire.RobotID, goal geom.Vec2) attack.Strategy {
		return &attack.Spoof{Goal: goal, Z: z, Epsilon: epsilon, C: c,
			IDs: ids, Period: 1, PhantomsPerVictim: 1,
			MaxVictimDist: z + 50}
	}
}

// FlockScenario describes one Olfati-Saber experiment, mirroring the
// two setups of §5.2 and the attack runs of §5.3.
type FlockScenario struct {
	// N is the number of robots, laid out on a square grid cornered
	// at the origin.
	N int
	// Spacing is both the grid pitch and the desired inter-robot
	// distance d (4 m–64 m in the paper).
	Spacing float64
	// Goal is the destination (the paper uses (500, 500) for the cost
	// experiments).
	Goal geom.Vec2
	// Protected enables RoboRebound; false is the unprotected baseline.
	Protected bool
	// Seed drives jitter and packet loss.
	Seed uint64
	// Fmax overrides f_max (default 3; pass -1 for an explicit zero).
	// Meaningful only if Protected.
	Fmax int
	// AuditPeriodSeconds overrides T_audit (default 4 s).
	AuditPeriodSeconds float64
	// JitterM randomly perturbs starting positions by up to ±JitterM
	// per axis (breaks grid symmetry, as real placement would).
	JitterM float64
	// Obstacles adds mission obstacles (Fig. 2's grid). When non-empty
	// the controller's obstacle gains are enabled, its lattice is
	// stiffened and robot speed is capped at 4 m/s (see layout).
	Obstacles []geom.SphereObstacle
	// Compromised marks attacker slots.
	Compromised []CompromisedSpec
	// Deprecated: ignored; the grid is the only path. Kept only because
	// benchmark/ still assigns it; removed with those assignments
	// (ROADMAP item 2, PR A).
	SpatialIndex bool
}

// Build constructs the simulation.
func (fs FlockScenario) Build() *Sim {
	cc := core.DefaultConfig(TicksPerSecond)
	if fs.Fmax > 0 {
		cc.Fmax = fs.Fmax
	} else if fs.Fmax < 0 {
		cc.Fmax = 0
	}
	if fs.AuditPeriodSeconds > 0 {
		cc.TAudit = wire.Tick(fs.AuditPeriodSeconds * TicksPerSecond)
		cc.AuthSlack = cc.TAudit
	}
	cc.AutoServeLimit()
	world := sim.DefaultWorldConfig()
	if len(fs.Obstacles) > 0 {
		// The r′ = κ²d/2 sensing range must leave braking distance: at
		// 5 m/s² a robot stops in v²/10 m.
		world.MaxSpeed = 4
	}
	world.Obstacles = fs.Obstacles
	s := NewSim(SimConfig{Seed: fs.Seed, Core: &cc, World: &world})
	positions, factory := fs.layout()
	s.populate(roster(fs.N), positions, factory, fs.Protected, fs.Goal, fs.Compromised, nil)
	return s
}

// layout is where the flock's slots start, the grid jittered by up to
// JitterM per axis, and the flocking controller every robot runs.
func (fs FlockScenario) layout() ([]geom.Vec2, control.Factory) {
	params := flocking.DefaultParams(TicksPerSecond, fs.Spacing, fs.Goal)
	if len(fs.Obstacles) > 0 {
		params.Obstacles = fs.Obstacles
		// Table 3 zeroes the β gains because §5's arenas have no
		// obstacles; for obstacle scenarios the repulsion must beat
		// the goal spring at range (≈0.5 m/s² at 500 m), or robots
		// plow straight in.
		params.C1Beta = 2.0
		params.C2Beta = 1.0
		// Table 3's α gains (0.005/0.05) cannot resist the goal
		// spring's squeeze at obstacle chokepoints: the lattice gets
		// crushed and robots collide. EXPERIMENTS.md records the
		// deviation.
		params.C1Alpha = 0.3
		params.C2Alpha = 0.4
	}

	positions := GridPositions(fs.N, fs.Spacing, geom.Zero2)
	if fs.JitterM > 0 {
		rng := prng.New(fs.Seed)
		for i := range positions {
			positions[i] = positions[i].Add(geom.V(
				rng.Range(-fs.JitterM, fs.JitterM),
				rng.Range(-fs.JitterM, fs.JitterM)))
		}
	}
	return positions, flocking.Factory{Params: params}
}

// roster is the robot IDs of an n-robot cell: slot i holds robot i+1.
func roster(n int) []wire.RobotID {
	ids := make([]wire.RobotID, n)
	for i := range ids {
		ids[i] = wire.RobotID(i + 1)
	}
	return ids
}

// populate adds robot ids[i] at positions[i], in roster order, all
// running factory. A slot a spec names (the last, if several do) turns
// Byzantine as the spec says; else a robot crashes names goes silent at
// its tick; every other robot is correct. A protected flock ends up
// watched every tick by the invariant checker, built from the sim's
// own timing, fault schedule and trace.
func (s *Sim) populate(ids []wire.RobotID, positions []geom.Vec2, factory control.Factory, protected bool,
	goal geom.Vec2, specs []CompromisedSpec, crashes map[wire.RobotID]wire.Tick) {
	bySlot := make(map[int]CompromisedSpec, len(specs))
	for _, cs := range specs {
		bySlot[cs.Index] = cs
	}
	for i, id := range ids {
		if cs, bad := bySlot[i]; bad {
			s.AddCompromised(id, positions[i], factory, protected,
				wire.Tick(cs.AtSeconds*TicksPerSecond), cs.Strategy(ids, goal), cs.KeepProtocol)
		} else if at, crashed := crashes[id]; crashed {
			s.AddCompromised(id, positions[i], factory, protected, at, attack.Silent{}, false)
		} else {
			s.AddRobot(id, positions[i], factory, protected)
		}
	}
	if !protected {
		return
	}
	s.checker = faultinject.NewChecker(s.Cfg.Core.TVal, s.Cfg.Core.TAudit, s.Cfg.Faults)
	s.checker.Trace = s.Cfg.Trace
	snaps := make([]faultinject.RobotSnapshot, 0, len(ids))
	s.Engine.Observe(func(now wire.Tick) {
		snaps = snaps[:0]
		for _, id := range ids {
			r := s.Robot(id)
			sn := faultinject.RobotSnapshot{
				ID:          id,
				Protected:   true,
				InSafeMode:  r.InSafeMode(),
				PhysCrashed: r.Body().Crashed,
				Counters:    *s.Medium.Counters(id),
			}
			if comp := s.Compromised(id); comp != nil {
				sn.Compromised = true
				_, sn.CrashFaulted = crashes[id]
				sn.MisbehavedAt, sn.Misbehaved = comp.FirstMisbehaviorAt()
			}
			if eng := r.Engine(); eng != nil {
				sn.RoundsCovered = uint64(eng.Stats().RoundsCovered)
				sn.LogAccounting = eng.Log().AccountingError()
			}
			snaps = append(snaps, sn)
		}
		s.checker.Check(now, snaps)
	})
}

// mustHold panics with the checker's violation once it has latched:
// a figure run that breaks one of the paper's guarantees fails, as a
// chaos cell Check refuses does. An unprotected sim has no checker.
func (s *Sim) mustHold() {
	if s.checker == nil {
		return
	}
	if v := s.checker.Violation(); v != nil {
		panic(v.Error())
	}
}
