package roborebound

import (
	"math"

	"roborebound/internal/attack"
	"roborebound/internal/core"
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
	// the controller's obstacle gains are enabled.
	Obstacles []geom.SphereObstacle
	// MaxSpeedMS caps robot speed (0 = the 8 m/s default). Obstacle
	// scenarios need it low enough that the r′ = κ²d/2 sensing range
	// leaves braking distance: at 5 m/s² a robot stops in v²/10 m.
	MaxSpeedMS float64
	// Compromised marks attacker slots.
	Compromised []CompromisedSpec
	// Deprecated: ignored; the grid is the only path. Kept only because
	// benchmark/ still assigns it; removed with those assignments
	// (ROADMAP item 2, PR A).
	SpatialIndex bool
	// Tune, if non-nil, adjusts the flocking parameters after the
	// defaults are applied (used by ablations).
	Tune func(*flocking.Params)
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
	if fs.MaxSpeedMS > 0 {
		world.MaxSpeed = fs.MaxSpeedMS
	}
	world.Obstacles = fs.Obstacles
	s := NewSim(SimConfig{Seed: fs.Seed, Core: &cc, World: &world})

	params := flocking.DefaultParams(TicksPerSecond, fs.Spacing, fs.Goal)
	if len(fs.Obstacles) > 0 {
		params.Obstacles = fs.Obstacles
		// Table 3 zeroes the β gains because §5's arenas have no
		// obstacles; for obstacle scenarios the repulsion must beat
		// the goal spring at range (≈0.5 m/s² at 500 m), or robots
		// plow straight in.
		params.C1Beta = 2.0
		params.C2Beta = 1.0
	}
	if fs.Tune != nil {
		fs.Tune(&params)
	}
	factory := flocking.Factory{Params: params}

	positions := GridPositions(fs.N, fs.Spacing, geom.Zero2)
	rng := prng.New(fs.Seed)
	if fs.JitterM > 0 {
		for i := range positions {
			positions[i] = positions[i].Add(geom.V(
				rng.Range(-fs.JitterM, fs.JitterM),
				rng.Range(-fs.JitterM, fs.JitterM)))
		}
	}

	compromisedAt := make(map[int]CompromisedSpec)
	for _, cs := range fs.Compromised {
		compromisedAt[cs.Index] = cs
	}
	ids := make([]wire.RobotID, fs.N)
	for i := range ids {
		ids[i] = wire.RobotID(i + 1)
	}
	for i, pos := range positions {
		id := ids[i]
		if cs, bad := compromisedAt[i]; bad {
			strat := cs.Strategy(ids, fs.Goal)
			s.AddCompromised(id, pos, factory, fs.Protected,
				wire.Tick(cs.AtSeconds*TicksPerSecond), strat, cs.KeepProtocol)
			continue
		}
		s.AddRobot(id, pos, factory, fs.Protected)
	}
	return s
}
