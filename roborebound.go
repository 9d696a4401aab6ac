// Package roborebound is a from-scratch reproduction of "RoboRebound:
// Multi-Robot System Defense with Bounded-Time Interaction" (Gandhi,
// Cai, Haeberlen, Phan; EuroSys 2025).
//
// RoboRebound extends Byzantine fault tolerance to multi-robot systems
// whose nodes interact through the physical world. Each robot carries
// two tiny trusted components — an s-node interposing on sensors and
// an a-node interposing on actuators and the radio — that commit every
// nondeterministic input and output to hash chains. Robots must
// periodically convince f_max+1 peers, via PeerReview-style
// deterministic replay of their logs, that they executed their
// installed controller faithfully; success earns time-limited tokens,
// and a robot whose a-node sees fewer than f_max+1 fresh tokens is
// forced into Safe Mode. The resulting guarantee is *bounded-time
// interaction* (BTI): a compromised robot can misbehave for at most
// T_val before it is physically disabled.
//
// This package is the public facade: simulation construction, the
// flocking scenario builders used throughout the paper's evaluation,
// and the measurement helpers that regenerate its tables and figures.
// The building blocks live under internal/: trusted nodes, audit log,
// replay, protocol engine, Olfati-Saber controller, radio model,
// physics, and the attack library.
package roborebound

import (
	"slices"

	"roborebound/internal/attack"
	"roborebound/internal/control"
	"roborebound/internal/core"
	"roborebound/internal/faultinject"
	"roborebound/internal/geom"
	"roborebound/internal/obs"
	"roborebound/internal/obs/perf"
	"roborebound/internal/radio"
	"roborebound/internal/robot"
	"roborebound/internal/sim"
	"roborebound/internal/trusted"
	"roborebound/internal/wire"
)

// TicksPerSecond is the rate of every facade simulation: the paper's
// 0.25 s control period (wire.TicksPerSecond).
const TicksPerSecond = wire.TicksPerSecond

// masterKey is the MRS master key every facade robot is provisioned
// with.
var masterKey = []byte("roborebound-default-master-key")

// SimConfig configures a simulation. Zero-valued fields default to the
// paper's evaluation setup.
type SimConfig struct {
	// Seed drives every randomized choice (placement jitter, packet
	// loss). Two runs with equal configs and seeds are bit-identical.
	Seed uint64
	// World overrides the physics (default sim.DefaultWorldConfig). Its
	// TicksPerSecond is ignored: the facade always runs at
	// TicksPerSecond, and NewSim leaves the caller's struct unchanged.
	World *sim.WorldConfig
	// Radio overrides the link model (default radio.DefaultParams).
	Radio *radio.Params
	// Core overrides the protocol parameters (default
	// core.DefaultConfig, i.e. f_max=3, T_audit=4 s, T_val=10 s).
	Core *core.Config
	// Faults, when non-nil, installs the fault-injection schedule's
	// hooks: the medium's loss model / link filter / transmit delay,
	// and per-robot trusted-clock skew. The schedule is data — see
	// internal/faultinject — so a faulted run is exactly as
	// deterministic as a clean one.
	Faults *faultinject.Schedule
	// Trace, when non-nil, receives every protocol and frame event
	// (see internal/obs). Tracing is observation only: a traced run is
	// byte-identical to an untraced one. nil disables at zero cost.
	Trace obs.Tracer
	// Metrics, when non-nil, collects the engines' protocol counters
	// and the radio's per-robot byte accounting into one registry with
	// deterministic snapshots.
	Metrics *obs.Registry
	// Perf, when non-nil, attributes wall-clock time to every tick
	// pipeline phase (see internal/obs/perf). Observation-only, like
	// Trace: a timed run is byte-identical to an untimed one — the perf
	// differential tests enforce it. nil disables at zero cost.
	Perf *perf.PhaseTimer
}

func (c SimConfig) withDefaults() SimConfig {
	w := sim.DefaultWorldConfig()
	if c.World != nil {
		w = *c.World
	}
	w.TicksPerSecond = TicksPerSecond
	c.World = &w
	if c.Radio == nil {
		r := radio.DefaultParams()
		c.Radio = &r
	}
	if c.Core == nil {
		cc := core.DefaultConfig(TicksPerSecond)
		c.Core = &cc
	}
	return c
}

// Sim is a runnable simulation of one MRS.
type Sim struct {
	Cfg    SimConfig
	Engine *sim.Engine
	World  *sim.World
	Medium *radio.Medium

	// now is Engine.Now, bound once for every robot's clock.
	now         func() wire.Tick //rebound:clock engine
	robots      map[wire.RobotID]*robot.Robot
	compromised map[wire.RobotID]*attack.Compromised
	sealed      trusted.SealedMissionKey
	acache      *core.AuditCache
	// checker watches a protected populated flock every tick (see
	// populate); nil for every other sim.
	checker *faultinject.Checker
}

// NewSim builds an empty simulation; add robots, then Run.
func NewSim(cfg SimConfig) *Sim {
	cfg = cfg.withDefaults()
	world := sim.NewWorld(*cfg.World)
	medium := radio.NewMedium(*cfg.Radio, world.Position, cfg.Seed^0x5eed)
	var mission [trusted.MissionKeySize]byte
	copy(mission[:], "mission-key-material")
	s := &Sim{
		Cfg:         cfg,
		Engine:      sim.NewEngine(world, medium),
		World:       world,
		Medium:      medium,
		robots:      make(map[wire.RobotID]*robot.Robot),
		compromised: make(map[wire.RobotID]*attack.Compromised),
		sealed:      trusted.SealMissionKey(masterKey, mission, cfg.Seed|1, 1),
		acache:      core.NewAuditCache(0),
	}
	s.now = s.Engine.Now
	if cfg.Perf != nil {
		s.Engine.SetPerf(cfg.Perf) // fans out to world + medium
	}
	if cfg.Trace != nil || cfg.Metrics != nil {
		medium.SetObs(cfg.Trace, cfg.Metrics)
	}
	if f := cfg.Faults; f != nil {
		if lm := f.LossModel(s.now); lm != nil {
			medium.SetLossModel(lm)
		}
		if lf := f.LinkFilter(s.now); lf != nil {
			medium.SetLinkFilter(lf)
		}
		if td := f.TxDelay(s.now); td != nil {
			medium.SetTxDelay(td)
		}
	}
	return s
}

// Tick converts seconds to ticks.
func (s *Sim) Tick(seconds float64) wire.Tick {
	return wire.Tick(seconds * TicksPerSecond)
}

// Seconds converts a tick to seconds.
func (s *Sim) Seconds(t wire.Tick) float64 {
	return float64(t) / TicksPerSecond
}

func (s *Sim) newRobot(id wire.RobotID, pos geom.Vec2, factory control.Factory, protected bool) *robot.Robot {
	body := s.World.AddBody(id, pos)
	rcfg := robot.Config{
		ID:         id,
		Protected:  protected,
		Core:       *s.Cfg.Core,
		Factory:    factory,
		Master:     masterKey,
		Sealed:     s.sealed,
		Trace:      s.Cfg.Trace,
		Metrics:    s.Cfg.Metrics,
		AuditCache: s.acache,
		Perf:       s.Cfg.Perf,
	}
	if s.Cfg.Faults != nil {
		rcfg.TrustedClock = s.Cfg.Faults.Clock(id, s.now)
	}
	r := robot.New(rcfg, body, s.Medium, s.now)
	s.robots[id] = r
	return r
}

// AddRobot places a correct robot.
func (s *Sim) AddRobot(id wire.RobotID, pos geom.Vec2, factory control.Factory, protected bool) *robot.Robot {
	r := s.newRobot(id, pos, factory, protected)
	s.Engine.AddActor(r)
	return r
}

// AddCompromised places a robot whose c-node turns malicious at the
// given tick. It behaves correctly (and, when protected, earns tokens)
// until then.
func (s *Sim) AddCompromised(id wire.RobotID, pos geom.Vec2, factory control.Factory,
	protected bool, at wire.Tick, strat attack.Strategy, keepProtocol bool) *attack.Compromised {
	r := s.newRobot(id, pos, factory, protected)
	c := attack.NewCompromised(r, at, strat, keepProtocol)
	s.compromised[id] = c
	s.Engine.AddActor(c)
	return c
}

// Robot returns the robot with the given ID (compromised ones
// included), or nil.
func (s *Sim) Robot(id wire.RobotID) *robot.Robot { return s.robots[id] }

// Compromised returns the attack wrapper for id, or nil.
func (s *Sim) Compromised(id wire.RobotID) *attack.Compromised { return s.compromised[id] }

// IDs returns all robot IDs in ascending order: the engine's roster,
// since every robot is an actor.
func (s *Sim) IDs() []wire.RobotID { return slices.Clone(s.Engine.IDs()) }

// CorrectIDs returns the IDs of robots that are not compromised.
func (s *Sim) CorrectIDs() []wire.RobotID {
	var ids []wire.RobotID
	for _, id := range s.IDs() {
		if _, bad := s.compromised[id]; !bad {
			ids = append(ids, id)
		}
	}
	return ids
}

// sha1Compressions returns the number of SHA-1 compressions the run
// has hashed: every robot's trusted chains and checkpoint hashes, and
// the audit cache's replica chains. It is observation-only and counts
// from the build or the resume, so it is in no snapshot, fingerprint or
// registry.
func (s *Sim) sha1Compressions() uint64 {
	n := s.acache.SHA1Compressions()
	for _, id := range s.IDs() {
		n += s.robots[id].SHA1Compressions()
	}
	return n
}

// RunSeconds advances the simulation.
func (s *Sim) RunSeconds(seconds float64) {
	s.Engine.Run(s.Tick(seconds))
}
