// Package flocking implements the Olfati-Saber flocking protocol
// ([68]; Algorithm 1 of the RoboRebound paper) as a deterministic,
// replayable controller. Each robot is attracted/repelled by its
// neighbors through a finite-range spring–damper action function,
// repelled by obstacles through projected β-agents, and drawn to a
// global rendezvous point by a goal spring–damper.
package flocking

import (
	"roborebound/internal/geom"
	"roborebound/internal/wire"
)

// Params are the protocol constants, following Table 3 (Appendix A) of
// the paper. All distances are meters, times are engine ticks, and
// gains are in SI units of the acceleration they produce.
type Params struct {
	// D is the desired inter-robot spacing d (varies per experiment).
	D float64
	// Kappa is the ratio r/d of interaction range to spacing (1.2).
	Kappa float64
	// Eps is the σ-norm parameter ε (0.1).
	Eps float64
	// A and B parameterize the action function φ (a = b = 5).
	A, B float64
	// HAlpha and HBeta are the bump-function boundaries for the
	// inter-robot and obstacle action functions (0.2 and 0.9).
	HAlpha, HBeta float64
	// C1Alpha/C2Alpha are the neighbor spring/damper gains.
	C1Alpha, C2Alpha float64
	// C1Beta/C2Beta are the obstacle spring/damper gains (zero in the
	// paper's §5 evaluation, which has no obstacles; the Fig. 2
	// scenario turns them on).
	C1Beta, C2Beta float64
	// C1Gamma/C2Gamma are the goal spring/damper gains. Table 3 lists
	// them as negative; the control law adds
	// C1Gamma·(x−g) + C2Gamma·(v−v_g), so negative values attract.
	C1Gamma, C2Gamma float64

	// Goal is the global rendezvous point g; GoalVel its velocity
	// (zero for a static destination).
	Goal, GoalVel geom.Vec2

	// Obstacles are the mission's static obstacles (part of the shared
	// mission configuration, so replay has them too).
	Obstacles []geom.SphereObstacle

	// AccelCap is the per-axis acceleration saturation (5 m/s², §4).
	AccelCap float64

	// BroadcastPeriod is the interval between state broadcasts, in
	// ticks (1.5 s in the paper).
	BroadcastPeriod wire.Tick
	// NeighborTimeout is how long a neighbor's last state remains
	// usable, in ticks; stale neighbors are dropped at the next
	// control step.
	NeighborTimeout wire.Tick
}

// DefaultParams returns the Table 3 values with the paper's 1.5 s
// broadcast period at the given tick rate, for a flock with desired
// spacing d and a goal. The controller steps on every sensor poll, so
// its control period is one tick.
func DefaultParams(ticksPerSecond float64, d float64, goal geom.Vec2) Params {
	return Params{
		D:               d,
		Kappa:           1.2,
		Eps:             0.1,
		A:               5.0,
		B:               5.0,
		HAlpha:          0.2,
		HBeta:           0.9,
		C1Alpha:         0.005,
		C2Alpha:         0.05,
		C1Beta:          0.0,
		C2Beta:          0.0,
		C1Gamma:         -0.001,
		C2Gamma:         -0.060,
		Goal:            goal,
		AccelCap:        5.0,
		BroadcastPeriod: tick(1.5, ticksPerSecond),
		NeighborTimeout: tick(4.5, ticksPerSecond),
	}
}

func tick(seconds, ticksPerSecond float64) wire.Tick {
	t := wire.Tick(seconds * ticksPerSecond)
	if t == 0 {
		t = 1
	}
	return t
}

// R returns the interaction range r = κ·d.
func (p *Params) R() float64 { return p.Kappa * p.D }

// DPrime returns d′ = 0.5·κ·d, the desired robot-obstacle clearance.
func (p *Params) DPrime() float64 { return 0.5 * p.Kappa * p.D }

// RPrime returns r′ = κ·d′, the obstacle interaction range.
func (p *Params) RPrime() float64 { return p.Kappa * p.DPrime() }

// RAlpha returns r in σ-norm units.
func (p *Params) RAlpha() float64 { return geom.SigmaNormScalar(p.R(), p.Eps) }

// DAlpha returns d in σ-norm units.
func (p *Params) DAlpha() float64 { return geom.SigmaNormScalar(p.D, p.Eps) }

// RBeta returns r′ in σ-norm units.
func (p *Params) RBeta() float64 { return geom.SigmaNormScalar(p.RPrime(), p.Eps) }

// DBeta returns d′ in σ-norm units.
func (p *Params) DBeta() float64 { return geom.SigmaNormScalar(p.DPrime(), p.Eps) }
