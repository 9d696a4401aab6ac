// Package attack implements the adversary. A compromised robot is a
// normal robot whose c-node has been reprogrammed (§2.2): its trusted
// s-node and a-node keep working — they are ROM on separate MCUs — so
// everything the attacker transmits or actuates is still committed to
// the hash chains, which is exactly why its audits start failing.
//
// Compromised wraps robot.Robot: until CompromiseAt the robot behaves
// correctly (running the full protocol, earning tokens); from then on
// a Strategy injects malicious traffic and/or actuator commands
// through the trusted nodes. The injected outputs are witnessed by the
// a-node's chain but never appear in the c-node's (now lying) log, so
// every subsequent audit fails at correct auditors and the robot is
// disabled within the BTI window.
package attack

import (
	"roborebound/internal/flocking"
	"roborebound/internal/geom"
	"roborebound/internal/robot"
	"roborebound/internal/wire"
)

// Ctx is the attacker's view of the world at one tick: its own pose
// (it still has sensors) and whatever its controller has heard from
// peers. Strategies act through SendFrame/Actuate, which route through
// the a-node — the attacker cannot bypass the trusted hardware (§3.2).
type Ctx struct {
	Now wire.Tick
	ID  wire.RobotID
	Pos geom.Vec2
	Vel geom.Vec2
	// Neighbors is the attacker's latest view of peers (from their
	// broadcasts), nil if the mission controller is not flocking.
	Neighbors []flocking.Neighbor
	// SendFrame transmits through the a-node (chained unless
	// audit-flagged). Returns false once in Safe Mode.
	SendFrame func(wire.Frame) bool
	// Actuate commands an acceleration through the a-node. Returns
	// false once in Safe Mode.
	Actuate func(ax, ay float64) bool
	// Captured holds recently overheard application frames (newest
	// last) — raw material for replay attacks.
	Captured []wire.Frame
}

// Strategy is a compromised c-node's behavior.
type Strategy interface {
	// Name identifies the attack in reports.
	Name() string
	// Act runs once per tick after compromise.
	Act(ctx *Ctx)
}

// Compromised is a robot whose c-node turns malicious at CompromiseAt.
type Compromised struct {
	*robot.Robot
	CompromiseAt wire.Tick //rebound:snapshot-skip attack plan, fixed at construction
	Strat        Strategy  //rebound:snapshot-skip strategy wiring, fixed at construction
	// KeepProtocol keeps the legitimate control/audit stack running
	// after compromise (the stealthier variant: the attacker keeps
	// *trying* to pass audits with its sanitized log). When false the
	// attacker abandons the protocol entirely at compromise time.
	KeepProtocol bool //rebound:snapshot-skip attack plan, fixed at construction

	active bool

	firstMisbehavior wire.Tick
	misbehaved       bool

	captured []wire.Frame // ring buffer of overheard application frames
}

// maxCaptured bounds the eavesdropping buffer.
const maxCaptured = 64

// Deliver implements sim.Actor: the compromised c-node eavesdrops on
// everything the radio hands up (it is reprogrammable, the radio path
// is not) before the normal stack processes it.
func (c *Compromised) Deliver(f wire.Frame) {
	if !f.IsAudit() {
		if len(c.captured) >= maxCaptured {
			copy(c.captured, c.captured[1:])
			c.captured = c.captured[:maxCaptured-1]
		}
		c.captured = append(c.captured, f)
	}
	c.Robot.Deliver(f)
}

// NewCompromised wraps a protected robot.
func NewCompromised(r *robot.Robot, at wire.Tick, strat Strategy, keepProtocol bool) *Compromised {
	return &Compromised{Robot: r, CompromiseAt: at, Strat: strat, KeepProtocol: keepProtocol}
}

// FirstMisbehaviorAt returns the tick of the attacker's first
// malicious output (frame or actuator command actually emitted) — the
// instant the BTI clock starts (§3.10). ok is false while the attacker
// has not yet misbehaved.
func (c *Compromised) FirstMisbehaviorAt() (wire.Tick, bool) {
	return c.firstMisbehavior, c.misbehaved
}

func (c *Compromised) noteMisbehavior(now wire.Tick) {
	if !c.misbehaved {
		c.misbehaved = true
		c.firstMisbehavior = now
	}
}

// Tick implements sim.Actor.
func (c *Compromised) Tick(now wire.Tick) {
	if now < c.CompromiseAt {
		c.Robot.Tick(now)
		return
	}
	c.active = true
	// The trusted hardware's own timer keeps firing no matter what the
	// reprogrammed c-node does.
	c.HardwareTick()
	if c.KeepProtocol {
		// The legitimate stack keeps running — sensing, control,
		// audits — while the overlay below injects unlogged traffic.
		c.Robot.Tick(now)
	} else {
		// Abandoning the protocol is itself misbehavior by omission:
		// the robot stops broadcasting and requesting audits.
		c.noteMisbehavior(now)
	}
	ctx := &Ctx{
		Now: now,
		ID:  c.ActorID(),
		Pos: c.Body().Pos,
		Vel: c.Body().Vel,
		SendFrame: func(f wire.Frame) bool {
			c.noteMisbehavior(now)
			return c.RawSend(f)
		},
		Actuate: func(ax, ay float64) bool {
			c.noteMisbehavior(now)
			return c.RawActuate(wire.ActuatorCmd{Time: now, AccX: ax, AccY: ay})
		},
	}
	ctx.Captured = c.captured
	if fc, ok := c.Controller().(*flocking.Controller); ok {
		ctx.Neighbors = fc.Neighbors()
	}
	c.Strat.Act(ctx)
}
