package attack

import (
	"roborebound/internal/geom"
	"roborebound/internal/wire"
)

// Equivocate sends *different* claimed self-states to different
// victims over unicast — the classic Byzantine equivocation, adapted
// to a physical system: tell the robot on your left you're moving
// right and vice versa, shredding the flock's velocity consensus. On
// the radio these are unicast frames; the a-node chains every one of
// them, so the first audit after compromise exposes the robot.
type Equivocate struct {
	// Spread is how far apart the per-victim lies are placed (meters).
	Spread float64
}

// Name implements Strategy.
func (Equivocate) Name() string { return "equivocate" }

// Act implements Strategy.
func (e Equivocate) Act(ctx *Ctx) {
	spread := e.Spread
	if spread == 0 {
		spread = 10
	}
	for i, victim := range ctx.Neighbors {
		// Alternate the lie: even victims are told we're `spread` to
		// their east and fleeing; odd victims the opposite.
		sign := 1.0
		if i%2 == 1 {
			sign = -1
		}
		liePos := geom.V(float64(victim.PosX)+sign*spread, float64(victim.PosY))
		m := wire.StateMsg{
			Src:  ctx.ID, // equivocation lies about *own* state, under own ID
			Time: ctx.Now,
			PosX: float32(liePos.X), PosY: float32(liePos.Y),
			VelX: float32(sign * 2), VelY: 0,
		}
		ctx.SendFrame(wire.Frame{Src: ctx.ID, Dst: victim.ID, Payload: m.AppendEncode(ctx.Payload(wire.StateMsgSize))})
	}
}

// Replayer rebroadcasts captured genuine frames from other robots —
// stale truths rather than fresh lies. Without sequence numbers or
// MACs on state broadcasts, receivers cannot tell a replay from the
// real thing; the defense's answer is the same as for spoofing: the
// replayed transmissions are chained by the attacker's a-node and
// absent from its log, so audits fail.
type Replayer struct {
	// Delay is how many captured frames back to reach (older = worse
	// poison).
	Delay int
	// PerTick caps replayed frames per tick.
	PerTick int
}

// Name implements Strategy.
func (Replayer) Name() string { return "replayer" }

// Act implements Strategy.
func (r Replayer) Act(ctx *Ctx) {
	per := r.PerTick
	if per == 0 {
		per = 2
	}
	n := len(ctx.Captured)
	if n == 0 {
		return
	}
	idx := n - 1 - r.Delay
	if idx < 0 {
		idx = 0
	}
	for i := 0; i < per && idx+i < n; i++ {
		f := ctx.Captured[idx+i]
		// Re-key the radio source to ourselves is NOT what a replayer
		// does — it resends the frame verbatim, claimed source and all.
		ctx.SendFrame(f)
	}
}

// Blocker is the warehouse-logistics attack of §2.3: the compromised
// robot broadcasts its *own* state as parked at a chokepoint (while
// actually being wherever it is), so every robot that yields to it —
// in priority-based traffic rules, every higher-ID robot heading that
// way — waits forever on a phantom. No physical contact, no forged
// identities: one well-placed lie about yourself.
type Blocker struct {
	// X, Y is the claimed parking spot (the chokepoint).
	X, Y float64
	// Period is how often to re-broadcast the lie, in ticks.
	Period wire.Tick
}

// Name implements Strategy.
func (Blocker) Name() string { return "blocker" }

// Act implements Strategy.
func (b Blocker) Act(ctx *Ctx) {
	// Brake and lurk: without this, the last pre-compromise actuator
	// command keeps integrating and the attacker drifts out of radio
	// range of its own victims.
	ctx.Actuate(-2*ctx.Vel.X, -2*ctx.Vel.Y)
	if b.Period > 1 && ctx.Now%b.Period != 0 {
		return
	}
	m := wire.StateMsg{
		Src:  ctx.ID,
		Time: ctx.Now,
		PosX: float32(b.X), PosY: float32(b.Y),
	}
	ctx.SendFrame(wire.Frame{Src: ctx.ID, Dst: wire.Broadcast, Payload: m.AppendEncode(ctx.Payload(wire.StateMsgSize))})
}
