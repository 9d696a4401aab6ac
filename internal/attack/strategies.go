package attack

import (
	"roborebound/internal/geom"
	"roborebound/internal/wire"
)

// Spoof is the §5.3 attack: the compromised robot masquerades as other
// robots and reports their positions as lying between each correct
// robot and the destination, so correct robots — unable to tell real
// from spoofed broadcasts — hold back to avoid "crashing" into phantom
// peers.
//
// For a correct robot at x with goal d (‖·‖ Euclidean, u the unit
// vector of x−d):
//
//	‖x−d‖ ≤ Z:  x_spoof = x − u          (1 m in front, toward the goal)
//	‖x−d‖ > Z:  x_spoof = d + (Z−ε)·u    (on the keep-out ring)
//
// and the spoofed velocity is C·u (fleeing the goal), which spurs the
// victim to back off. Each victim gets a phantom with a rotating
// claimed source ID so the spoofs overwrite real neighbor entries.
type Spoof struct {
	// Goal is the mission destination d.
	Goal geom.Vec2
	// Z is the keep-out radius (150 m in §5.3).
	Z float64
	// Epsilon pulls the ring spoof just inside Z (2 m in §5.3).
	Epsilon float64
	// C scales the spoofed velocity (1 in §5.3).
	C float64
	// IDs are the robot IDs the attacker masquerades as (the correct
	// robots' own IDs; the attacker knows the roster).
	IDs []wire.RobotID
	// Period is how often to spoof, in ticks. The paper's adversary
	// "broadcasts spoofed packets faster than correct c-nodes"; one
	// control period (vs. the 1.5 s state period) reproduces that.
	Period wire.Tick
	// PhantomsPerVictim is how many distinct masqueraded robots are
	// parked in front of each victim (default 1, the paper's attack;
	// more phantoms model the "smart, determined adversary" the paper
	// says its version lower-bounds). Claims are stable per victim so
	// that spoofs aimed at different victims do not overwrite each
	// other.
	PhantomsPerVictim int
	// MaxVictimDist skips victims farther than this from the goal
	// (0 = spoof everyone). A victim far outside Z cannot interact
	// with its ring phantom anyway, so a bandwidth-conscious adversary
	// concentrates on robots approaching the keep-out ring.
	MaxVictimDist float64
	// VictimMod/VictimResidue let colluding attackers partition the
	// victim set (attacker handles victims with ID ≡ residue mod mod);
	// zero mod disables partitioning. Without this, ten attackers all
	// emit identical claim sets and just multiply channel load.
	VictimMod     int
	VictimResidue int

	claims []wire.RobotID // claimIDs' result, rewritten per victim
}

// Name implements Strategy.
func (s *Spoof) Name() string { return "spoof" }

// Act implements Strategy.
func (s *Spoof) Act(ctx *Ctx) {
	if s.Period > 1 && ctx.Now%s.Period != 0 {
		return
	}
	k := s.PhantomsPerVictim
	if k < 1 {
		k = 1
	}
	for _, victim := range ctx.Neighbors {
		if s.VictimMod > 1 && int(victim.ID)%s.VictimMod != s.VictimResidue {
			continue
		}
		x := geom.V(float64(victim.PosX), float64(victim.PosY))
		diff := x.Sub(s.Goal)
		dist := diff.Norm()
		if dist == 0 {
			continue
		}
		if s.MaxVictimDist > 0 && dist > s.MaxVictimDist {
			continue
		}
		u := diff.Scale(1 / dist)
		var spoofPos geom.Vec2
		if dist <= s.Z {
			spoofPos = x.Sub(u)
		} else {
			spoofPos = s.Goal.Add(u.Scale(s.Z - s.Epsilon))
		}
		spoofVel := u.Scale(s.C)
		for _, src := range s.claimIDs(victim.ID, ctx.ID, k) {
			m := wire.StateMsg{
				Src:  src,
				Time: ctx.Now,
				PosX: float32(spoofPos.X), PosY: float32(spoofPos.Y),
				VelX: float32(spoofVel.X), VelY: float32(spoofVel.Y),
			}
			ctx.SendFrame(wire.Frame{Src: src, Dst: wire.Broadcast, Payload: m.AppendEncode(ctx.Payload(wire.StateMsgSize))})
		}
	}
}

// claimIDs deterministically assigns k masquerade IDs to a victim:
// the k roster entries following the victim's own slot, skipping the
// victim (a robot ignores messages claiming its own ID) and the
// attacker. Stability of the assignment means phantoms aimed at
// different victims never overwrite each other's neighbor entries.
// The result is s's scratch, valid until the next call.
func (s *Spoof) claimIDs(victim, self wire.RobotID, k int) []wire.RobotID {
	if len(s.IDs) == 0 {
		return nil
	}
	start := 0
	for i, id := range s.IDs {
		if id == victim {
			start = i
			break
		}
	}
	out := s.claims[:0]
	for off := 1; off <= len(s.IDs) && len(out) < k; off++ {
		id := s.IDs[(start+off)%len(s.IDs)]
		if id != victim && id != self {
			out = append(out, id)
		}
	}
	s.claims = out
	return out
}

// Silent models a robot that simply stops participating: no
// broadcasts, no audits, no motion commands. BTI still disables it —
// its tokens expire — and the flock must tolerate its absence.
type Silent struct{}

// Name implements Strategy.
func (Silent) Name() string { return "silent" }

// Act implements Strategy.
func (Silent) Act(*Ctx) {}

// Ram drives the attacker at full acceleration toward the nearest
// known peer, attempting a physical crash inside the BTI window. This
// is the attack class the paper concedes BTI cannot fully mask (§2.7):
// the experiment measures whether Safe Mode plus spacing wins the race.
type Ram struct{}

// Name implements Strategy.
func (Ram) Name() string { return "ram" }

// Act implements Strategy.
func (r Ram) Act(ctx *Ctx) {
	var best geom.Vec2
	bestDist := -1.0
	for _, n := range ctx.Neighbors {
		p := geom.V(float64(n.PosX), float64(n.PosY))
		d := p.Dist(ctx.Pos)
		if bestDist < 0 || d < bestDist {
			best, bestDist = p, d
		}
	}
	if bestDist < 0 {
		return
	}
	dir := best.Sub(ctx.Pos).Unit()
	// Full throttle, per-axis (the physical cap clips it anyway).
	ctx.Actuate(dir.X*100, dir.Y*100)
}

// AuditDoS floods a victim with audit-protocol traffic to starve
// legitimate audits. The attacker's own a-node rate-limits token
// requests (§3.8), so the flood is built from junk audit frames; the
// experiment measures that correct robots still get audited.
type AuditDoS struct {
	// PerTick is how many junk audit frames to emit per tick.
	PerTick int
}

// Name implements Strategy.
func (a *AuditDoS) Name() string { return "audit-dos" }

// Act implements Strategy.
func (a *AuditDoS) Act(ctx *Ctx) {
	junk := wire.AuditRequest{
		Auditee: ctx.ID,
		Auditor: wire.Broadcast,
		Req:     wire.TokenRequest{Auditee: ctx.ID, T: ctx.Now},
	}
	payload := junk.Encode()
	for i := 0; i < a.PerTick; i++ {
		ctx.SendFrame(wire.Frame{Src: ctx.ID, Dst: wire.Broadcast, Flags: wire.FlagAudit, Payload: payload})
	}
}
