package roborebound

import (
	"testing"

	"roborebound/internal/attack"
	"roborebound/internal/geom"
	"roborebound/internal/radio"
	"roborebound/internal/wire"
)

// TestCollusionRingInsufficient is the crux of the §3.10 security
// argument: f_max colluding robots can mint tokens for each other —
// their a-nodes issue tokens for any validly-MAC'd request, no audit
// required — but each member can still only reach f_max distinct
// auditors that way, one short of the f_max+1 its own a-node demands.
// The whole ring dies within T_val of misbehaving.
func TestCollusionRingInsufficient(t *testing.T) {
	const fmax = 2
	fs := FlockScenario{
		N:         9,
		Spacing:   20,
		Goal:      geom.V(220, 220),
		Protected: true,
		Fmax:      fmax,
		Seed:      21,
	}
	// A ring of exactly f_max colluders, each also spoofing.
	exchange := attack.NewCollusionExchange()
	ring := []wire.RobotID{3, 7} // grid corners, off the flock corridor
	for _, idx := range []int{2, 6} {
		idx := idx
		fs.Compromised = append(fs.Compromised, CompromisedSpec{
			Index:     idx,
			AtSeconds: 15,
			Strategy: func(ids []wire.RobotID, goal geom.Vec2) attack.Strategy {
				return &attack.Colluder{
					Ring:     ring,
					Exchange: exchange,
					Payload: &attack.Spoof{Goal: goal, Z: 150, Epsilon: 2, C: 1,
						IDs: ids, Period: 1},
				}
			},
			KeepProtocol: false, // pure collusion: no honest audits at all
		})
	}
	s := fs.Build()
	// Wire the exchange to the ring members' real a-nodes.
	for _, id := range ring {
		an := s.Robot(id).ANode()
		exchange.Register(id, an.MakeTokenRequest, an.IssueToken, an.InstallToken)
	}
	s.RunSeconds(45)

	for _, id := range ring {
		comp := s.Compromised(id)
		if !comp.InSafeMode() {
			t.Errorf("colluder %d survived on ring tokens alone (tokens=%d)",
				id, s.Robot(id).ANode().ValidTokenCount())
		}
	}
	if bad := s.CorrectInSafeMode(); len(bad) != 0 {
		t.Errorf("correct robots disabled: %v", bad)
	}
}

// TestCollusionRingPlusOneHonest: with f_max colluders the ring is one
// token short; verify the count is exactly at the boundary — each ring
// member holds f_max (= ring-1 peers + 0 honest) valid tokens right
// before dying.
func TestCollusionTokenCountBoundary(t *testing.T) {
	const fmax = 2
	fs := FlockScenario{
		N: 9, Spacing: 20, Goal: geom.V(220, 220),
		Protected: true, Fmax: fmax, Seed: 22,
	}
	exchange := attack.NewCollusionExchange()
	ring := []wire.RobotID{3, 7}
	for _, idx := range []int{2, 6} {
		fs.Compromised = append(fs.Compromised, CompromisedSpec{
			Index: idx, AtSeconds: 10,
			Strategy: func(ids []wire.RobotID, goal geom.Vec2) attack.Strategy {
				return &attack.Colluder{Ring: ring, Exchange: exchange}
			},
		})
	}
	s := fs.Build()
	for _, id := range ring {
		an := s.Robot(id).ANode()
		exchange.Register(id, an.MakeTokenRequest, an.IssueToken, an.InstallToken)
	}
	// Run past compromise but before token expiry: ring tokens are
	// flowing, honest tokens have stopped.
	s.RunSeconds(18)
	for _, id := range ring {
		// Ring of 2 ⇒ 1 colluding auditor each. Honest tokens from
		// before t=10 may still be fresh, so the *ring contribution*
		// is what we bound: after the pre-compromise tokens expire the
		// count must fall to ring-1 = 1 < fmax+1.
		_ = id
	}
	s.RunSeconds(20) // pre-compromise tokens (TVal=10 s) long gone
	for _, id := range ring {
		if n := s.Robot(id).ANode().ValidTokenCount(); n > len(ring)-1 {
			t.Errorf("colluder %d holds %d fresh tokens, ring can provide at most %d",
				id, n, len(ring)-1)
		}
	}
}

// TestEquivocationDetected: per-victim contradictory unicasts are
// chained by the a-node and missing from the log → audits fail → Safe
// Mode within the BTI window.
func TestEquivocationDetected(t *testing.T) {
	fs := attackScenario(true, true)
	fs.Compromised[0].Strategy = func([]wire.RobotID, geom.Vec2) attack.Strategy {
		return attack.Equivocate{Spread: 15}
	}
	s := fs.Build()
	s.RunSeconds(45)
	comp := s.Compromised(3)
	if !comp.InSafeMode() {
		t.Fatal("equivocator never disabled")
	}
	at, ok := comp.FirstMisbehaviorAt()
	if !ok {
		t.Fatal("no misbehavior recorded")
	}
	if comp.SafeModeAt() > at+s.Cfg.Core.TVal+s.Cfg.Core.TAudit {
		t.Errorf("equivocator outlived the BTI window: misbehaved %d, disabled %d",
			at, comp.SafeModeAt())
	}
	if bad := s.CorrectInSafeMode(); len(bad) != 0 {
		t.Errorf("correct robots disabled: %v", bad)
	}
}

// TestReplayAttackDetected: rebroadcasting even *genuine* frames is
// misbehavior the attacker cannot hide — the a-node chained the
// retransmissions.
func TestReplayAttackDetected(t *testing.T) {
	fs := attackScenario(true, true)
	fs.Compromised[0].Strategy = func([]wire.RobotID, geom.Vec2) attack.Strategy {
		return attack.Replayer{Delay: 20, PerTick: 2}
	}
	s := fs.Build()
	s.RunSeconds(45)
	comp := s.Compromised(3)
	if !comp.InSafeMode() {
		t.Fatal("replayer never disabled")
	}
	if bad := s.CorrectInSafeMode(); len(bad) != 0 {
		t.Errorf("correct robots disabled: %v", bad)
	}
}

// TestLossyNetworkRobust: with 10% uniform packet loss the protocol
// must still keep every correct robot alive (retry/solicitation loops
// absorb the losses).
func TestLossyNetworkRobust(t *testing.T) {
	cc := coreCfgWith(2)
	s := NewSim(SimConfig{Seed: 31, Core: &cc})
	s.Medium.SetLossModel(radio.UniformLoss{Rate: 0.10})
	factory := flockFactory(4, geom.V(120, 120))
	for i, pos := range GridPositions(9, 4, geom.Zero2) {
		s.AddRobot(wire.RobotID(i+1), pos, factory, true)
	}
	s.RunSeconds(60)
	if bad := s.CorrectInSafeMode(); len(bad) != 0 {
		t.Fatalf("10%% loss killed correct robots: %v", bad)
	}
	for _, id := range s.IDs() {
		if s.Robot(id).Engine().Stats().RoundsCovered == 0 {
			t.Errorf("robot %d covered no rounds under loss", id)
		}
	}
	// Losses actually happened.
	dropped := uint64(0)
	for _, id := range s.IDs() {
		dropped += s.Medium.Counters(id).Dropped
	}
	if dropped == 0 {
		t.Error("loss model inert")
	}
}

// TestHeavyLossEventuallyFatal: at extreme loss rates robots cannot be
// audited and BTI's conservative failure mode — self-disable — kicks
// in. This is the designed behavior for a robot that cannot prove
// itself, not a bug.
func TestHeavyLossEventuallyFatal(t *testing.T) {
	cc := coreCfgWith(2)
	s := NewSim(SimConfig{Seed: 32, Core: &cc})
	s.Medium.SetLossModel(radio.UniformLoss{Rate: 0.95})
	factory := flockFactory(4, geom.V(120, 120))
	for i, pos := range GridPositions(4, 4, geom.Zero2) {
		s.AddRobot(wire.RobotID(i+1), pos, factory, true)
	}
	s.RunSeconds(60)
	events := s.SafeModeEvents()
	if len(events) == 0 {
		t.Error("95% loss should eventually isolate and disable robots")
	}
}

// TestFragmentedRadioEndToEnd: with the SecBot radio's 66-byte MTU
// (Appendix B), multi-kilobyte audit requests fragment into dozens of
// frames and reassemble at the auditor — and the protocol still keeps
// everyone alive.
func TestFragmentedRadioEndToEnd(t *testing.T) {
	rp := radio.DefaultParams()
	rp.MTUBytes = 66
	cc := coreCfgWith(2)
	s := NewSim(SimConfig{Seed: 41, Radio: &rp, Core: &cc})
	factory := flockFactory(4, geom.V(120, 120))
	for i, pos := range GridPositions(9, 4, geom.Zero2) {
		s.AddRobot(wire.RobotID(i+1), pos, factory, true)
	}
	s.RunSeconds(40)
	if bad := s.CorrectInSafeMode(); len(bad) != 0 {
		t.Fatalf("fragmentation broke the protocol: %v disabled", bad)
	}
	covered := uint64(0)
	var frames uint64
	for _, id := range s.IDs() {
		covered += s.Robot(id).Engine().Stats().RoundsCovered
		frames += s.Medium.Counters(id).TxFrames
	}
	if covered == 0 {
		t.Fatal("no audit rounds covered over the fragmenting radio")
	}
	// Sanity: audits really were fragmented (far more frames than an
	// unfragmented run would send).
	if frames < 10000 {
		t.Errorf("only %d frames sent; fragmentation inert?", frames)
	}
}
