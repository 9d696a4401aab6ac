package roborebound

import (
	"strings"
	"testing"

	"roborebound/internal/faultinject"
	"roborebound/internal/obs"
	"roborebound/internal/wire"
)

// Protocol timing at tps=4 (core.DefaultConfig): the BTI bound is
// TVal + TAudit engine ticks from first misbehavior to Safe Mode.
const (
	chaosTVal   = wire.Tick(40)
	chaosTAudit = wire.Tick(16)
)

func chaosSoakSeeds(t *testing.T) []uint64 {
	if testing.Short() {
		return []uint64{1, 2, 3}
	}
	return []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
}

// TestChaosSoakMatrix is the cross-seed soak: every controller x every
// fault profile x >=10 seeds, asserting the paper's guarantees hold in
// every cell — no correct robot ever Safe-Modes (no false positives,
// even under loss bursts, partitions, clock skew, and withheld
// audits), and every deliberate attacker is Safe-Moded within
// TVal + TAudit of its first misbehavior (bounded-time interaction).
func TestChaosSoakMatrix(t *testing.T) {
	cfgs := ChaosMatrix(
		[]string{"flocking", "patrol", "warehouse"},
		faultinject.Profiles(),
		chaosSoakSeeds(t),
		ChaosConfig{DurationSec: 60},
	)
	results := RunChaosMatrix(cfgs, SweepOptions{})
	if len(results) != len(cfgs) {
		t.Fatalf("got %d results for %d cells", len(results), len(cfgs))
	}
	for _, r := range results {
		label := r.Config.Label()
		if r.Violation != nil {
			t.Errorf("%s: %v", label, r.Violation)
			continue
		}
		if r.Metrics.Attackers == 0 {
			t.Errorf("%s: cell built no attacker", label)
		}
		if r.Metrics.AttackersDisabled != r.Metrics.Attackers {
			t.Errorf("%s: only %d/%d attackers disabled", label,
				r.Metrics.AttackersDisabled, r.Metrics.Attackers)
		}
		for _, lat := range r.Metrics.DisableLatencyTicks {
			if lat > chaosTVal+chaosTAudit {
				t.Errorf("%s: disable latency %d exceeds BTI bound %d",
					label, lat, chaosTVal+chaosTAudit)
			}
		}
		if len(r.Metrics.CorrectDisabled) != 0 {
			t.Errorf("%s: correct robots in Safe Mode: %v", label,
				r.Metrics.CorrectDisabled)
		}
		if r.Metrics.Fingerprint == "" {
			t.Errorf("%s: empty fingerprint", label)
		}
	}
}

// TestChaosBTIUnderLossBurstSpoofOverlap pins the hardest BTI case
// called out by the paper's analysis: a network-wide loss burst that
// brackets the spoofing attack's onset. Token traffic and audit
// responses are both lossy exactly when the fleet needs to converge on
// the attacker, and the bound must still hold.
func TestChaosBTIUnderLossBurstSpoofOverlap(t *testing.T) {
	attackTick := wire.Tick(20 * 4)
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		cfg := ChaosConfig{
			Controller: "flocking",
			Profile:    faultinject.ProfileNone,
			Seed:       seed,
			// The burst matches the generator's own tolerance envelope
			// (rate <= 0.55, duration <= TVal/3) but is aimed squarely
			// at the attack's onset instead of landing at random.
			ExtraFaults: []faultinject.Fault{{
				Kind:     faultinject.LossBurst,
				Start:    attackTick - 4,
				Duration: 13,
				Rate:     0.5,
			}},
		}
		r := RunChaos(cfg)
		if r.Violation != nil {
			t.Errorf("seed=%d: %v", seed, r.Violation)
			continue
		}
		if r.Metrics.AttackersDisabled != r.Metrics.Attackers {
			t.Errorf("seed=%d: attacker survived the overlapped burst", seed)
		}
		for _, lat := range r.Metrics.DisableLatencyTicks {
			if lat > chaosTVal+chaosTAudit {
				t.Errorf("seed=%d: disable latency %d exceeds BTI bound %d",
					seed, lat, chaosTVal+chaosTAudit)
			}
		}
	}
}

// TestChaosParallelSweepDeterminism asserts the chaos matrix is
// byte-identical at any worker count: every cell's fingerprint (final
// positions, velocities, radio counters, Safe-Mode state, protocol
// stats) and violation must match between a serial and a parallel
// sweep. The name keeps it inside the race-detector target alongside
// the runner's other ParallelSweep tests.
func TestChaosParallelSweepDeterminism(t *testing.T) {
	cfgs := ChaosMatrix(
		[]string{"flocking", "patrol", "warehouse"},
		[]faultinject.Profile{faultinject.ProfileNone, faultinject.ProfileMixed},
		[]uint64{1, 2, 3},
		ChaosConfig{DurationSec: 60},
	)
	serial := RunChaosMatrix(cfgs, SweepOptions{Workers: 1})
	parallel := RunChaosMatrix(cfgs, SweepOptions{Workers: 4})
	if len(serial) != len(parallel) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		label := serial[i].Config.Label()
		if serial[i].Metrics.Fingerprint != parallel[i].Metrics.Fingerprint {
			t.Errorf("%s: fingerprint differs serial vs parallel:\n  %s\n  %s",
				label, serial[i].Metrics.Fingerprint, parallel[i].Metrics.Fingerprint)
		}
		sv, pv := serial[i].Violation, parallel[i].Violation
		if (sv == nil) != (pv == nil) || (sv != nil && sv.Error() != pv.Error()) {
			t.Errorf("%s: violations differ serial vs parallel: %v vs %v", label, sv, pv)
		}
	}
}

// TestChaosCheckerDetectsSuppressedSafeMode deliberately breaks the
// BTI invariant and asserts the checker reports it with full context.
// Freezing the attacker's trusted clock just before it turns Byzantine
// (drift -1024/1024 cancels the clock's advance exactly) stops its
// installed tokens from ever aging, so the a-node's kill switch never
// fires — the one mechanism BTI rests on — and the checker must flag
// the robot with tick, robot, and active-fault context.
func TestChaosCheckerDetectsSuppressedSafeMode(t *testing.T) {
	attackerID := wire.RobotID(3) // flocking default: slot 2
	cfg := ChaosConfig{
		Controller: "flocking",
		Profile:    faultinject.ProfileNone,
		Seed:       1,
		ExtraFaults: []faultinject.Fault{{
			Kind:         faultinject.ClockSkew,
			Start:        70, // before the tick-80 attack
			Duration:     4000,
			Targets:      []wire.RobotID{attackerID},
			DriftPer1024: -1024,
		}},
	}
	r := RunChaos(cfg)
	v := r.Violation
	if v == nil {
		t.Fatal("frozen-clock attacker evaded Safe Mode but no violation reported")
	}
	if v.Invariant != "bti" {
		t.Fatalf("invariant = %q, want bti (%v)", v.Invariant, v)
	}
	if v.Robot != attackerID {
		t.Errorf("violation robot = %d, want %d", v.Robot, attackerID)
	}
	if v.Tick == 0 {
		t.Error("violation has no tick")
	}
	found := false
	for _, f := range v.ActiveFaults {
		if strings.Contains(f, "clock-skew") {
			found = true
		}
	}
	if !found {
		t.Errorf("violation lacks the injected fault context: %v", v.ActiveFaults)
	}
	msg := v.Error()
	if !strings.Contains(msg, "tick") || !strings.Contains(msg, "robot 3") {
		t.Errorf("Error() lacks tick/robot context: %s", msg)
	}

	// The violation must arrive as a self-contained forensic report:
	// the offending robot's flight-recorder dump rides along, showing
	// the protocol history that led here — the attacker kept earning
	// tokens (its frozen clock keeps them fresh forever) and never
	// entered Safe Mode.
	if len(v.Events) == 0 {
		t.Fatal("violation carries no flight-recorder dump")
	}
	kinds := make(map[obs.EventKind]int)
	for _, e := range v.Events {
		if e.Robot != attackerID {
			t.Fatalf("dump contains another robot's event: %v", e)
		}
		kinds[e.Kind]++
	}
	if kinds[obs.EvTokenGranted] == 0 {
		t.Errorf("dump lacks the attacker's token-grant history: %v", kinds)
	}
	if kinds[obs.EvAuditRoundStart] == 0 {
		t.Errorf("dump lacks the attacker's audit-round history: %v", kinds)
	}
	if kinds[obs.EvSafeModeEntered] != 0 {
		t.Errorf("frozen-clock attacker must never reach Safe Mode, dump says otherwise")
	}
	if !strings.Contains(msg, "flight recorder") || !strings.Contains(msg, "token-granted") {
		t.Errorf("Error() does not render the flight dump:\n%s", msg)
	}
}

// TestKnownFalsePositiveLatches keeps the cells in which a correct,
// intact robot is Safe-Moded on the books (ROADMAP item 1: 24 of the
// 5 376 cells (0.45 %) of seeds 1..256 × 21, at 17 seeds, latch
// no-false-positive, and so does {flocking, mixed, seed 4, 30 s,
// attack at 5 s}; cause not yet triaged; the soak's 12 seeds never
// reach them). Each row asserts today's latch exactly, so the PR that
// fixes or reclassifies one has to edit its row — a latching seed is
// never silently lost.
func TestKnownFalsePositiveLatches(t *testing.T) {
	cases := []struct {
		controller string
		profile    faultinject.Profile
		seed       uint64
		tick       wire.Tick
		robot      wire.RobotID
	}{
		{"flocking", faultinject.ProfileMixed, 15, 158, 6},
		{"patrol", faultinject.ProfileLoss, 122, 125, 5},
		{"warehouse", faultinject.ProfileSkew, 24, 206, 6},
	}
	for _, tc := range cases {
		cfg := ChaosConfig{Controller: tc.controller, Profile: tc.profile, Seed: tc.seed}
		t.Run(cfg.Label(), func(t *testing.T) {
			t.Parallel()
			v := RunChaos(cfg).Violation
			if v == nil {
				t.Fatalf("no violation: the cell no longer latches — drop the row and ROADMAP item 1's seed")
			}
			if v.Invariant != "no-false-positive" || v.Tick != tc.tick || v.Robot != tc.robot {
				t.Fatalf("latched %s at tick %d robot %d, want no-false-positive at tick %d robot %d",
					v.Invariant, v.Tick, v.Robot, tc.tick, tc.robot)
			}
		})
	}
}
