package roborebound

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"roborebound/internal/core"
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

// TestRunChaosRefusesBadCells: RunChaos refuses a cell with a negative
// robot count or duration by panicking with Check's error, which names
// the field and its value, before it builds anything.
func TestRunChaosRefusesBadCells(t *testing.T) {
	for _, c := range []struct {
		cfg  ChaosConfig
		want string
	}{
		{ChaosConfig{N: -1, DurationSec: 20}, "negative chaos N -1"},
		{ChaosConfig{DurationSec: -1}, "out-of-range chaos DurationSec -1"},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.want) {
					t.Errorf("RunChaos(N %d, DurationSec %g): recovered %q, want a panic containing %q", c.cfg.N, c.cfg.DurationSec, msg, c.want)
				}
			}()
			RunChaos(c.cfg)
		}()
	}
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
	oracle := newLatchOracle(attackerID)
	cfg.Trace = oracle
	r := RunChaos(cfg)
	v := r.Violation
	if v == nil {
		t.Fatal("frozen-clock attacker evaded Safe Mode but no violation reported")
	}
	oracle.check(t, v)
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

// latchOracle is a live flight recorder on the robot a cell is known
// to latch, attached as the cell's Trace, that freezes its dump when
// the checker's violation marker goes by: the dump a recorder running
// all along would hand the checker at the latch, which the rebuilt
// Violation.Events must equal.
type latchOracle struct {
	rec    *obs.FlightRecorder
	dump   []obs.Event
	frozen bool
}

func newLatchOracle(robot wire.RobotID) *latchOracle {
	return &latchOracle{rec: obs.NewFlightRecorder(robot)}
}

func (o *latchOracle) Emit(e obs.Event) {
	if e.Kind == obs.EvInvariantViolation && !o.frozen {
		o.dump, o.frozen = o.rec.Events(), true
	}
	o.rec.Emit(e)
}

// check fails t unless v carries a non-empty dump equal to the frozen one.
func (o *latchOracle) check(t *testing.T, v *faultinject.Violation) {
	t.Helper()
	switch {
	case !o.frozen:
		t.Error("the checker emitted no violation marker")
	case len(v.Events) == 0:
		t.Error("the violation carries no flight-recorder dump")
	case !slices.Equal(v.Events, o.dump):
		t.Errorf("the rebuilt dump (%d events) is not the live recorder's at the latch (%d events)", len(v.Events), len(o.dump))
	}
}

// knownFalsePositiveLatch is one cell in which a correct, intact robot
// is Safe-Moded: the no-false-positive latch it makes, at tick and
// robot.
type knownFalsePositiveLatch struct {
	controller string
	profile    faultinject.Profile
	seed       uint64
	tick       wire.Tick
	robot      wire.RobotID
	// Zero keeps RunChaos's 60 s run and 20 s attack: a census cell.
	durationSec, attackAtSec float64
	// minimal is the latch's 1-minimal schedule, as Fault.String renders
	// it: the entries of the generated schedule, in order, that replayed
	// as ExtraFaults under Profile none make the same latch, and without
	// any one of which it is not made (ddmin's result).
	minimal []string
	cause   latchCause
}

// latchCause classes a known latch by the counterfactual that explains
// it; TestLatchCausesHoldTheirCounterfactual runs each class's.
type latchCause string

const (
	// causeClockStep: the victim's trusted clock steps forward mid-run
	// (a negative offset at its window's end, a positive one at its
	// start), ageing every token it holds at once. With every skew
	// entry of the generated schedule held from power-up to the end of
	// the run — same offset and drift, no step — the cell is clean.
	causeClockStep latchCause = "clock-step"
	// causeJointLoss: overlapping loss bursts and link loss, no skew in
	// the schedule; no entry of the minimal schedule latches on its own.
	causeJointLoss latchCause = "joint-loss"
	// causeHiddenLatch: with the skews held from power-up this robot is
	// covered, but another correct robot latches — a second latch the
	// first one hid (patrol/mixed/207: robot 4 at tick 156).
	causeHiddenLatch latchCause = "hidden-latch"
)

func (l knownFalsePositiveLatch) config() ChaosConfig {
	return ChaosConfig{Controller: l.controller, Profile: l.profile, Seed: l.seed,
		DurationSec: l.durationSec, AttackAtSec: l.attackAtSec}
}

// schedule is the fault schedule the row's profile generates, drawn as
// RunChaos draws it.
func (l knownFalsePositiveLatch) schedule() []faultinject.Fault {
	return chaosSchedule(l.config().withDefaults(), core.DefaultConfig(TicksPerSecond)).Faults
}

// replay runs the row's cell under Profile none with faults as its
// whole schedule and returns the violation it latches, if any.
func (l knownFalsePositiveLatch) replay(faults []faultinject.Fault) *faultinject.Violation {
	cfg := l.config()
	cfg.Profile = faultinject.ProfileNone
	cfg.ExtraFaults = faults
	return RunChaos(cfg).Violation
}

// is reports whether v is exactly this row's latch.
func (l knownFalsePositiveLatch) is(v *faultinject.Violation) bool {
	return v != nil && v.Invariant == "no-false-positive" && v.Tick == l.tick && v.Robot == l.robot
}

// minimalFaults picks the row's minimal schedule out of the generated
// one, failing t unless every pinned entry is there, in order.
func (l knownFalsePositiveLatch) minimalFaults(t *testing.T) []faultinject.Fault {
	t.Helper()
	var picked []faultinject.Fault
	var names []string
	for _, f := range l.schedule() {
		if slices.Contains(l.minimal, f.String()) {
			picked, names = append(picked, f), append(names, f.String())
		}
	}
	if len(l.minimal) == 0 || !slices.Equal(names, l.minimal) {
		t.Fatalf("the generated schedule holds %q of the pinned minimal schedule %q", names, l.minimal)
	}
	return picked
}

// check fails t unless v is exactly this latch.
func (l knownFalsePositiveLatch) check(t *testing.T, v *faultinject.Violation) {
	t.Helper()
	if v == nil {
		t.Errorf("%s: no violation: the cell no longer latches — fix or reclassify the row, and ROADMAP item 1's census with it", l.config().Label())
		return
	}
	if v.Invariant != "no-false-positive" || v.Tick != l.tick || v.Robot != l.robot {
		t.Errorf("%s: latched %s at tick %d robot %d, want no-false-positive at tick %d robot %d — fix or reclassify the row",
			l.config().Label(), v.Invariant, v.Tick, v.Robot, l.tick, l.robot)
	}
}

// knownFalsePositiveLatches are the cells in which a correct, intact
// robot is Safe-Moded (ROADMAP item 1): the 24 of the 5 376 cells
// (0.45 %) of seeds 1..256 × 21, at 17 seeds, that latch
// no-false-positive at the chaos defaults — the census, which `make
// soak` re-runs — and {flocking, mixed, seed 4, 30 s, attack at 5 s}.
// The soak matrix's 12 seeds never reach them. Each row carries its
// 1-minimal schedule and its cause: 20 are clock steps, four are joint
// loss, one hides another latch. The rows are grouped by how many
// faults the census saw active at the latch tick.
var knownFalsePositiveLatches = func() []knownFalsePositiveLatch {
	const (
		mixed = faultinject.ProfileMixed
		skew  = faultinject.ProfileSkew
		loss  = faultinject.ProfileLoss
	)
	return []knownFalsePositiveLatch{
		// No fault active at the latch tick.
		{controller: "flocking", profile: mixed, seed: 15, tick: 158, robot: 6,
			cause: causeClockStep, minimal: []string{
				"clock-skew@[105,152) targets{6} offset=-16 drift=+15/1024",
			}},
		{controller: "patrol", profile: skew, seed: 24, tick: 206, robot: 6,
			cause: causeClockStep, minimal: []string{
				"clock-skew@[126,193) targets{2,6} offset=-10 drift=-14/1024",
				"clock-skew@[186,200) targets{6} offset=-8 drift=+11/1024",
			}},
		{controller: "warehouse", profile: skew, seed: 24, tick: 206, robot: 6,
			cause: causeClockStep, minimal: []string{
				"clock-skew@[126,193) targets{3,6} offset=-10 drift=-14/1024",
				"clock-skew@[186,200) targets{6} offset=-8 drift=+11/1024",
			}},
		{controller: "patrol", profile: mixed, seed: 131, tick: 188, robot: 1,
			cause: causeClockStep, minimal: []string{
				"clock-skew@[127,188) targets{1} offset=-14 drift=-3/1024",
				"loss-burst@[175,187) rate=0.52",
			}},
		{controller: "patrol", profile: mixed, seed: 137, tick: 206, robot: 6,
			cause: causeClockStep, minimal: []string{
				"clock-skew@[144,200) targets{6} offset=-16 drift=-8/1024",
				"partition@[193,200) targets{2}",
			}},
		{controller: "warehouse", profile: mixed, seed: 137, tick: 206, robot: 6,
			cause: causeClockStep, minimal: []string{
				"clock-skew@[144,200) targets{6} offset=-16 drift=-8/1024",
				"partition@[193,200) targets{3}",
			}},
		{controller: "warehouse", profile: mixed, seed: 255, tick: 126, robot: 3,
			cause: causeClockStep, minimal: []string{
				"clock-skew@[70,116) targets{3,4} offset=-12 drift=-1/1024",
				"withhold-audit@[96,124) targets{5}",
			}},
		// One fault active.
		{controller: "flocking", profile: skew, seed: 118, tick: 137, robot: 7,
			cause: causeClockStep, minimal: []string{
				"clock-skew@[84,134) targets{7} offset=-16 drift=-10/1024",
				"clock-skew@[131,184) targets{7} offset=+6 drift=+6/1024",
			}},
		{controller: "patrol", profile: loss, seed: 122, tick: 125, robot: 5,
			cause: causeJointLoss, minimal: []string{
				"loss-burst@[102,112) rate=0.37",
				"loss-burst@[103,112) rate=0.34",
				"loss-burst@[105,116) rate=0.45",
				"link-loss@[119,148) targets{5} rate=0.24",
			}},
		{controller: "flocking", profile: loss, seed: 229, tick: 90, robot: 2,
			cause: causeJointLoss, minimal: []string{
				"loss-burst@[65,77) rate=0.49",
				"loss-burst@[66,78) rate=0.39",
				"loss-burst@[79,90) rate=0.36",
				"link-loss@[82,100) targets{2} rate=0.18",
			}},
		{controller: "patrol", profile: mixed, seed: 29, tick: 142, robot: 5,
			cause: causeClockStep, minimal: []string{
				"clock-skew@[95,142) targets{1,5} offset=-16 drift=-7/1024",
				"partition@[133,142) targets{5}",
			}},
		{controller: "warehouse", profile: mixed, seed: 29, tick: 142, robot: 5,
			cause: causeClockStep, minimal: []string{
				"clock-skew@[95,142) targets{2,5} offset=-16 drift=-7/1024",
				"partition@[133,142) targets{5}",
			}},
		{controller: "patrol", profile: mixed, seed: 139, tick: 169, robot: 1,
			cause: causeClockStep, minimal: []string{
				"clock-skew@[129,147) targets{1} offset=-12 drift=-13/1024",
				"loss-burst@[162,172) rate=0.52",
			}},
		{controller: "warehouse", profile: mixed, seed: 139, tick: 170, robot: 2,
			cause: causeClockStep, minimal: []string{
				"clock-skew@[129,147) targets{2} offset=-12 drift=-13/1024",
				"loss-burst@[162,172) rate=0.52",
			}},
		{controller: "warehouse", profile: loss, seed: 203, tick: 187, robot: 3,
			cause: causeJointLoss, minimal: []string{
				"loss-burst@[161,169) rate=0.43",
				"loss-burst@[168,178) rate=0.41",
				"loss-burst@[181,193) rate=0.54",
			}},
		{controller: "patrol", profile: mixed, seed: 255, tick: 122, robot: 2,
			cause: causeClockStep, minimal: []string{
				"clock-skew@[70,116) targets{2,4} offset=-12 drift=-1/1024",
				"withhold-audit@[96,124) targets{5}",
			}},
		// Two faults active.
		{controller: "patrol", profile: skew, seed: 218, tick: 139, robot: 2,
			cause: causeClockStep, minimal: []string{
				"clock-skew@[130,151) targets{2} offset=+8 drift=+5/1024",
				"clock-skew@[138,200) targets{2} offset=+7 drift=-1/1024",
			}},
		{controller: "warehouse", profile: skew, seed: 218, tick: 140, robot: 3,
			cause: causeClockStep, minimal: []string{
				"clock-skew@[130,151) targets{3} offset=+8 drift=+5/1024",
				"clock-skew@[138,200) targets{3} offset=+7 drift=-1/1024",
			}},
		{controller: "flocking", profile: mixed, seed: 56, tick: 156, robot: 4,
			cause: causeClockStep, minimal: []string{
				"clock-skew@[91,153) targets{2,4} offset=-8 drift=+13/1024",
				"loss-burst@[144,155) rate=0.41",
			}},
		{controller: "patrol", profile: mixed, seed: 80, tick: 93, robot: 6,
			cause: causeClockStep, minimal: []string{
				"delay-audit@[64,120) targets{4} delay=3",
				"clock-skew@[70,144) targets{4,6} offset=+1 drift=+2/1024",
				"loss-burst@[81,93) rate=0.46",
			}},
		{controller: "patrol", profile: mixed, seed: 162, tick: 147, robot: 2,
			cause: causeClockStep, minimal: []string{
				"delay-audit@[104,164) targets{1} delay=6",
				"loss-burst@[132,143) rate=0.55",
				"clock-skew@[140,170) targets{2,6} offset=+7 drift=+0/1024",
			}},
		{controller: "warehouse", profile: loss, seed: 198, tick: 106, robot: 2,
			cause: causeJointLoss, minimal: []string{
				"loss-burst@[82,92) rate=0.42",
				"link-loss@[89,112) targets{2,4} rate=0.23",
				"loss-burst@[95,107) rate=0.52",
			}},
		// Three faults active.
		{controller: "patrol", profile: mixed, seed: 207, tick: 151, robot: 5,
			cause: causeHiddenLatch, minimal: []string{
				"clock-skew@[128,167) targets{5} offset=+6 drift=-6/1024",
				"withhold-audit@[134,166) targets{2}",
				"loss-burst@[135,146) rate=0.46",
				"partition@[149,158) targets{5}",
			}},
		{controller: "warehouse", profile: mixed, seed: 207, tick: 154, robot: 5,
			cause: causeClockStep, minimal: []string{
				"clock-skew@[128,167) targets{5} offset=+6 drift=-6/1024",
				"withhold-audit@[134,166) targets{3}",
				"loss-burst@[135,146) rate=0.46",
				"partition@[149,158) targets{5}",
			}},
		// Outside the census: a short run with an early attacker.
		{controller: "flocking", profile: mixed, seed: 4, tick: 76, robot: 8, durationSec: 30, attackAtSec: 5,
			cause: causeClockStep, minimal: []string{
				"clock-skew@[56,80) targets{2,8} offset=+4 drift=-5/1024",
				"partition@[66,74) targets{1}",
				"withhold-audit@[70,80) targets{6}",
				"loss-burst@[72,80) rate=0.47",
			}},
	}
}()

// TestKnownFalsePositiveLatches keeps every known latch on the books:
// each row asserts today's latch exactly, so the PR that fixes or
// reclassifies one has to edit its row — a latching seed is never
// silently lost. Each row's dump, rebuilt by re-running the cell, must
// be the one a recorder watching the run held at the latch.
func TestKnownFalsePositiveLatches(t *testing.T) {
	for _, l := range knownFalsePositiveLatches {
		t.Run(l.config().Label(), func(t *testing.T) {
			t.Parallel()
			cfg := l.config()
			oracle := newLatchOracle(l.robot)
			cfg.Trace = oracle
			v := RunChaos(cfg).Violation
			l.check(t, v)
			if v != nil {
				oracle.check(t, v)
			}
		})
	}
}

// TestResumedLatchCarriesTheFullDump: a row's cell captured 8 ticks
// before its latch, resumed, latches with the very report the
// uninterrupted cell makes, dump included — the dump is rebuilt from
// tick 0, not from what the resumed run saw.
func TestResumedLatchCarriesTheFullDump(t *testing.T) {
	for _, l := range knownFalsePositiveLatches {
		t.Run(l.config().Label(), func(t *testing.T) {
			t.Parallel()
			cfg := l.config()
			cfg.SnapshotAtTicks = []wire.Tick{l.tick - 8}
			cell := RunChaos(cfg)
			if cell.Violation == nil || len(cell.Snapshots) != 1 {
				t.Fatalf("latched %v, %d captures", cell.Violation, len(cell.Snapshots))
			}
			resumed, err := ResumeChaosSnapshot(cell.Snapshots[0].Data, nil)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Violation == nil {
				t.Fatalf("resumed from tick %d, no latch", l.tick-8)
			}
			if got, want := resumed.Violation.Error(), cell.Violation.Error(); got != want {
				t.Errorf("resumed from tick %d, the report differs (%d events, uninterrupted %d):\n%s",
					l.tick-8, len(resumed.Violation.Events), len(cell.Violation.Events), got)
			}
		})
	}
}

// TestLatchRerunMismatchIsReported: a re-run whose latch is not the
// violation being explained is a determinism bug, and explainLatch
// says which latch it found instead of handing over a dump.
func TestLatchRerunMismatchIsReported(t *testing.T) {
	l := knownFalsePositiveLatches[0]
	cfg := l.config().withDefaults()
	wrong := &faultinject.Violation{Invariant: "no-false-positive", Tick: l.tick - 1, Robot: l.robot}
	events, err := explainLatch(cfg, wrong)
	if err == nil || events != nil || !strings.Contains(err.Error(), "latched no-false-positive at tick") {
		t.Errorf("explaining a latch the re-run does not make: %d events, error %v", len(events), err)
	}
	quiet := ChaosConfig{Controller: "flocking", Profile: faultinject.ProfileNone, Seed: 1, DurationSec: 30}.withDefaults()
	events, err = explainLatch(quiet, wrong)
	if err == nil || events != nil || !strings.Contains(err.Error(), "did not latch") {
		t.Errorf("explaining a latch in a cell that never latches: %d events, error %v", len(events), err)
	}
}

// TestLatchSchedulesReplayAsExtraFaults is ROADMAP item 1's "verify
// first": each known latch, rerun under Profile none with the schedule
// its profile generated passed verbatim as ExtraFaults, is the same run
// — the same fingerprint and the same violation. chaosSchedule draws
// the schedule as RunChaos does (roster, run length, TVal/TAudit, the
// attackers avoided), so the replay differs from the cell only in what
// else Profile feeds: the label and a snapshot's config echo.
func TestLatchSchedulesReplayAsExtraFaults(t *testing.T) {
	for _, l := range knownFalsePositiveLatches {
		t.Run(l.config().Label(), func(t *testing.T) {
			t.Parallel()
			cell := RunChaos(l.config())
			replay := l.config()
			replay.Profile = faultinject.ProfileNone
			replay.ExtraFaults = l.schedule()
			got := RunChaos(replay)
			if len(replay.ExtraFaults) == 0 || !slices.Equal(got.Schedule, cell.Schedule) {
				t.Fatalf("replayed schedule %q, the cell's %q", got.Schedule, cell.Schedule)
			}
			if got.Metrics.Fingerprint != cell.Metrics.Fingerprint {
				t.Errorf("replay fingerprint %s, the cell's %s", got.Metrics.Fingerprint, cell.Metrics.Fingerprint)
			}
			l.check(t, got.Violation)
		})
	}
}

// ddmin is Zeller and Hildebrandt's delta debugging ("Simplifying and
// Isolating Failure-Inducing Input", TSE 2002) over a fault list: it
// returns a subset on which fails still holds and from which removing
// any one entry makes it stop holding — 1-minimal — provided fails
// holds on the whole list. Subsets keep the list's order.
func ddmin(faults []faultinject.Fault, fails func([]faultinject.Fault) bool) []faultinject.Fault {
	if fails(nil) {
		return nil
	}
	n := 2
	for len(faults) >= 2 {
		n = min(n, len(faults))
		var subsets, complements [][]faultinject.Fault
		for i := 0; i < n; i++ {
			lo, hi := i*len(faults)/n, (i+1)*len(faults)/n
			subsets = append(subsets, faults[lo:hi])
			complements = append(complements, append(slices.Clone(faults[:lo]), faults[hi:]...))
		}
		if i := slices.IndexFunc(subsets, fails); i >= 0 {
			faults, n = subsets[i], 2
		} else if i := slices.IndexFunc(complements, fails); i >= 0 {
			faults, n = complements[i], max(n-1, 2)
		} else if n < len(faults) {
			n *= 2
		} else {
			return faults
		}
	}
	return faults
}

// TestDDMinFindsTheOneMinimalCause: over ten entries where failing
// needs the entries starting at ticks 3 and 7 together, ddmin returns
// exactly those two; with a failure that needs nothing, nothing.
func TestDDMinFindsTheOneMinimalCause(t *testing.T) {
	var faults []faultinject.Fault
	for i := 0; i < 10; i++ {
		faults = append(faults, faultinject.Fault{Kind: faultinject.ClockSkew, Start: wire.Tick(i)})
	}
	runs := 0
	needs := func(starts ...wire.Tick) func([]faultinject.Fault) bool {
		return func(fs []faultinject.Fault) bool {
			runs++
			for _, s := range starts {
				if !slices.ContainsFunc(fs, func(f faultinject.Fault) bool { return f.Start == s }) {
					return false
				}
			}
			return true
		}
	}
	got := ddmin(faults, needs(3, 7))
	if len(got) != 2 || got[0].Start != 3 || got[1].Start != 7 {
		t.Errorf("ddmin kept %v, want the entries starting at 3 and 7", got)
	}
	t.Logf("%d predicate runs", runs)
	if got := ddmin(faults, needs()); got != nil {
		t.Errorf("ddmin kept %v of a failure that needs no entry", got)
	}
}

// TestLatchSchedulesShrinkToOneMinimal is ROADMAP item 1(a): each
// row's pinned minimal schedule, picked out of the generated one and
// replayed as ExtraFaults under Profile none, makes the row's latch,
// and without any one of its entries it does not: it is 1-minimal.
// That ddmin still finds exactly these schedules is `make soak`'s
// TestLatchSchedulesDDMinToTheirMinimal (ddmin reruns a cell up to 32
// times a row).
func TestLatchSchedulesShrinkToOneMinimal(t *testing.T) {
	for _, l := range knownFalsePositiveLatches {
		t.Run(l.config().Label(), func(t *testing.T) {
			t.Parallel()
			minimal := l.minimalFaults(t)
			if v := l.replay(minimal); !l.is(v) {
				t.Fatalf("the minimal schedule latched %v, not the row's latch", v)
			}
			for i := range minimal {
				if l.is(l.replay(slices.Delete(slices.Clone(minimal), i, i+1))) {
					t.Errorf("still latches without entry %d (%s): not 1-minimal", i, l.minimal[i])
				}
			}
		})
	}
}

// TestLatchCausesHoldTheirCounterfactual is ROADMAP item 1(b): each
// row's cause is checked by running its class's counterfactual (see
// latchCause).
func TestLatchCausesHoldTheirCounterfactual(t *testing.T) {
	for _, l := range knownFalsePositiveLatches {
		t.Run(l.config().Label(), func(t *testing.T) {
			t.Parallel()
			run := wire.Tick(l.config().withDefaults().DurationSec * TicksPerSecond)
			held := l.schedule()
			skews := 0
			for i := range held {
				if held[i].Kind == faultinject.ClockSkew {
					held[i].Start, held[i].Duration = 0, run
					skews++
				}
			}
			switch l.cause {
			case causeClockStep:
				if v := l.replay(held); skews == 0 || v != nil {
					t.Errorf("%d skews held from power-up: latched %v, want a clean cell", skews, v)
				}
			case causeHiddenLatch:
				v := l.replay(held)
				if skews == 0 || v == nil || v.Invariant != "no-false-positive" || v.Robot == l.robot {
					t.Errorf("%d skews held from power-up: latched %v, want another robot's no-false-positive", skews, v)
				} else {
					t.Logf("held from power-up: %s", v.Error())
				}
			case causeJointLoss:
				if skews != 0 {
					t.Errorf("a joint-loss row's schedule holds %d skews", skews)
				}
				minimal := l.minimalFaults(t)
				for i, f := range minimal {
					if f.Kind != faultinject.LossBurst && f.Kind != faultinject.LinkLoss {
						t.Errorf("minimal entry %d (%s) is not a loss", i, l.minimal[i])
					}
					if v := l.replay(minimal[i : i+1]); v != nil {
						t.Errorf("minimal entry %d (%s) alone latches %v", i, l.minimal[i], v)
					}
				}
				if len(minimal) < 2 {
					t.Errorf("a joint-loss row's minimal schedule has %d entries", len(minimal))
				}
			default:
				t.Errorf("cause %q is no class", l.cause)
			}
		})
	}
}

// TestCrashFaultOnAttackerSlotIsIgnored: a Crash fault aimed at the
// deliberate attacker's slot (Generate never schedules one, Limits.Avoid
// excludes attackers, but ExtraFaults can) leaves the attacker as it
// is in every controller, so the cell runs exactly as it does without
// the fault.
func TestCrashFaultOnAttackerSlotIsIgnored(t *testing.T) {
	for _, ctrl := range []string{"flocking", "patrol", "warehouse"} {
		t.Run(ctrl, func(t *testing.T) {
			base := ChaosConfig{Controller: ctrl, Profile: faultinject.ProfileNone, Seed: 3, DurationSec: 40}
			attacker := wire.RobotID(base.withDefaults().AttackerSlots[0] + 1)
			crashed := base
			crashed.ExtraFaults = []faultinject.Fault{{
				Kind: faultinject.Crash, Start: 100, Targets: []wire.RobotID{attacker},
			}}
			want, got := RunChaos(base).Metrics, RunChaos(crashed).Metrics
			if got.Fingerprint != want.Fingerprint {
				t.Errorf("crash on attacker %d moved the fingerprint:\n  without %s\n  with    %s",
					attacker, want.Fingerprint, got.Fingerprint)
			}
			if got.Attackers != 1 || got.AttackersDisabled != want.AttackersDisabled {
				t.Errorf("attackers %d disabled %d, want 1 and %d",
					got.Attackers, got.AttackersDisabled, want.AttackersDisabled)
			}
		})
	}
}
