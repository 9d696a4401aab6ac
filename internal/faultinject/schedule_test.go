package faultinject

import (
	"reflect"
	"strings"
	"testing"

	"roborebound/internal/wire"
)

func allIDs(n int) []wire.RobotID {
	ids := make([]wire.RobotID, n)
	for i := range ids {
		ids[i] = wire.RobotID(i + 1)
	}
	return ids
}

func TestGenerateDeterministic(t *testing.T) {
	lim := Limits{TVal: 40, TAudit: 16}
	for _, p := range Profiles() {
		a := Generate(p, 7, allIDs(9), 240, lim)
		b := Generate(p, 7, allIDs(9), 240, lim)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same (profile, seed) produced different schedules", p)
		}
		c := Generate(p, 8, allIDs(9), 240, lim)
		if p != ProfileNone && reflect.DeepEqual(a.Faults, c.Faults) {
			t.Errorf("%s: different seeds produced identical schedules", p)
		}
	}
}

func TestGenerateRespectsWindowsAndAvoid(t *testing.T) {
	lim := Limits{TVal: 40, TAudit: 16, Avoid: []wire.RobotID{3}}
	lo, hi := wire.Tick(56), wire.Tick(200)
	for _, p := range Profiles() {
		for seed := uint64(1); seed <= 20; seed++ {
			s := Generate(p, seed, allIDs(9), 240, lim)
			for _, f := range s.Faults {
				if f.Start < lo {
					t.Fatalf("%s seed=%d: %s starts before the grace window (%d)", p, seed, &f, lo)
				}
				if f.Kind != Crash && f.Start+f.Duration > hi {
					t.Fatalf("%s seed=%d: %s overruns the cooldown window (%d)", p, seed, &f, hi)
				}
				for _, id := range f.Targets {
					if id == 3 {
						t.Fatalf("%s seed=%d: %s targets avoided robot 3", p, seed, &f)
					}
				}
			}
		}
	}
}

func TestGenerateProfileShapes(t *testing.T) {
	lim := Limits{TVal: 40, TAudit: 16}
	if n := len(Generate(ProfileNone, 1, allIDs(6), 240, lim).Faults); n != 0 {
		t.Errorf("none profile generated %d faults", n)
	}
	kinds := func(s Schedule) map[Kind]int {
		m := make(map[Kind]int)
		for _, f := range s.Faults {
			m[f.Kind]++
		}
		return m
	}
	k := kinds(Generate(ProfileMixed, 3, allIDs(9), 240, lim))
	for _, want := range []Kind{LossBurst, Partition, ClockSkew, WithholdAudit, DelayAudit} {
		if k[want] == 0 {
			t.Errorf("mixed profile missing %s fault", want)
		}
	}
	if k := kinds(Generate(ProfileCrash, 3, allIDs(9), 240, lim)); k[Crash] != 1 {
		t.Errorf("crash profile generated %d crashes, want 1", k[Crash])
	}
}

// TestSchedulableIsGeneratesBound holds Schedulable to Generate: around
// the 2·TVal + TAudit edge, every faulting profile generates a fault
// exactly when Schedulable says it can, for explicit and default limits.
func TestSchedulableIsGeneratesBound(t *testing.T) {
	for _, lim := range []Limits{{}, {TVal: 40, TAudit: 16}, {TVal: 20, TAudit: 8}} {
		edge := 2*lim.withDefaults().TVal + lim.withDefaults().TAudit
		for total := edge - 2; total <= edge+2; total++ {
			want := total > edge
			if got := Schedulable(total, lim); got != want {
				t.Errorf("%+v: Schedulable(%d) = %v, want %v", lim, total, got, want)
			}
			for _, p := range Profiles() {
				if p == ProfileNone {
					continue
				}
				if got := len(Generate(p, 1, allIDs(9), total, lim).Faults) > 0; got != want {
					t.Errorf("%+v: %s over %d ticks generated faults = %v, Schedulable = %v", lim, p, total, got, want)
				}
			}
		}
	}
}

func TestFaultActiveAtAndString(t *testing.T) {
	f := Fault{Kind: Partition, Start: 100, Duration: 10, Targets: []wire.RobotID{2, 5}}
	for _, tc := range []struct {
		now    wire.Tick
		active bool
	}{{99, false}, {100, true}, {109, true}, {110, false}} {
		if got := f.ActiveAt(tc.now); got != tc.active {
			t.Errorf("ActiveAt(%d) = %v, want %v", tc.now, got, tc.active)
		}
	}
	crash := Fault{Kind: Crash, Start: 50, Targets: []wire.RobotID{1}}
	if !crash.ActiveAt(5000) {
		t.Error("crash fault should be active forever after Start")
	}
	if got := f.String(); got != "partition@[100,110) targets{2,5}" {
		t.Errorf("String() = %q", got)
	}
	if !f.TargetsRobot(2) || f.TargetsRobot(3) {
		t.Error("TargetsRobot wrong for explicit target list")
	}
	if !(&Fault{Kind: LossBurst}).TargetsRobot(7) {
		t.Error("empty target list must mean everyone")
	}
}

func TestLossModelComposes(t *testing.T) {
	now := wire.Tick(0)
	s := &Schedule{
		BaseLoss: 0.1,
		Faults: []Fault{
			{Kind: LossBurst, Start: 10, Duration: 10, Rate: 0.5},
			{Kind: LinkLoss, Start: 10, Duration: 10, Rate: 0.5, Targets: []wire.RobotID{2}},
		},
	}
	lm := s.LossModel(func() wire.Tick { return now })
	if lm == nil {
		t.Fatal("schedule with loss faults returned nil LossModel")
	}
	// Outside the window only the base rate applies (drop iff
	// draw < P, the same tail as radio.UniformLoss).
	if !lm.Drop(1, 3, 0.05) || lm.Drop(1, 3, 0.15) {
		t.Error("base rate not applied outside fault windows")
	}
	now = 10
	// Burst only on a link not touching robot 2: P = 1-0.9*0.5 = 0.55.
	if !lm.Drop(1, 3, 0.54) || lm.Drop(1, 3, 0.56) {
		t.Error("burst composition wrong on untargeted link")
	}
	// Burst + link loss on a link touching robot 2: P = 1-0.9*0.25 = 0.775.
	if !lm.Drop(1, 2, 0.77) || lm.Drop(1, 2, 0.78) {
		t.Error("burst+link composition wrong on targeted link")
	}
	if (&Schedule{}).LossModel(func() wire.Tick { return 0 }) != nil {
		t.Error("empty schedule must return nil LossModel")
	}
}

func TestLinkFilterPartition(t *testing.T) {
	now := wire.Tick(20)
	s := &Schedule{Faults: []Fault{
		{Kind: Partition, Start: 10, Duration: 20, Targets: []wire.RobotID{1, 2}},
	}}
	lf := s.LinkFilter(func() wire.Tick { return now })
	if lf == nil {
		t.Fatal("nil LinkFilter")
	}
	app := wire.Frame{Src: 1, Dst: 3, Payload: []byte{1}}
	if !lf(1, 3, app) {
		t.Error("partition must block frames crossing the boundary")
	}
	if lf(1, 2, app) || lf(3, 4, app) {
		t.Error("partition must not block frames inside either side")
	}
	now = 40
	if lf(1, 3, app) {
		t.Error("partition must deactivate outside the window")
	}
}

func TestLinkFilterWithholdAudit(t *testing.T) {
	now := wire.Tick(20)
	s := &Schedule{Faults: []Fault{
		{Kind: WithholdAudit, Start: 10, Duration: 20, Targets: []wire.RobotID{5}},
	}}
	lf := s.LinkFilter(func() wire.Tick { return now })
	resp := wire.AuditResponse{Auditor: 5, Auditee: 1, OK: true}
	auditFrame := wire.Frame{Src: 5, Dst: 1, Flags: wire.FlagAudit, Payload: resp.Encode()}
	if !lf(5, 1, auditFrame) {
		t.Error("withhold-audit must block the target's audit responses")
	}
	if lf(5, 1, wire.Frame{Src: 5, Dst: 1, Payload: []byte{1}}) {
		t.Error("withhold-audit must not block application frames")
	}
	if lf(3, 1, auditFrame) {
		t.Error("withhold-audit must not block other robots' responses")
	}
	now = 40
	if lf(5, 1, auditFrame) {
		t.Error("withhold must deactivate outside the window")
	}
}

func TestTxDelayDelaysAuditResponsesOnly(t *testing.T) {
	s := &Schedule{Faults: []Fault{
		{Kind: DelayAudit, Start: 10, Duration: 20, Targets: []wire.RobotID{4}, DelayTicks: 5},
	}}
	td := s.TxDelay(func() wire.Tick { return 15 })
	if td == nil {
		t.Fatal("nil TxDelay")
	}
	resp := wire.AuditResponse{Auditor: 4, Auditee: 1, OK: true}
	auditFrame := wire.Frame{Src: 4, Dst: 1, Flags: wire.FlagAudit, Payload: resp.Encode()}
	if got := td(4, auditFrame); got != 5 {
		t.Errorf("delay = %d, want 5", got)
	}
	if got := td(4, wire.Frame{Src: 4, Dst: 1, Payload: []byte{1}}); got != 0 {
		t.Errorf("app frame delayed by %d", got)
	}
	if got := td(3, auditFrame); got != 0 {
		t.Errorf("untargeted robot delayed by %d", got)
	}
}

func TestClockSkewAndDrift(t *testing.T) {
	now := wire.Tick(0)
	base := func() wire.Tick { return now }
	s := &Schedule{Faults: []Fault{
		{Kind: ClockSkew, Start: 100, Duration: 1024, Targets: []wire.RobotID{2}, OffsetTicks: -8, DriftPer1024: 512},
	}}
	if s.Clock(1, base) != nil {
		t.Error("untargeted robot must keep the engine clock (nil)")
	}
	clk := s.Clock(2, base)
	if clk == nil {
		t.Fatal("targeted robot got nil clock")
	}
	now = 50
	if got := clk(); got != 50 {
		t.Errorf("before the window: clock = %d, want 50", got)
	}
	now = 100
	if got := clk(); got != 92 {
		t.Errorf("at window start: clock = %d, want 92", got)
	}
	now = 612 // 512 ticks in: drift adds 512*512/1024 = 256
	if got := clk(); got != 612-8+256 {
		t.Errorf("mid-window: clock = %d, want %d", got, 612-8+256)
	}
	// A skew below zero clamps (wire.Tick is unsigned).
	neg := &Schedule{Faults: []Fault{
		{Kind: ClockSkew, Start: 0, Duration: 100, Targets: []wire.RobotID{2}, OffsetTicks: -1000},
	}}
	now = 10
	if got := neg.Clock(2, base)(); got != 0 {
		t.Errorf("negative clock must clamp to 0, got %d", got)
	}
}

func TestCrashTargetsAndEnvDisturbed(t *testing.T) {
	s := &Schedule{Faults: []Fault{
		{Kind: Crash, Start: 120, Targets: []wire.RobotID{4}},
		{Kind: Crash, Start: 90, Targets: []wire.RobotID{4, 7}},
		{Kind: LossBurst, Start: 60, Duration: 10, Rate: 0.5},
		{Kind: ClockSkew, Start: 150, Duration: 50, Targets: []wire.RobotID{1}},
	}}
	ct := s.CrashTargets()
	if ct[4] != 90 || ct[7] != 90 || len(ct) != 2 {
		t.Errorf("CrashTargets = %v", ct)
	}
	if _, ok := s.EnvDisturbedAt(50); ok {
		t.Error("nothing active or past at tick 50")
	}
	if at, ok := s.EnvDisturbedAt(80); !ok || at != 69 {
		t.Errorf("EnvDisturbedAt(80) = %d,%v; want 69 (burst end)", at, ok)
	}
	// Crashes disturb forever; clock skew never does.
	if at, ok := s.EnvDisturbedAt(500); !ok || at != 500 {
		t.Errorf("EnvDisturbedAt(500) = %d,%v; want 500 (crash ongoing)", at, ok)
	}
}

func TestScheduleDescribe(t *testing.T) {
	s := Generate(ProfileMixed, 5, allIDs(9), 240, Limits{TVal: 40, TAudit: 16})
	if len(s.Strings()) != len(s.Faults) {
		t.Fatal("Strings() length mismatch")
	}
	found := false
	for now := wire.Tick(0); now < 240; now++ {
		for _, d := range s.Describe(now) {
			found = true
			if !strings.Contains(d, "@[") {
				t.Errorf("Describe entry %q missing window", d)
			}
		}
	}
	if !found {
		t.Error("mixed schedule never active")
	}
}
