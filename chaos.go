package roborebound

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"

	"roborebound/internal/attack"
	"roborebound/internal/control"
	"roborebound/internal/core"
	"roborebound/internal/faultinject"
	"roborebound/internal/geom"
	"roborebound/internal/obs"
	"roborebound/internal/obs/perf"
	"roborebound/internal/radio"
	"roborebound/internal/runner"
	"roborebound/internal/wire"
)

// This file is the chaos-testing facade: one entry point that builds
// a (controller, fault profile, seed) cell, injects the generated
// fault schedule plus a deliberate Byzantine attacker, runs the
// mission with the faultinject.Checker watching every tick, and
// reports the first violated invariant (if any) together with
// deterministic metrics. RunChaosMatrix sweeps cells across the
// runner pool; parallelism never changes a single byte of any cell's
// result.

// Controllers lists the chaos cell's missions, in the order the chaos
// soak runs them.
func Controllers() []string { return []string{"flocking", "patrol", "warehouse"} }

// ChaosConfig describes one chaos cell. Zero values take defaults.
type ChaosConfig struct {
	// Controller selects the mission: "flocking" (default), "patrol",
	// or "warehouse".
	Controller string
	// Profile selects the generated fault mix (default
	// faultinject.ProfileMixed; faultinject.ProfileNone is the
	// control cell).
	Profile faultinject.Profile
	// Seed drives everything: placement, loss draws, and the fault
	// schedule itself. (config, seed) fully determines the run.
	Seed uint64
	// N is the number of robots (default 9 flocking, 6 patrol /
	// warehouse; patrol caps at 8, one per route slot).
	N int
	// DurationSec is the mission length (default 60 s).
	DurationSec float64
	// Fmax is the defense's f_max (default 2).
	Fmax int
	// AttackerSlots are the 0-based roster slots turned Byzantine
	// (robot ID = slot+1). nil means one attacker at a
	// controller-appropriate slot; an explicit empty slice means no
	// attacker.
	AttackerSlots []int
	// AttackAtSec is the compromise time (default 20 s — after the
	// a-node grace window, so attackers first earn tokens honestly).
	AttackAtSec float64
	// ExtraFaults are appended verbatim to the generated schedule
	// (tests use this to aim a specific fault at a specific robot). A
	// Crash aimed at a deliberate attacker leaves it an attacker.
	ExtraFaults []faultinject.Fault
	// Deprecated: ignored; the grid is the only path. Kept only because
	// benchmark/ still assigns it; removed with those assignments
	// (ROADMAP item 2, PR A).
	SpatialIndex bool
	// SpacingM overrides the flocking grid pitch (default 20 m;
	// swarm-scale cells widen it so 500 robots aren't one collapsed
	// blob). Ignored by patrol/warehouse, whose layouts are fixed.
	SpacingM float64
	// MTUBytes, when positive, caps the encoded size of one on-air
	// frame, engaging the radio's fragmentation/reassembly path (loss
	// is then drawn per fragment). 0 keeps the default link model. A
	// positive value below faultinject.MinMTUBytes panics: the
	// schedule's audit-response faults could not see their frames.
	MTUBytes int
	ChaosRun // how the cell is run, not what it is
}

// ChaosRun is the wiring one run of a chaos cell carries. None of it
// changes a byte the cell computes (an interrupted run's checkpoint
// resumes to where the uninterrupted run ends), so none of it reaches
// the snapshot's config echo or a result's Config.
type ChaosRun struct {
	// Trace, when non-nil, receives the cell's full event stream. Leave
	// nil for matrix sweeps: cells run on the worker pool and a shared
	// collector would race. A violation's flight-recorder dump does not
	// need it: when the checker latches, the cell is re-run from tick 0
	// with a recorder attached to rebuild the dump.
	Trace obs.Tracer
	// SnapshotAtTicks captures a full-state snapshot at each listed
	// tick boundary (state as of BEFORE that tick runs; the run's
	// final tick count is a legal boundary too, and ticks before a
	// resume point are never reached). Results land in
	// ChaosResult.Snapshots. Capturing is observation only: a run with
	// snapshots enabled is byte-identical to one without. A resumable
	// state from shortly before a violation at tick L is a capture at
	// L−8.
	SnapshotAtTicks []wire.Tick
	// ResumeFrom, when non-nil, resumes the run from these snapshot
	// bytes instead of tick 0. The cell — the config less its
	// ChaosRun — must match the snapshot's origin cell; mismatches
	// land in ChaosResult.ResumeError.
	ResumeFrom []byte
	// Interrupt, when non-nil, is polled at every tick boundary before
	// the run's final tick (never at the final boundary itself). When
	// it first returns true the run stops at that boundary: the
	// boundary state is captured into ChaosResult.Checkpoint,
	// Interrupted is set, and the remaining ticks never execute. This
	// is the serving layer's graceful-drain and cancellation seam — a
	// checkpointed job's snapshot resumes via ResumeFrom into a
	// byte-identical continuation of the original run. A hook that
	// never fires is observation-only: the run is byte-identical to
	// one with Interrupt nil. The hook is called between ticks on the
	// run's own goroutine, so it may read state set by other
	// goroutines (an atomic drain flag) without racing the simulation.
	Interrupt func() bool
	// Perf, when non-nil, attributes the cell's wall-clock time to the
	// tick-pipeline phases (see SimConfig.Perf). Observation-only: the
	// fingerprint, traces, and metrics are byte-identical with it on or
	// off. Unlike Trace, one timer may be shared by cells running
	// concurrently: its tallies are atomic, and it sums their phases.
	Perf *perf.PhaseTimer
	// PerfRuntime, when non-nil, samples runtime/metrics (heap, GC,
	// goroutines) every PerfRuntime.Every() ticks during the run.
	// Observation-only like Perf, but a sampler is not safe for
	// concurrent use: give each concurrently running cell its own.
	PerfRuntime *perf.RuntimeSampler
}

// A ChaosConfigError is a ChaosConfig field no cell can run with.
type ChaosConfigError struct {
	Field   string // the ChaosConfig field, e.g. "DurationSec"
	Value   any
	Problem string // e.g. "unknown", "negative"
	Want    string // what the field accepts
}

func (e *ChaosConfigError) Error() string {
	return fmt.Sprintf("roborebound: %s chaos %s %#v (want %s)", e.Problem, e.Field, e.Value, e.Want)
}

// Check returns a *ChaosConfigError naming the first field cell c
// cannot run with, or nil; a misspelled controller or profile is one,
// so it never runs some other cell under its label. A zero value takes
// its default, so it passes. Check is what RunChaos runs: it does not
// ask Schedulable.
func (c ChaosConfig) Check() error {
	bad := func(field string, v any, problem, want string) error {
		return &ChaosConfigError{Field: field, Value: v, Problem: problem, Want: want}
	}
	switch {
	case c.Controller != "" && !slices.Contains(Controllers(), c.Controller):
		return bad("Controller", c.Controller, "unknown", fmt.Sprint("one of ", Controllers()))
	case c.Profile != "" && !slices.Contains(faultinject.Profiles(), c.Profile):
		return bad("Profile", c.Profile, "unknown", fmt.Sprint("one of ", faultinject.Profiles()))
	case c.N < 0:
		return bad("N", c.N, "negative", "a count ≥ 0 (0 takes the controller's default)")
	case c.N >= int(wire.Broadcast):
		return bad("N", c.N, "too-large", fmt.Sprintf(
			"at most %d, one robot ID below the broadcast address for each", int(wire.Broadcast)-1))
	case !(c.DurationSec >= 0 && c.DurationSec < 1e9):
		return bad("DurationSec", c.DurationSec, "out-of-range", "seconds in [0, 1e9) (0 takes the default, 60)")
	case c.Fmax < 0:
		return bad("Fmax", c.Fmax, "negative", "a count ≥ 0 (0 takes the default, 2)")
	case !(c.AttackAtSec >= 0 && c.AttackAtSec < 1e9):
		return bad("AttackAtSec", c.AttackAtSec, "out-of-range", "seconds in [0, 1e9) (0 takes the default, 20)")
	case math.IsNaN(c.SpacingM) || math.IsInf(c.SpacingM, 0):
		return bad("SpacingM", c.SpacingM, "non-finite", "meters")
	case c.MTUBytes > 0 && c.MTUBytes < faultinject.MinMTUBytes:
		return bad("MTUBytes", c.MTUBytes, "too-small", fmt.Sprintf(
			"0 or at least %d, the smallest that carries an audit response unfragmented", faultinject.MinMTUBytes))
	}
	return nil
}

// Ticks is the cell's run length in ticks, its duration defaulted.
func (c ChaosConfig) Ticks() wire.Tick {
	return wire.Tick(c.withScalarDefaults().DurationSec * TicksPerSecond)
}

// Schedulable reports whether the cell's profile places a fault in its
// run, which Generate does only in one longer than 2·T_val + T_audit
// (24 s); a ProfileNone cell asks for none, so it always is. RunChaos
// runs an unschedulable cell fault-free; serve and the CLI's snapshot
// and perf refuse one, so it never runs under a faulted label.
func (c ChaosConfig) Schedulable() bool {
	c = c.withScalarDefaults()
	return c.Profile == faultinject.ProfileNone || faultinject.Schedulable(c.Ticks(), c.limits(nil))
}

// coreConfig is the protocol configuration a defaulted cell runs.
func (c ChaosConfig) coreConfig() core.Config {
	cc := core.DefaultConfig(TicksPerSecond)
	cc.Fmax = c.Fmax
	cc.AutoServeLimit()
	return cc
}

// limits are the bounds a defaulted cell's faults are generated under:
// its audit timing, with the robots in avoid spared.
func (c ChaosConfig) limits(avoid []wire.RobotID) faultinject.Limits {
	cc := c.coreConfig()
	return faultinject.Limits{TVal: cc.TVal, TAudit: cc.TAudit, Avoid: avoid}
}

// withDefaults fills every zero field with its default.
func (c ChaosConfig) withDefaults() ChaosConfig {
	c = c.withScalarDefaults()
	if c.AttackerSlots == nil {
		slot := 2
		if c.Controller == "warehouse" {
			slot = 0 // lowest ID: everyone yields to it, maximum blast radius
		}
		if slot >= c.N {
			slot = 0
		}
		c.AttackerSlots = []int{slot}
	}
	return c
}

// withScalarDefaults is withDefaults but for the attacker slots, the
// one default that allocates, so Ticks and Schedulable allocate nothing.
func (c ChaosConfig) withScalarDefaults() ChaosConfig {
	if c.Controller == "" {
		c.Controller = "flocking"
	}
	if c.Profile == "" {
		c.Profile = faultinject.ProfileMixed
	}
	if c.DurationSec == 0 {
		c.DurationSec = 60
	}
	if c.Fmax == 0 {
		c.Fmax = 2
	}
	if c.N == 0 {
		if c.Controller == "flocking" {
			c.N = 9
		} else {
			c.N = 6
		}
	}
	if c.Controller == "patrol" && c.N > 8 {
		c.N = 8
	}
	if c.AttackAtSec == 0 {
		c.AttackAtSec = 20
	}
	if c.SpacingM == 0 {
		c.SpacingM = 20
	}
	return c
}

// Label names the cell in progress output and test failures.
func (c ChaosConfig) Label() string {
	s := fmt.Sprintf("chaos %s/%s seed=%d", c.Controller, c.Profile, c.Seed)
	if c.MTUBytes > 0 {
		s += fmt.Sprintf(" mtu=%d", c.MTUBytes)
	}
	return s
}

// ChaosMetrics are the deterministic outcomes of one cell.
type ChaosMetrics struct {
	Robots            int
	Attackers         int
	AttackersDisabled int
	// DisableLatencyTicks lists, per disabled attacker (ascending
	// ID), Safe-Mode tick minus first-misbehavior tick.
	DisableLatencyTicks []wire.Tick
	// CorrectDisabled lists correct, physically intact robots in Safe
	// Mode (must stay empty; the checker also latches this as a
	// violation). A robot that physically crashed is excluded: its
	// protocol halts, so its a-node kill switch firing is the designed
	// outcome, not a false positive.
	CorrectDisabled []wire.RobotID
	RoundsCovered   uint64 // summed over correct robots
	TxBytes         uint64
	RxBytes         uint64
	DroppedFrames   uint64
	// Fingerprint is a SHA-256 over the canonical encoding of every
	// robot's final position, velocity, radio counters, and Safe-Mode
	// state — byte-identical across serial and parallel sweeps.
	Fingerprint string
}

// ChaosResult is one cell's full outcome.
type ChaosResult struct {
	// Config is the defaulted cell that ran; its ChaosRun is zero.
	Config   ChaosConfig
	Schedule []string // rendered fault entries, in schedule order
	// Violation is the first invariant breach, or nil when every
	// guarantee held for the whole run. On violation it carries the
	// offending robot's flight-recorder dump (Violation.Events).
	Violation *faultinject.Violation
	Metrics   ChaosMetrics
	// MetricsSnapshot is the cell's final registry snapshot (sorted by
	// name): per-robot protocol counters and radio byte accounting.
	MetricsSnapshot []obs.Sample
	// Snapshots holds the captures requested via SnapshotAtTicks, in
	// capture order.
	Snapshots []ChaosSnapshot
	// Interrupted reports that ChaosConfig.Interrupt stopped the run
	// before its final tick; Checkpoint holds the snapshot captured at
	// the stopping boundary, and is non-nil exactly when Interrupted
	// is set. An interrupted result's Metrics describe the partial run.
	Interrupted bool
	Checkpoint  *ChaosSnapshot
	// ResumeError reports a failed ResumeFrom (corrupt bytes, config
	// mismatch). The run did not execute; every other result field is
	// meaningless.
	ResumeError error
	// SHA1Compressions is the number of SHA-1 compressions the cell's
	// chains and checkpoint hashes ran: observation-only, counted from
	// the build or the resume, and in no differential.
	SHA1Compressions uint64
}

// deliberateAttackers is the set the schedule avoids and placement
// compromises: a defaulted cell's attacker slots that lie in roster
// ids, each once in AttackerSlots order, and their robots.
func (c ChaosConfig) deliberateAttackers(ids []wire.RobotID) (slots []int, robots []wire.RobotID) {
	for _, slot := range c.AttackerSlots {
		if slot >= 0 && slot < len(ids) && !slices.Contains(slots, slot) {
			slots = append(slots, slot)
			robots = append(robots, ids[slot])
		}
	}
	return slots, robots
}

// chaosCell is a defaulted cell as built: its roster, its deliberate
// attackers, the fault schedule its sim runs under, the registry its
// metrics go to, and the sim.
type chaosCell struct {
	ids, attackers []wire.RobotID
	sched          *faultinject.Schedule
	reg            *obs.Registry
	sim            *Sim
}

// buildChaosCell builds defaulted cfg's cell: the roster, the fault
// schedule its profile generates, and the simulation with the
// schedule's hooks installed, the deliberate attackers in their slots
// and the crashed robots silent from their ticks.
func buildChaosCell(cfg ChaosConfig) chaosCell {
	cc := cfg.coreConfig()
	ids := roster(cfg.N)
	slots, attackers := cfg.deliberateAttackers(ids)
	sched := chaosSchedule(cfg, ids, attackers)
	// A Crash fault aimed at a deliberate attacker is ignored: the
	// attacker stays one.
	crashes := sched.CrashTargets()
	for _, id := range attackers {
		delete(crashes, id)
	}
	reg := obs.NewRegistry()

	// MTUBytes engages fragmentation by overriding the link model; nil
	// leaves SimConfig's default (radio.DefaultParams) in place.
	var radioParams *radio.Params
	if cfg.MTUBytes > 0 {
		p := radio.DefaultParams()
		p.MTUBytes = cfg.MTUBytes
		radioParams = &p
	}

	// Each controller picks where slot i starts, the controller every
	// robot runs, and what a deliberate attacker in slot i does.
	var (
		positions []geom.Vec2
		factory   control.Factory
		goal      geom.Vec2
		attacker  func(slot int) CompromisedSpec
	)
	switch cfg.Controller {
	case "patrol":
		route := []geom.Vec2{
			geom.V(0, 0), geom.V(40, 0), geom.V(80, 0), geom.V(80, 40),
			geom.V(80, 80), geom.V(40, 80), geom.V(0, 80), geom.V(0, 40),
		}
		params := control.DefaultPatrolParams(route)
		params.RingGapM = 3
		factory = control.PatrolFactory{Params: params}
		positions = make([]geom.Vec2, cfg.N)
		for i := range positions {
			positions[i] = route[(i+1)%len(route)]
		}
		attacker = func(int) CompromisedSpec {
			return CompromisedSpec{Strategy: func([]wire.RobotID, geom.Vec2) attack.Strategy { return attack.Silent{} }}
		}

	case "warehouse":
		var pickups, dropoffs []geom.Vec2
		positions = make([]geom.Vec2, cfg.N)
		for i := range positions {
			pickups = append(pickups, geom.V(0, 6*float64(i)))
			dropoffs = append(dropoffs, geom.V(60, 6*float64(i)))
			positions[i] = pickups[i].Add(geom.V(2, 0))
		}
		factory = control.WarehouseFactory{Params: control.DefaultWarehouseParams(pickups, dropoffs)}
		// Park a phantom in the main aisle between lanes, so neighbors
		// yield to it (the lie of ExampleNewSim_warehouse).
		attacker = func(slot int) CompromisedSpec {
			return CompromisedSpec{Strategy: func([]wire.RobotID, geom.Vec2) attack.Strategy {
				return attack.Blocker{X: 30, Y: 6*float64(slot) + 3, Period: 2}
			}}
		}

	case "flocking":
		goal = geom.V(220, 220)
		positions, factory = FlockScenario{N: cfg.N, Spacing: cfg.SpacingM, Goal: goal}.layout()
		attacker = func(int) CompromisedSpec {
			return CompromisedSpec{Strategy: SpoofStrategy(150, 2, 1), KeepProtocol: true}
		}
	}

	specs := make([]CompromisedSpec, len(slots))
	for i, slot := range slots {
		specs[i] = attacker(slot)
		specs[i].Index, specs[i].AtSeconds = slot, cfg.AttackAtSec
	}
	s := NewSim(SimConfig{Seed: cfg.Seed, Core: &cc, Radio: radioParams, Faults: &sched,
		Trace: cfg.Trace, Metrics: reg, Perf: cfg.Perf})
	s.populate(ids, positions, factory, true, goal, specs, crashes)
	return chaosCell{ids: ids, attackers: attackers, sched: &sched, reg: reg, sim: s}
}

// chaosSchedule is a defaulted cell's fault schedule: what its profile
// generates for roster ids over its length and audit timing, with the
// deliberate attackers avoided, then ExtraFaults verbatim.
func chaosSchedule(cfg ChaosConfig, ids, attackers []wire.RobotID) faultinject.Schedule {
	sched := faultinject.Generate(cfg.Profile, cfg.Seed, ids, cfg.Ticks(), cfg.limits(attackers))
	sched.Faults = append(sched.Faults, cfg.ExtraFaults...)
	return sched
}

// RunChaos runs one chaos cell: generate the fault schedule from
// (config, seed), build the mission, watch every tick with the
// invariant checker, and summarize. Identical configs produce
// byte-identical results. RunChaos panics with Check's error on a
// cell Check refuses.
func RunChaos(cfg ChaosConfig) ChaosResult {
	if err := cfg.Check(); err != nil {
		panic(err.Error())
	}
	cfg = cfg.withDefaults()
	return buildChaosCell(cfg).run(cfg)
}

// run runs the cell defaulted cfg built to its end, an interrupt, or
// a failed resume, and summarizes it.
func (cell chaosCell) run(cfg ChaosConfig) ChaosResult {
	s, ids, attackers := cell.sim, cell.ids, cell.attackers
	// populate installed the cell's checker; a chaos cell also explains
	// a latch with the offending robot's flight-recorder dump.
	s.checker.Explain = func(v *faultinject.Violation) ([]obs.Event, error) {
		return explainLatch(cfg, v)
	}
	if rt := cfg.PerfRuntime; rt != nil {
		// Runtime telemetry rides the engine's observer hook at the
		// sampler's own cadence. Sampling reads process state only —
		// nothing it does can reach the simulation, so the cell stays
		// byte-identical with it on or off.
		every := wire.Tick(rt.Every())
		s.Engine.Observe(func(now wire.Tick) {
			if now%every == 0 {
				rt.Sample()
			}
		})
	}

	res := ChaosResult{
		Config:   cfg,
		Schedule: cell.sched.Strings(),
	}
	res.Config.ChaosRun = ChaosRun{} // a result records the cell, not its wiring
	runChaosTicks(s, cfg, &res)
	if res.ResumeError != nil {
		return res
	}
	res.Violation = s.checker.Violation()
	m := &res.Metrics
	m.Robots = cfg.N
	m.Attackers = len(attackers)
	for _, id := range attackers {
		comp := s.Compromised(id)
		if comp.InSafeMode() {
			m.AttackersDisabled++
			if at, ok := comp.FirstMisbehaviorAt(); ok {
				m.DisableLatencyTicks = append(m.DisableLatencyTicks, comp.SafeModeAt()-at)
			}
		}
	}
	for _, id := range ids {
		c := s.Medium.Counters(id)
		m.TxBytes += c.TxApp + c.TxAudit
		m.RxBytes += c.RxApp + c.RxAudit
		m.DroppedFrames += c.Dropped
		if r := s.Robot(id); s.Compromised(id) == nil {
			if r.InSafeMode() && !r.Body().Crashed {
				m.CorrectDisabled = append(m.CorrectDisabled, id)
			}
			if eng := r.Engine(); eng != nil {
				m.RoundsCovered += uint64(eng.Stats().RoundsCovered)
			}
		}
	}
	m.Fingerprint = chaosFingerprint(s)
	res.MetricsSnapshot = cell.reg.Snapshot()
	res.SHA1Compressions = s.sha1Compressions()
	return res
}

// explainLatch rebuilds the flight-recorder dump for a violation the
// checker of defaulted cfg's run is latching. Nothing records a cell
// while it runs: the cell is deterministic, so it is built again from
// tick 0 with a ChaosRun that holds only a recorder, and stepped up to
// the tick its own checker latches. That latch must be v's invariant,
// tick and robot — anything else is a determinism bug, returned as the
// error the checker writes into the violation's Detail. A resumed run
// gets the same dump as the run it continues, since the re-run starts
// where that run did.
func explainLatch(cfg ChaosConfig, v *faultinject.Violation) ([]obs.Event, error) {
	rec := obs.NewFlightRecorder(v.Robot)
	rerun := cfg
	rerun.ChaosRun = ChaosRun{Trace: rec}
	s := buildChaosCell(rerun).sim
	s.checker.Explain = func(*faultinject.Violation) ([]obs.Event, error) {
		return rec.Events(), nil
	}
	for total := rerun.Ticks(); s.checker.Violation() == nil && s.Engine.Now() < total; {
		s.Engine.StepOnce()
	}
	w := s.checker.Violation()
	if w == nil {
		return nil, fmt.Errorf("the re-run from tick 0 did not latch (want %s at tick %d robot %d)",
			v.Invariant, v.Tick, v.Robot)
	}
	if w.Invariant != v.Invariant || w.Tick != v.Tick || w.Robot != v.Robot {
		return nil, fmt.Errorf("the re-run from tick 0 latched %s at tick %d robot %d",
			w.Invariant, w.Tick, w.Robot)
	}
	return w.Events, nil
}

// chaosFingerprint canonically encodes every robot's final state and
// hashes it. Any divergence between two runs of the same cell — a
// position bit, a byte counter, a Safe-Mode tick — changes it.
func chaosFingerprint(s *Sim) string {
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) { binary.BigEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
	wf := func(v float64) { w64(math.Float64bits(v)) }
	for _, id := range s.IDs() {
		w64(uint64(id))
		body := s.Robot(id).Body()
		wf(body.Pos.X)
		wf(body.Pos.Y)
		wf(body.Vel.X)
		wf(body.Vel.Y)
		c := s.Medium.Counters(id)
		w64(c.TxApp)
		w64(c.TxAudit)
		w64(c.RxApp)
		w64(c.RxAudit)
		w64(c.TxFrames)
		w64(c.RxFrames)
		w64(c.Dropped)
		r := s.Robot(id)
		if r.InSafeMode() {
			w64(1 + uint64(r.SafeModeAt()))
		} else {
			w64(0)
		}
		if eng := r.Engine(); eng != nil {
			st := eng.Stats()
			w64(uint64(st.RoundsStarted))
			w64(uint64(st.RoundsCovered))
			w64(uint64(st.TokensInstalled))
			w64(uint64(eng.Log().StorageBytes()))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ChaosMatrix builds the cross-seed soak grid: every controller ×
// every profile × every seed, with base supplying the remaining
// fields.
func ChaosMatrix(controllers []string, profiles []faultinject.Profile, seeds []uint64, base ChaosConfig) []ChaosConfig {
	var cfgs []ChaosConfig
	for _, ctrl := range controllers {
		for _, p := range profiles {
			for _, seed := range seeds {
				c := base
				c.Controller = ctrl
				c.Profile = p
				c.Seed = seed
				cfgs = append(cfgs, c)
			}
		}
	}
	return cfgs
}

// RunChaosMatrix runs the cells on the sweep runner. Results come
// back in input order and are byte-identical at any worker count.
func RunChaosMatrix(cfgs []ChaosConfig, opts SweepOptions) []ChaosResult {
	label := func(i int) string { return cfgs[i].Label() }
	return runner.AllOpts(opts.runnerOpts(len(cfgs), label), len(cfgs), func(i int) ChaosResult {
		return RunChaos(cfgs[i])
	})
}
