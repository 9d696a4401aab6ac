package roborebound

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"roborebound/internal/attack"
	"roborebound/internal/control"
	"roborebound/internal/core"
	"roborebound/internal/faultinject"
	"roborebound/internal/flocking"
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
	// Trace, when non-nil, receives the cell's full event stream. Leave
	// nil for matrix sweeps: cells run on the worker pool and a shared
	// collector would race. A violation's flight-recorder dump does not
	// need it: when the checker latches, the cell is re-run from tick 0
	// with a recorder attached to rebuild the dump.
	Trace obs.Tracer
	// Metrics, when non-nil, receives the cell's counters; otherwise
	// the cell uses a private registry. Either way the final snapshot
	// lands in ChaosResult.MetricsSnapshot. Same matrix caveat as
	// Trace.
	Metrics *obs.Registry
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
	// is then drawn per fragment). 0 keeps the default link model.
	MTUBytes int
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
	// bytes instead of tick 0. The config must match the snapshot's
	// origin cell (observability wiring excepted);
	// mismatches land in ChaosResult.ResumeError.
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
	// off. Same matrix caveat as Trace — the timer is shared state, so
	// leave nil for matrix sweeps unless one timer per cell.
	Perf *perf.PhaseTimer
	// PerfRuntime, when non-nil, samples runtime/metrics (heap, GC,
	// goroutines) every PerfRuntime.Every() ticks during the run.
	// Observation-only, same caveats as Perf.
	PerfRuntime *perf.RuntimeSampler
	// detachAuditCache runs the cell with the swarm-shared verdict cache
	// detached (see Sim.detachAuditCache). Unexported and absent from
	// the snapshot echo: only the in-package protocol differential sets
	// it, to get the uncached run it compares the cached one against.
	detachAuditCache bool
	// flight marks the run as a latch re-run (see explainLatch): the
	// recorder is the run's only tracer, the checker's dump comes
	// straight from it, and the run stops at the tick the checker
	// latches. Unexported and absent from the snapshot echo.
	flight *obs.FlightRecorder
}

func (c ChaosConfig) withDefaults() ChaosConfig {
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
	SafeMode        []SafeModeEvent
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
}

// buildChaosSim constructs the cell's simulation with the schedule's
// hooks installed and every attacker (deliberate and crash-faulted)
// in place. It returns the sim, the deliberate attacker IDs, and the
// crash-faulted robots with the tick each goes dark. A Crash fault
// aimed at a deliberate attacker is ignored: the attacker stays one.
func buildChaosSim(cfg ChaosConfig, cc core.Config, sched *faultinject.Schedule) (*Sim, []wire.RobotID, map[wire.RobotID]wire.Tick) {
	attackAt := wire.Tick(cfg.AttackAtSec * TicksPerSecond)
	attackers := make(map[int]bool) // slot -> deliberate attacker
	var attackerIDs []wire.RobotID
	for _, slot := range cfg.AttackerSlots {
		if slot >= 0 && slot < cfg.N && !attackers[slot] {
			attackers[slot] = true
			attackerIDs = append(attackerIDs, wire.RobotID(slot+1))
		}
	}
	crashes := sched.CrashTargets()
	for _, id := range attackerIDs {
		delete(crashes, id)
	}

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
		positions    []geom.Vec2
		factory      control.Factory
		strategy     func(slot int) attack.Strategy
		keepProtocol bool
	)
	switch cfg.Controller {
	case "patrol":
		route := []geom.Vec2{
			geom.V(0, 0), geom.V(40, 0), geom.V(80, 0), geom.V(80, 40),
			geom.V(80, 80), geom.V(40, 80), geom.V(0, 80), geom.V(0, 40),
		}
		params := control.DefaultPatrolParams(TicksPerSecond, route)
		params.RingGapM = 3
		factory = control.PatrolFactory{Params: params}
		positions = make([]geom.Vec2, cfg.N)
		for i := range positions {
			positions[i] = route[(i+1)%len(route)]
		}
		strategy = func(int) attack.Strategy { return attack.Silent{} }

	case "warehouse":
		var pickups, dropoffs []geom.Vec2
		positions = make([]geom.Vec2, cfg.N)
		for i := range positions {
			pickups = append(pickups, geom.V(0, 6*float64(i)))
			dropoffs = append(dropoffs, geom.V(60, 6*float64(i)))
			positions[i] = pickups[i].Add(geom.V(2, 0))
		}
		factory = control.WarehouseFactory{Params: control.DefaultWarehouseParams(TicksPerSecond, pickups, dropoffs)}
		// Park a phantom in the main aisle between lanes, so neighbors
		// yield to it (the lie of ExampleNewSim_warehouse).
		strategy = func(slot int) attack.Strategy {
			return attack.Blocker{X: 30, Y: 6*float64(slot) + 3, Period: 2}
		}

	default: // flocking
		goal := geom.V(220, 220)
		factory = flocking.Factory{Params: flocking.DefaultParams(TicksPerSecond, cfg.SpacingM, goal)}
		positions = GridPositions(cfg.N, cfg.SpacingM, geom.Zero2)
		ids := make([]wire.RobotID, cfg.N)
		for i := range ids {
			ids[i] = wire.RobotID(i + 1)
		}
		spoof := SpoofStrategy(150, 2, 1)
		strategy = func(int) attack.Strategy { return spoof(ids, goal) }
		keepProtocol = true
	}

	s := NewSim(SimConfig{Seed: cfg.Seed, Core: &cc, Radio: radioParams, Faults: sched,
		Trace: cfg.Trace, Metrics: cfg.Metrics, Perf: cfg.Perf})
	for i, pos := range positions {
		id := wire.RobotID(i + 1)
		if attackers[i] {
			s.AddCompromised(id, pos, factory, true, attackAt, strategy(i), keepProtocol)
		} else if at, crashed := crashes[id]; crashed {
			s.AddCompromised(id, pos, factory, true, at, attack.Silent{}, false)
		} else {
			s.AddRobot(id, pos, factory, true)
		}
	}
	return s, attackerIDs, crashes
}

// chaosSchedule is a defaulted cell's fault schedule: what its profile
// generates for its roster, length and audit timing, with the
// deliberate attackers avoided, then ExtraFaults verbatim.
func chaosSchedule(cfg ChaosConfig, cc core.Config) faultinject.Schedule {
	ids := make([]wire.RobotID, cfg.N)
	for i := range ids {
		ids[i] = wire.RobotID(i + 1)
	}
	var avoid []wire.RobotID
	for _, slot := range cfg.AttackerSlots {
		if slot >= 0 && slot < cfg.N {
			avoid = append(avoid, wire.RobotID(slot+1))
		}
	}
	sched := faultinject.Generate(cfg.Profile, cfg.Seed, ids, wire.Tick(cfg.DurationSec*TicksPerSecond),
		faultinject.Limits{TVal: cc.TVal, TAudit: cc.TAudit, Avoid: avoid})
	sched.Faults = append(sched.Faults, cfg.ExtraFaults...)
	return sched
}

// RunChaos runs one chaos cell: generate the fault schedule from
// (config, seed), build the mission, watch every tick with the
// invariant checker, and summarize. Identical configs produce
// byte-identical results.
func RunChaos(cfg ChaosConfig) ChaosResult {
	cfg = cfg.withDefaults()
	cc := core.DefaultConfig(TicksPerSecond)
	cc.Fmax = cfg.Fmax
	cc.AutoServeLimit()
	total := wire.Tick(cfg.DurationSec * TicksPerSecond)
	sched := chaosSchedule(cfg, cc)

	// The metrics registry is per-cell unless the caller supplied one.
	runCfg := cfg
	if runCfg.Metrics == nil {
		runCfg.Metrics = obs.NewRegistry()
	}

	s, attackerIDs, crashes := buildChaosSim(runCfg, cc, &sched)
	if cfg.detachAuditCache {
		s.detachAuditCache()
	}

	checker := faultinject.NewChecker(cc.TVal, cc.TAudit, &sched)
	checker.Trace = cfg.Trace
	if rec := cfg.flight; rec != nil {
		checker.Explain = func(v *faultinject.Violation) ([]obs.Event, error) {
			return rec.Events(v.Robot), nil
		}
	} else {
		checker.Explain = func(v *faultinject.Violation) ([]obs.Event, error) {
			return explainLatch(cfg, v)
		}
	}
	snaps := make([]faultinject.RobotSnapshot, 0, cfg.N)
	roster := s.IDs() // fixed once the cell is built
	s.Engine.Observe(func(now wire.Tick) {
		snaps = snaps[:0]
		for _, id := range roster {
			r := s.Robot(id)
			sn := faultinject.RobotSnapshot{
				ID:          id,
				Protected:   true,
				InSafeMode:  r.InSafeMode(),
				PhysCrashed: r.Body().Crashed,
				Counters:    *s.Medium.Counters(id),
			}
			if comp := s.Compromised(id); comp != nil {
				sn.Compromised = true
				_, sn.CrashFaulted = crashes[id]
				sn.MisbehavedAt, sn.Misbehaved = comp.FirstMisbehaviorAt()
			}
			if eng := r.Engine(); eng != nil {
				sn.RoundsCovered = uint64(eng.Stats().RoundsCovered)
				sn.LogAccounting = eng.Log().AccountingError()
			}
			snaps = append(snaps, sn)
		}
		checker.Check(now, snaps)
	})
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
		Schedule: sched.Strings(),
	}
	runChaosTicks(s, cfg, checker, total, &res)
	if res.ResumeError != nil {
		return res
	}
	res.Violation = checker.Violation()
	m := &res.Metrics
	m.Robots = cfg.N
	m.Attackers = len(attackerIDs)
	for _, id := range attackerIDs {
		comp := s.Compromised(id)
		if comp.InSafeMode() {
			m.AttackersDisabled++
			if at, ok := comp.FirstMisbehaviorAt(); ok {
				m.DisableLatencyTicks = append(m.DisableLatencyTicks, comp.SafeModeAt()-at)
			}
		}
	}
	for _, id := range s.CorrectInSafeMode() {
		if !s.Robot(id).Body().Crashed {
			m.CorrectDisabled = append(m.CorrectDisabled, id)
		}
	}
	m.SafeMode = s.SafeModeEvents()
	for _, id := range s.CorrectIDs() {
		if eng := s.Robot(id).Engine(); eng != nil {
			m.RoundsCovered += uint64(eng.Stats().RoundsCovered)
		}
	}
	for _, id := range s.IDs() {
		c := s.Medium.Counters(id)
		m.TxBytes += c.TxApp + c.TxAudit
		m.RxBytes += c.RxApp + c.RxAudit
		m.DroppedFrames += c.Dropped
	}
	m.Fingerprint = chaosFingerprint(s)
	res.MetricsSnapshot = runCfg.Metrics.Snapshot()
	return res
}

// fromTickZero is the cell run uninterrupted from tick 0 with
// everything that observes, interrupts or persists it detached: the
// run a resumed or latching cell is checked against.
func (c ChaosConfig) fromTickZero() ChaosConfig {
	c.ResumeFrom = nil
	c.Trace = nil
	c.Metrics = nil
	c.Interrupt = nil
	c.Perf = nil
	c.PerfRuntime = nil
	c.SnapshotAtTicks = nil
	return c
}

// explainLatch rebuilds the flight-recorder dump for a violation the
// checker of cfg's run is latching. Nothing records a cell while it
// runs: the cell is deterministic, so it is run again from tick 0 with
// a recorder as its only tracer and everything else that observes or
// interrupts it detached, up to the tick its own checker latches. That
// latch must be v's invariant, tick and robot — anything else is a
// determinism bug, returned as the error the checker writes into the
// violation's Detail. A resumed run gets the same dump as the run it
// continues, since the re-run starts where that run did.
func explainLatch(cfg ChaosConfig, v *faultinject.Violation) ([]obs.Event, error) {
	rerun := cfg.fromTickZero()
	rerun.flight = obs.NewFlightRecorder(obs.DefaultFlightRing)
	rerun.Trace = rerun.flight
	w := RunChaos(rerun).Violation
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
