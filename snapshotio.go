package roborebound

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"

	"roborebound/internal/faultinject"
	"roborebound/internal/obs"
	"roborebound/internal/snapshot"
	"roborebound/internal/wire"
)

// This file wires internal/snapshot into the chaos facade: the
// config-echo codec (so a snapshot file alone can rebuild its cell)
// and the tick loop RunChaos delegates to, which captures, resumes and
// checkpoints at tick boundaries.

// ChaosSnapshot is one snapshot captured during a chaos run. Data is
// a self-contained internal/snapshot envelope: it embeds the cell
// config (echo), so ResumeChaosSnapshot can rebuild and resume the
// run from the bytes alone.
type ChaosSnapshot struct {
	// Tick is the boundary the snapshot was taken at: the state is as
	// of BEFORE this tick runs.
	Tick wire.Tick
	Data []byte
}

// chaosEchoVersion versions the config-echo blob inside snapshot
// envelopes. Bump together with any field change below.
const chaosEchoVersion = 2

// encodeChaosEcho canonically encodes the protocol-relevant fields of
// a (defaulted) ChaosConfig — everything that shapes the byte
// evolution of the run. Observability wiring is deliberately excluded:
// it is proven byte-invisible by the differential suites, so a
// snapshot taken with one collector attached legally resumes under
// another, or none.
func encodeChaosEcho(cfg ChaosConfig) []byte {
	w := wire.NewWriter(256)
	w.U8(chaosEchoVersion)
	w.Blob([]byte(cfg.Controller))
	w.Blob([]byte(cfg.Profile))
	w.U64(cfg.Seed)
	w.U32(uint32(cfg.N))
	w.F64(cfg.DurationSec)
	w.U32(uint32(cfg.Fmax))
	w.U32(uint32(len(cfg.AttackerSlots)))
	for _, s := range cfg.AttackerSlots {
		w.U32(uint32(int32(s)))
	}
	w.F64(cfg.AttackAtSec)
	w.F64(cfg.SpacingM)
	w.U32(uint32(cfg.MTUBytes))
	w.U32(uint32(len(cfg.ExtraFaults)))
	for i := range cfg.ExtraFaults {
		encodeFault(w, &cfg.ExtraFaults[i])
	}
	return w.Bytes()
}

// decodeChaosEcho rebuilds the cell config from a snapshot's echo
// blob. The returned config has zero-valued observability fields;
// callers may set those freely before resuming.
func decodeChaosEcho(b []byte) (ChaosConfig, error) {
	var cfg ChaosConfig
	r := wire.NewReader(b)
	if v := r.U8(); r.Err() == nil && v != chaosEchoVersion {
		return cfg, fmt.Errorf("roborebound: snapshot config echo version %d not supported", v)
	}
	cfg.Controller = string(r.Blob())
	cfg.Profile = faultinject.Profile(r.Blob())
	cfg.Seed = r.U64()
	cfg.N = int(r.U32())
	cfg.DurationSec = r.F64()
	cfg.Fmax = int(r.U32())
	nSlots := int(r.U32())
	if r.Err() != nil {
		return cfg, r.Err()
	}
	if nSlots > r.Remaining()/4 {
		return cfg, errors.New("roborebound: snapshot echo attacker-slot count exceeds payload")
	}
	cfg.AttackerSlots = make([]int, 0, nSlots)
	for i := 0; i < nSlots; i++ {
		cfg.AttackerSlots = append(cfg.AttackerSlots, int(int32(r.U32())))
	}
	cfg.AttackAtSec = r.F64()
	cfg.SpacingM = r.F64()
	cfg.MTUBytes = int(r.U32())
	nFaults := int(r.U32())
	if r.Err() != nil {
		return cfg, r.Err()
	}
	// Each encoded fault is at least 49 bytes.
	if nFaults > r.Remaining()/49 {
		return cfg, errors.New("roborebound: snapshot echo fault count exceeds payload")
	}
	for i := 0; i < nFaults; i++ {
		f, err := decodeFault(r)
		if err != nil {
			return cfg, err
		}
		cfg.ExtraFaults = append(cfg.ExtraFaults, f)
	}
	if err := r.Done(); err != nil {
		return cfg, err
	}
	if !cfg.durationValid() {
		return cfg, errors.New("roborebound: snapshot echo duration not finite")
	}
	return cfg, nil
}

// durationValid guards the float fields a hostile echo could poison.
func (c ChaosConfig) durationValid() bool {
	return !math.IsNaN(c.DurationSec) && !math.IsInf(c.DurationSec, 0) &&
		c.DurationSec >= 0 && c.DurationSec < 1e9 &&
		!math.IsNaN(c.AttackAtSec) && !math.IsInf(c.AttackAtSec, 0) &&
		!math.IsNaN(c.SpacingM) && !math.IsInf(c.SpacingM, 0)
}

func encodeFault(w *wire.Writer, f *faultinject.Fault) {
	w.U8(uint8(f.Kind))
	w.U64(uint64(f.Start))
	w.U64(uint64(f.Duration))
	w.U32(uint32(len(f.Targets)))
	for _, t := range f.Targets {
		w.U16(uint16(t))
	}
	w.F64(f.Rate)
	w.U64(uint64(f.OffsetTicks))
	w.U64(uint64(f.DriftPer1024))
	w.U64(uint64(f.DelayTicks))
}

func decodeFault(r *wire.Reader) (faultinject.Fault, error) {
	var f faultinject.Fault
	f.Kind = faultinject.Kind(r.U8())
	f.Start = wire.Tick(r.U64())
	f.Duration = wire.Tick(r.U64())
	n := int(r.U32())
	if r.Err() != nil {
		return f, r.Err()
	}
	if n > r.Remaining()/2 {
		return f, errors.New("roborebound: snapshot echo fault target count exceeds payload")
	}
	for i := 0; i < n; i++ {
		f.Targets = append(f.Targets, wire.RobotID(r.U16()))
	}
	f.Rate = r.F64()
	f.OffsetTicks = int64(r.U64())
	f.DriftPer1024 = int64(r.U64())
	f.DelayTicks = wire.Tick(r.U64())
	return f, r.Err()
}

// snapshotRun assembles the snapshot layer's view of this simulation.
func (s *Sim) snapshotRun(checker *faultinject.Checker) *snapshot.Run {
	run := &snapshot.Run{
		Engine:  s.Engine,
		World:   s.World,
		Medium:  s.Medium,
		Cache:   s.acache,
		Checker: checker,
	}
	for _, id := range s.IDs() {
		run.Robots = append(run.Robots, snapshot.RobotEntry{
			ID: id, Rob: s.robots[id], Comp: s.compromised[id],
		})
	}
	return run
}

// runChaosTicks is RunChaos's one tick loop. It starts at tick 0, or
// at the tick of the ResumeFrom snapshot it applies first, and at each
// boundary t, in order:
//   - captures a snapshot if SnapshotAtTicks lists t;
//   - returns at total, and on a latch re-run once the checker has
//     latched;
//   - checkpoints t and returns if Interrupt fires;
//   - otherwise runs tick t.
//
// A snapshot at t holds exactly the state the uninterrupted run holds
// before tick t executes, which is what makes resume-equivalence a
// byte-identity statement. The snapshot view of the sim and the config
// echo are built on first use, so a run that neither captures nor
// resumes never builds them.
func runChaosTicks(s *Sim, cfg ChaosConfig, checker *faultinject.Checker, total wire.Tick, res *ChaosResult) {
	var (
		run  *snapshot.Run
		echo []byte
	)
	build := func() { run, echo = s.snapshotRun(checker), encodeChaosEcho(cfg) }
	capture := func(t wire.Tick) ChaosSnapshot {
		if run == nil {
			build()
		}
		return ChaosSnapshot{Tick: t, Data: snapshot.Capture(run, echo)}
	}

	start := wire.Tick(0)
	if cfg.ResumeFrom != nil {
		snap, err := snapshot.Decode(cfg.ResumeFrom)
		if err != nil {
			res.ResumeError = err
			return
		}
		build()
		if !bytes.Equal(snap.ConfigEcho, echo) {
			res.ResumeError = errors.New("roborebound: snapshot was taken under a different cell config (the config must match)")
			return
		}
		if snap.Tick > total {
			res.ResumeError = fmt.Errorf("roborebound: snapshot tick %d is beyond the %d-tick run", snap.Tick, total)
			return
		}
		if err := snapshot.Apply(run, snap); err != nil {
			res.ResumeError = err
			return
		}
		start = snap.Tick
	}

	for t := start; ; t++ {
		if slices.Contains(cfg.SnapshotAtTicks, t) {
			res.Snapshots = append(res.Snapshots, capture(t))
		}
		if t == total || cfg.flight != nil && checker.Violation() != nil {
			return
		}
		if cfg.Interrupt != nil && cfg.Interrupt() {
			cp := capture(t)
			res.Interrupted, res.Checkpoint = true, &cp
			return
		}
		s.Engine.StepOnce()
	}
}

// ResumeChaosSnapshot rebuilds a chaos cell from a snapshot's embedded
// config echo and resumes it to completion. The opts callback may
// attach observability wiring and an interrupt hook to the rebuilt
// config before the run starts — neither affects the bytes. This is
// the CLI `resume` entry point.
func ResumeChaosSnapshot(data []byte, opts func(*ChaosConfig)) (ChaosResult, error) {
	snap, err := snapshot.Decode(data)
	if err != nil {
		return ChaosResult{}, err
	}
	cfg, err := decodeChaosEcho(snap.ConfigEcho)
	if err != nil {
		return ChaosResult{}, err
	}
	// The echo sizes the cell about to be built: one that disagrees
	// with the roster it is to be applied to is refused first.
	if cfg.N != len(snap.Robots) {
		return ChaosResult{}, fmt.Errorf("roborebound: snapshot config echo asks for %d robots, its roster holds %d",
			cfg.N, len(snap.Robots))
	}
	cfg.ResumeFrom = data
	if opts != nil {
		opts(&cfg)
	}
	res := RunChaos(cfg)
	return res, res.ResumeError
}

// ResumeVerdict is VerifyChaosResume's comparison of a resumed run
// against its uninterrupted oracle.
type ResumeVerdict struct {
	OracleFingerprint string
	FingerprintMatch  bool
	MetricsMatch      bool
}

// VerifyChaosResume re-runs a resumed result's cell uninterrupted from
// tick zero (see ChaosConfig.fromTickZero) and compares the two: the
// resume-equivalence contract says fingerprint and metrics snapshot
// match bit for bit. `resume -verify` and the resume-verify job kind
// both stand on it.
func VerifyChaosResume(resumed ChaosResult) ResumeVerdict {
	ores := RunChaos(resumed.Config.fromTickZero())
	return ResumeVerdict{
		OracleFingerprint: ores.Metrics.Fingerprint,
		FingerprintMatch:  ores.Metrics.Fingerprint == resumed.Metrics.Fingerprint,
		MetricsMatch:      obs.SamplesEqual(ores.MetricsSnapshot, resumed.MetricsSnapshot),
	}
}
