package roborebound

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"roborebound/internal/faultinject"
	"roborebound/internal/obs"
	"roborebound/internal/snapshot"
	"roborebound/internal/wire"
)

// This file wires internal/snapshot into the chaos facade: the
// config-echo codec (so a snapshot file alone can rebuild its cell),
// the snapshot-aware tick loop RunChaos delegates to, and the
// violation-rewind ring that keeps a snapshot from shortly before a
// latched invariant breach.

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
	if !cfg.DurationValid() {
		return cfg, errors.New("roborebound: snapshot echo duration not finite")
	}
	return cfg, nil
}

// DurationValid guards the float fields a hostile echo could poison.
func (c ChaosConfig) DurationValid() bool {
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

// runChaosTicks is RunChaos's tick loop: resume (optional), step,
// capture requested snapshots, and maintain the violation-rewind
// ring. Snapshots are captured at tick boundaries only — at tick T
// the captured state is exactly what the uninterrupted run holds
// before tick T executes, which is what makes resume-equivalence a
// byte-identity statement.
func runChaosTicks(s *Sim, cfg ChaosConfig, checker *faultinject.Checker, total wire.Tick, res *ChaosResult) {
	if cfg.flight != nil {
		// A latch re-run has what it came for once its checker latches.
		for t := wire.Tick(0); t < total && checker.Violation() == nil; t++ {
			s.Engine.StepOnce()
		}
		return
	}
	needSnapshots := len(cfg.SnapshotAtTicks) > 0 || cfg.SnapshotEvery > 0 ||
		cfg.ViolationRewind > 0 || cfg.ResumeFrom != nil || cfg.Interrupt != nil
	if !needSnapshots {
		s.Engine.Run(total)
		return
	}

	run := s.snapshotRun(checker)
	echo := encodeChaosEcho(cfg)
	start := wire.Tick(0)
	if cfg.ResumeFrom != nil {
		snap, err := snapshot.Decode(cfg.ResumeFrom)
		if err != nil {
			res.ResumeError = err
			return
		}
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

	wantAt := make(map[wire.Tick]bool, len(cfg.SnapshotAtTicks))
	for _, t := range cfg.SnapshotAtTicks {
		wantAt[t] = true
	}
	capture := func(t wire.Tick) ([]byte, bool) {
		data, err := snapshot.Capture(run, echo)
		if err != nil {
			if res.SnapshotError == nil {
				res.SnapshotError = fmt.Errorf("roborebound: snapshot at tick %d: %w", t, err)
			}
			return nil, false
		}
		return data, true
	}

	// The rewind ring holds the two most recent periodic captures;
	// when the checker latches, the ring freezes so a pre-violation
	// state survives to the report.
	var ring [2]ChaosSnapshot
	ringN := 0
	frozen := false

	for t := start; t <= total; t++ {
		if wantAt[t] || (cfg.SnapshotEvery > 0 && t > start && (t-start)%cfg.SnapshotEvery == 0) {
			if data, ok := capture(t); ok {
				res.Snapshots = append(res.Snapshots, ChaosSnapshot{Tick: t, Data: data})
			}
		}
		if cfg.ViolationRewind > 0 && !frozen && (t-start)%cfg.ViolationRewind == 0 {
			if data, ok := capture(t); ok {
				ring[ringN%2] = ChaosSnapshot{Tick: t, Data: data}
				ringN++
			}
		}
		if cfg.Interrupt != nil && t < total && cfg.Interrupt() {
			// Stop at this boundary: the captured state is exactly what
			// ResumeFrom needs to continue the run byte-identically. A
			// hook that fires only after the final tick is a no-op.
			if data, ok := capture(t); ok {
				res.Checkpoint = &ChaosSnapshot{Tick: t, Data: data}
			}
			res.Interrupted = true
			return
		}
		if t == total {
			break
		}
		s.Engine.StepOnce()
		if cfg.ViolationRewind > 0 && !frozen && checker.Violation() != nil {
			frozen = true
		}
	}

	if frozen && ringN > 0 {
		v := checker.Violation()
		// Prefer the newest retained capture at least ViolationRewind
		// ticks before the latch; fall back to the oldest retained one
		// (the violation came too fast for a full rewind distance).
		held := ring[:min(ringN, 2)]
		best := -1
		oldest := 0
		for i := range held {
			if held[i].Tick < held[oldest].Tick {
				oldest = i
			}
			if held[i].Tick+cfg.ViolationRewind <= v.Tick &&
				(best < 0 || held[i].Tick > held[best].Tick) {
				best = i
			}
		}
		pick := held[oldest]
		if best >= 0 {
			pick = held[best]
		}
		res.PreViolation = &ChaosSnapshot{Tick: pick.Tick, Data: pick.Data}
	}
}

// ResumeChaosSnapshot rebuilds a chaos cell from a snapshot's embedded
// config echo and resumes it to completion. The opts callback may
// attach observability wiring and an interrupt hook to the rebuilt
// config before the run starts — neither affects the bytes. This is
// the CLI `resume` entry point.
func ResumeChaosSnapshot(data []byte, opts func(*ChaosConfig)) (ChaosResult, error) {
	echo, err := snapshot.ConfigEcho(data)
	if err != nil {
		return ChaosResult{}, err
	}
	cfg, err := decodeChaosEcho(echo)
	if err != nil {
		return ChaosResult{}, err
	}
	cfg.ResumeFrom = data
	if opts != nil {
		opts(&cfg)
	}
	res := RunChaos(cfg)
	if res.ResumeError != nil {
		return res, res.ResumeError
	}
	return res, nil
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
