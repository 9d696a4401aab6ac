package roborebound

import (
	"bytes"
	"errors"
	"fmt"
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

// encodeChaosEcho canonically encodes the cell of a (defaulted)
// ChaosConfig — everything that shapes the byte evolution of the run.
// Its ChaosRun is not encoded: the differential suites prove the
// wiring byte-invisible, so a snapshot taken with one collector
// attached legally resumes under another, or none.
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
// blob. The returned config's ChaosRun is zero.
func decodeChaosEcho(b []byte) (ChaosConfig, error) {
	var cfg ChaosConfig
	r := wire.NewReader(b)
	if v := r.U8(); v != chaosEchoVersion {
		r.Fail(fmt.Errorf("roborebound: snapshot config echo version %d not supported", v))
	}
	cfg.Controller = string(r.Blob())
	cfg.Profile = faultinject.Profile(r.Blob())
	cfg.Seed = r.U64()
	cfg.N = int(r.U32())
	cfg.DurationSec = r.F64()
	cfg.Fmax = int(r.U32())
	cfg.AttackerSlots = make([]int, r.Count(4))
	for i := range cfg.AttackerSlots {
		cfg.AttackerSlots[i] = int(int32(r.U32()))
	}
	cfg.AttackAtSec = r.F64()
	cfg.SpacingM = r.F64()
	cfg.MTUBytes = int(r.U32())
	// Each encoded fault is at least 49 bytes.
	for i, n := 0, r.Count(49); i < n; i++ {
		cfg.ExtraFaults = append(cfg.ExtraFaults, decodeFault(r))
	}
	if err := r.Done(); err != nil {
		return cfg, err
	}
	return cfg, cfg.Check()
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

func decodeFault(r *wire.Reader) faultinject.Fault {
	f := faultinject.Fault{Kind: faultinject.Kind(r.U8()), Start: wire.Tick(r.U64()), Duration: wire.Tick(r.U64())}
	for i, n := 0, r.Count(2); i < n; i++ {
		f.Targets = append(f.Targets, wire.RobotID(r.U16()))
	}
	f.Rate = r.F64()
	f.OffsetTicks = int64(r.U64())
	f.DriftPer1024 = int64(r.U64())
	f.DelayTicks = wire.Tick(r.U64())
	return f
}

// snapshotRun assembles the snapshot layer's view of this simulation.
func (s *Sim) snapshotRun() *snapshot.Run {
	run := &snapshot.Run{
		Engine:  s.Engine,
		World:   s.World,
		Medium:  s.Medium,
		Cache:   s.acache,
		Checker: s.checker,
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
//   - returns at total;
//   - checkpoints t and returns if Interrupt fires;
//   - otherwise runs tick t.
//
// A snapshot at t holds exactly the state the uninterrupted run holds
// before tick t executes, which is what makes resume-equivalence a
// byte-identity statement. The snapshot view of the sim and the config
// echo are built on first use, so a run that neither captures nor
// resumes never builds them.
func runChaosTicks(s *Sim, cfg ChaosConfig, res *ChaosResult) {
	total := cfg.Ticks()
	var (
		run  *snapshot.Run
		echo []byte
	)
	build := func() { run, echo = s.snapshotRun(), encodeChaosEcho(cfg) }
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
		if t == total {
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
// config echo and resumes it to completion under run's wiring: a
// tracer, perf plane, captures or an interrupt hook, none of which
// affects the bytes. run.ResumeFrom is replaced by data. This is the
// CLI `resume` entry point.
func ResumeChaosSnapshot(data []byte, run ChaosRun) (ChaosResult, error) {
	snap, err := snapshot.Decode(data)
	if err != nil {
		return ChaosResult{}, err
	}
	cfg, err := decodeChaosEcho(snap.ConfigEcho)
	// The echo sizes the cell about to be built: one that disagrees
	// with the roster it is to be applied to is refused first, also
	// when Check refuses its cell too.
	var bad *ChaosConfigError
	if (err == nil || errors.As(err, &bad)) && cfg.N != len(snap.Robots) {
		return ChaosResult{}, fmt.Errorf("roborebound: snapshot config echo asks for %d robots, its roster holds %d",
			cfg.N, len(snap.Robots))
	}
	if err != nil {
		return ChaosResult{}, err
	}
	cfg.ChaosRun = run
	cfg.ResumeFrom = data
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
// tick zero — a result's Config is the cell with no wiring — and
// compares the two: the resume-equivalence contract says fingerprint
// and metrics snapshot match bit for bit. `resume -verify` and the
// resume-verify job kind both stand on it.
func VerifyChaosResume(resumed ChaosResult) ResumeVerdict {
	ores := RunChaos(resumed.Config)
	return ResumeVerdict{
		OracleFingerprint: ores.Metrics.Fingerprint,
		FingerprintMatch:  ores.Metrics.Fingerprint == resumed.Metrics.Fingerprint,
		MetricsMatch:      obs.SamplesEqual(ores.MetricsSnapshot, resumed.MetricsSnapshot),
	}
}
