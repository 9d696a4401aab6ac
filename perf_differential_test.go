package roborebound

// perf_differential_test.go proves the wall-clock performance plane is
// observation-only: attaching a PhaseTimer (with a span recorder) and
// a RuntimeSampler to a run changes no observable byte. Every cell of
// a (controller × profile × seed × accelerator) matrix runs twice —
// untimed, then fully instrumented — and must agree byte for byte on
// the chaos fingerprint, the NDJSON event trace, and the metrics
// snapshot. Wall-clock readings are inherently nondeterministic, so
// this is the strongest statement the plane can make: the
// nondeterminism stays inside the timer and never leaks into results.

import (
	"fmt"
	"testing"

	"roborebound/internal/faultinject"
	"roborebound/internal/obs/perf"
	"roborebound/internal/wire"
)

// runPerfCell runs one cell with the full perf plane attached and
// asserts the timer actually recorded pipeline phases — otherwise the
// differential would pass vacuously with the instrumentation unplugged.
func runPerfCell(t *testing.T, cfg ChaosConfig) (ChaosResult, []byte) {
	t.Helper()
	timer := perf.NewPhaseTimer(nil)
	timer.RecordSpans(perf.NewSpanRecorder(0))
	cfg.Perf = timer
	cfg.PerfRuntime = perf.NewRuntimeSampler(4)
	res, trace := runTracedCell(t, cfg)

	reports := timer.Report()
	if len(reports) == 0 {
		t.Fatalf("%s: perf timer recorded nothing — instrumentation unplugged?", cfg.Label())
	}
	var sawDeliver, sawTick bool
	for _, r := range reports {
		if r.Phase == perf.PhaseRadioDeliver {
			sawDeliver = true
		}
		if r.Phase == perf.PhaseActorTick {
			sawTick = true
		}
	}
	if !sawDeliver || !sawTick {
		t.Fatalf("%s: core pipeline phases missing from %+v", cfg.Label(), reports)
	}
	if timer.PipelineTotalNs() == 0 {
		t.Fatalf("%s: zero pipeline total despite recorded phases", cfg.Label())
	}
	if cfg.PerfRuntime.Report().Samples == 0 {
		t.Fatalf("%s: runtime sampler never sampled", cfg.Label())
	}
	return res, trace
}

// TestPerfPlaneObservationOnly is the headline matrix: controllers ×
// profiles × seeds, each cell compared untimed vs fully instrumented,
// on the plain serial path. The cells run 30 s, past the 24 s below
// which a profile schedules nothing (RequireProfilesDiffer checks it).
func TestPerfPlaneObservationOnly(t *testing.T) {
	controllers := []string{"flocking", "patrol", "warehouse"}
	profiles := []faultinject.Profile{faultinject.ProfileNone, faultinject.ProfileMixed}
	seeds := []uint64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	record := profileFingerprints(t)
	for _, controller := range controllers {
		for _, profile := range profiles {
			for _, seed := range seeds {
				cfg := ChaosConfig{
					Controller:  controller,
					Profile:     profile,
					Seed:        seed,
					DurationSec: 30,
					AttackAtSec: 5,
				}
				t.Run(fmt.Sprintf("%s/%s/seed%d", controller, profile, seed), func(t *testing.T) {
					t.Parallel()
					base, baseTrace := runTracedCell(t, cfg)
					timed, timedTrace := runPerfCell(t, cfg)
					assertCellsIdentical(t, cfg.Label()+" [perf]", base, timed, baseTrace, timedTrace)
					record(cfg, timed.Metrics.Fingerprint)
				})
			}
		}
	}
}

// TestPerfPlaneObservationOnlyAccelerated repeats the differential on
// a 25-robot flock, where the nested spatial-build phase has a real
// grid to time. This is the configuration the perf-smoke CI job runs
// at 300 robots.
func TestPerfPlaneObservationOnlyAccelerated(t *testing.T) {
	cfg := ChaosConfig{
		Controller:  "flocking",
		Profile:     faultinject.ProfileNone,
		Seed:        3,
		N:           25,
		DurationSec: 12,
		AttackAtSec: 5,
	}
	base, baseTrace := runTracedCell(t, cfg)
	timed, timedTrace := runPerfCell(t, cfg)
	assertCellsIdentical(t, cfg.Label()+" [perf]", base, timed, baseTrace, timedTrace)
}

// TestPerfPlaneSnapshotsUnchanged extends the differential to the
// snapshot surface: full-state snapshots captured every 16 ticks with
// and without the perf plane attached must be byte-identical too. The
// cell runs 30 s, so its mixed faults are scheduled.
func TestPerfPlaneSnapshotsUnchanged(t *testing.T) {
	cfg := ChaosConfig{
		Controller:  "flocking",
		Profile:     faultinject.ProfileMixed,
		Seed:        5,
		DurationSec: 30,
		AttackAtSec: 5,
		ChaosRun:    ChaosRun{SnapshotAtTicks: []wire.Tick{16, 32, 48, 64, 80, 96, 112}},
	}
	base := RunChaos(cfg)

	timer := perf.NewPhaseTimer(nil)
	timedCfg := cfg
	timedCfg.Perf = timer
	timedCfg.PerfRuntime = perf.NewRuntimeSampler(0)
	timed := RunChaos(timedCfg)

	if timer.PipelineTotalNs() == 0 {
		t.Fatal("perf timer recorded nothing")
	}
	if len(base.Snapshots) != len(cfg.SnapshotAtTicks) || len(base.Snapshots) != len(timed.Snapshots) {
		t.Fatalf("snapshot counts: base=%d timed=%d", len(base.Snapshots), len(timed.Snapshots))
	}
	for i := range base.Snapshots {
		if base.Snapshots[i].Tick != timed.Snapshots[i].Tick {
			t.Errorf("snapshot %d tick: base=%d timed=%d", i, base.Snapshots[i].Tick, timed.Snapshots[i].Tick)
		}
		if string(base.Snapshots[i].Data) != string(timed.Snapshots[i].Data) {
			t.Errorf("snapshot %d bytes diverge with the perf plane attached", i)
		}
	}
	if base.Metrics.Fingerprint != timed.Metrics.Fingerprint {
		t.Errorf("fingerprints diverge:\n  base  %s\n  timed %s",
			base.Metrics.Fingerprint, timed.Metrics.Fingerprint)
	}
}
