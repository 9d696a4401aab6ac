package main

import (
	"flag"
	"fmt"
	"os"

	rr "roborebound"
	"roborebound/internal/faultinject"
	"roborebound/internal/wire"
)

// The snapshot/resume subcommand pair: capture a chaos cell's full run
// state at a tick boundary into a self-contained file, and later
// rebuild and resume that run from the file alone (the cell config
// rides inside the envelope). `resume -verify` additionally re-runs
// the cell uninterrupted and compares fingerprints and metrics — a
// one-command resume-equivalence check for CI.

var (
	snapController = flag.String("controller", "flocking",
		"chaos cell mission for snapshot: flocking, patrol, or warehouse")
	snapProfile = flag.String("profile", "mixed",
		"chaos cell fault profile for snapshot (none, loss, partition, skew, crash, grief, mixed)")
	snapDuration = flag.Float64("duration", 60, "chaos cell mission length in seconds for snapshot")
	snapN        = flag.Int("n", 0, "chaos cell robot count for snapshot (0 = controller default)")
	snapAt       = flag.Uint64("at", 0,
		"tick boundary to snapshot at (0 = the run's midpoint)")
	snapOut    = flag.String("o", "snapshot.rbsn", "snapshot output file")
	snapFrom   = flag.String("from", "snapshot.rbsn", "snapshot file to resume from")
	snapVerify = flag.Bool("verify", false,
		"after resuming, re-run the cell uninterrupted and compare fingerprints and metrics (exit nonzero on divergence)")
)

// cellConfig is the chaos cell subcommand cmd (snapshot or perf) runs;
// perf -quick shrinks a run of the default length to 30 s.
func cellConfig(cmd string) rr.ChaosConfig {
	cfg := rr.ChaosConfig{
		Controller:  *snapController,
		Profile:     faultinject.Profile(*snapProfile),
		Seed:        *seed,
		N:           *snapN,
		DurationSec: *snapDuration,
	}
	if cmd == "perf" && *quick && cfg.Ticks() == (rr.ChaosConfig{}).Ticks() {
		cfg.DurationSec = 30
	}
	return cfg
}

// snapshotCmd runs one chaos cell and writes its state at the chosen
// tick boundary (default: midpoint) to -o.
func snapshotCmd() int {
	cfg := cellConfig("snapshot")
	total := cfg.Ticks()
	at := wire.Tick(*snapAt)
	if at == 0 {
		at = total / 2
	}
	if at > total {
		fmt.Fprintf(os.Stderr, "snapshot: -at %d is beyond the %d-tick run\n", at, total)
		return 1
	}
	cfg.ChaosRun = rr.ChaosRun{SnapshotAtTicks: []wire.Tick{at}}
	res := rr.RunChaos(cfg)
	snap := res.Snapshots[0] // a capture at a tick ≤ total always lands
	if err := os.WriteFile(*snapOut, snap.Data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "snapshot: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "Snapshot — %s\n", cfg.Label())
	fmt.Fprintf(out, "  captured tick %d of %d (%d bytes) -> %s\n", snap.Tick, total, len(snap.Data), *snapOut)
	fmt.Fprintf(out, "  full-run fingerprint %s\n", res.Metrics.Fingerprint)
	printChaosVerdict(res)
	return 0
}

// resumeCmd rebuilds the cell from -from and runs it to completion.
func resumeCmd() int {
	data, err := os.ReadFile(*snapFrom)
	if err != nil {
		fmt.Fprintf(os.Stderr, "resume: %v\n", err)
		return 1
	}
	res, err := rr.ResumeChaosSnapshot(data, rr.ChaosRun{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "resume: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "Resume — %s (from %s)\n", res.Config.Label(), *snapFrom)
	fmt.Fprintf(out, "  fingerprint %s\n", res.Metrics.Fingerprint)
	printChaosVerdict(res)

	if !*snapVerify {
		return 0
	}
	switch v := rr.VerifyChaosResume(res); {
	case !v.FingerprintMatch:
		fmt.Fprintf(out, "  verify: FAIL — resumed fingerprint differs from the uninterrupted run\n    %s\n    %s\n",
			res.Metrics.Fingerprint, v.OracleFingerprint)
		return 1
	case !v.MetricsMatch:
		fmt.Fprintf(out, "  verify: FAIL — metrics snapshot differs after resume\n")
		return 1
	}
	fmt.Fprintf(out, "  verify: ok — resumed run is byte-identical to the uninterrupted run\n")
	return 0
}

func printChaosVerdict(res rr.ChaosResult) {
	if res.Violation != nil {
		fmt.Fprintf(out, "  violation: %s\n", res.Violation.Error())
		return
	}
	fmt.Fprintf(out, "  verdict: ok — %d/%d attackers disabled, no invariant violated\n",
		res.Metrics.AttackersDisabled, res.Metrics.Attackers)
}
