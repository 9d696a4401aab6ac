package main

import (
	"fmt"

	rr "roborebound"
)

// swarmCmd runs the protocol-plane swarm sweep: each size executes on
// the reference plane (buffered chains, per-round re-encodes, no audit
// cache) and the fast plane. The command is simultaneously the
// tentpole's performance headline (protocol-plane speedup per size)
// and a production-scale differential check: both planes of one size
// must produce byte-identical chaos fingerprints and metrics
// snapshots. Any mismatch or invariant violation makes the process
// exit nonzero, so CI gates on it.
func swarmCmd() {
	cfg := rr.SwarmConfig{
		Seed:         *seed,
		Differential: true,
		Workers:      *parallel,
	}
	if *quick {
		cfg.Sizes = []int{1000}
		cfg.DurationSec = 4
	}
	opts := sweepOpts()
	cfg.Progress = opts.Progress

	var pts []rr.SwarmPoint
	timed("swarm sweep", func() int {
		pts = rr.RunSwarmSweep(cfg)
		return len(pts)
	})
	cmps := rr.CompareSwarmPoints(pts)

	c0 := pts[0].Result.Config // defaults applied by the sweep
	fmt.Fprintf(out, "Swarm protocol-plane sweep — %s/%s, spacing %.0fm, %.0fs per cell\n\n",
		c0.Controller, c0.Profile, c0.SpacingM, c0.DurationSec)
	fmt.Fprintf(out, "%6s | %8s %8s | %8s | %s\n",
		"N", "ref s", "fast s", "fast x", "verdict")
	for _, c := range cmps {
		verdict := "identical"
		switch {
		case !c.FastFingerprintMatch:
			verdict = "FAIL: fast fingerprint diverges from reference"
			chaosFailed = true
		case !c.FastMetricsMatch:
			verdict = "FAIL: fast metrics diverge from reference"
			chaosFailed = true
		}
		fmt.Fprintf(out, "%6d | %8.2f %8.2f | %7.1fx | %s\n",
			c.N, c.ReferenceElapsed.Seconds(), c.FastElapsed.Seconds(),
			c.SpeedupFast, verdict)
	}
	for _, p := range pts {
		if v := p.Result.Violation; v != nil {
			fmt.Fprintf(out, "  N=%d plane=%s VIOLATION: %s\n", p.N, p.Plane, v.Error())
			chaosFailed = true
		}
	}
	if !chaosFailed {
		fmt.Fprintf(out, "\nswarm: all %d sizes byte-identical across reference and fast planes\n", len(cmps))
	}
}
