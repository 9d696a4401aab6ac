//go:build soak

package roborebound

import (
	"slices"
	"testing"

	"roborebound/internal/metrics"
)

// TestPaperFiguresUnderTheChecker runs the paper-scale Figs. 6 and 7
// at the CLI's seed: 12 Fig. 6 cells and 28 Fig. 7 cells, every one a
// protected flock watched by the invariant checker. A cell whose
// checker latches panics, and the sweep runner re-raises it here. It
// takes about 8 s on two cores, so it is `make soak`, not tier-1:
//
//	go test -tags soak -run TestPaperFiguresUnderTheChecker .
func TestPaperFiguresUnderTheChecker(t *testing.T) {
	if pts := RunFig6Sweep(Fig6Config{Seed: 1}, SweepOptions{}); len(pts) != 12 {
		t.Errorf("fig6 ran %d cells, want 12", len(pts))
	}
	density := RunFig7DensitySweep(nil, nil, 0, 1, SweepOptions{})
	scale := RunFig7ScaleSweep(nil, 0, 1, SweepOptions{})
	if n := len(density) + len(scale); n != 28 {
		t.Errorf("fig7 ran %d cells, want 28", n)
	}
}

// TestFig9DisableLatency runs the defended Fig. 9 attack under the
// invariant checker and reports its disable latency (first
// misbehavior to Safe Mode) as a distribution against T_val = 10 s.
// Every run must disable its attacker within the BTI bound, T_val +
// T_audit = 14 s, with no correct robot disabled and no crash.
//
// Two sweeps of 64 runs each: seeds 1..64 at the figure's compromise
// time, and compromise times 24.5 s..40.25 s in 0.25 s steps at its
// seed. The seed moves nothing in this cell (no placement jitter, a
// lossless radio), so the first sweep is 64 copies of one run; the
// second starts the misbehavior at every tick of four audit periods,
// which is what the latency depends on. EXPERIMENTS.md's headline
// section records both distributions.
//
//	go test -tags soak -run TestFig9DisableLatency -v .
func TestFig9DisableLatency(t *testing.T) {
	const runs = 64
	sweep := func(name string, vary func(c *AttackRunConfig, i int)) {
		cfgs := make([]AttackRunConfig, runs)
		for i := range cfgs {
			cfgs[i] = DefaultAttackRun()
			cfgs[i].Protected = true
			cfgs[i].Seed = 1
			vary(&cfgs[i], i)
		}
		var latencies []float64
		for i, res := range RunAttackSweep(cfgs, SweepOptions{}) {
			window := res.AttackActiveSec[1] - res.AttackActiveSec[0]
			if !res.AttackerKilled || window > 14 {
				t.Errorf("%s run %d: attacker disabled %v after %.2f s, want within 14 s", name, i, res.AttackerKilled, window)
			}
			if res.Crashes != 0 {
				t.Errorf("%s run %d: crashes %d", name, i, res.Crashes)
			}
			latencies = append(latencies, window)
		}
		slices.Sort(latencies)
		t.Logf("%s: disable latency over %d runs: min %.2f s, p25 %.2f s, median %.2f s, p75 %.2f s, max %.2f s, mean %.2f s",
			name, runs, latencies[0], metrics.Percentile(latencies, 25), metrics.Percentile(latencies, 50),
			metrics.Percentile(latencies, 75), latencies[runs-1], metrics.Mean(latencies))
	}
	sweep("seeds 1..64", func(c *AttackRunConfig, i int) { c.Seed = uint64(i + 1) })
	sweep("compromise 24.5..40.25 s", func(c *AttackRunConfig, i int) { c.CompromiseAtSec = 24.5 + 0.25*float64(i) })
}
