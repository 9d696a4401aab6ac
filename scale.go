package roborebound

import (
	"fmt"
	"time"

	"roborebound/internal/faultinject"
	"roborebound/internal/obs"
	"roborebound/internal/runner"
)

// This file is the swarm-scale workload: chaos cells at 100–500+
// robots, optionally run twice per size — brute-force and
// spatially-indexed — so the sweep doubles as both a performance
// measurement (ScaleComparison.Speedup) and a production-scale
// differential check (byte-equal fingerprints and metrics). The
// elapsed times come from the runner's OnDone telemetry, so scale.go
// itself never reads a wall clock.

// ScaleConfig describes a swarm-scale sweep. Zero values take
// defaults.
type ScaleConfig struct {
	// Sizes are the swarm sizes to run (default 100, 250, 500).
	Sizes []int
	// DurationSec is each cell's mission length (default 20 s).
	DurationSec float64
	// SpacingM is the flocking grid pitch (default 64 m — the paper's
	// sparse end, so a 500-robot swarm spans ~1.4 km and the spatial
	// index has real work to do).
	SpacingM float64
	// Seed drives every cell.
	Seed uint64
	// Controller and Profile select the mission and fault mix
	// (defaults: flocking, ProfileNone).
	Controller string
	Profile    faultinject.Profile
	// Differential runs every size twice — index off, then on — and
	// CompareScalePoints checks the pairs byte-for-byte. When false,
	// only the indexed run happens.
	Differential bool
	// Workers / Progress as in SweepOptions.
	Workers  int
	Progress func(SweepProgress)
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{100, 250, 500}
	}
	if c.DurationSec == 0 {
		c.DurationSec = 20
	}
	if c.SpacingM == 0 {
		c.SpacingM = 64
	}
	if c.Controller == "" {
		c.Controller = "flocking"
	}
	if c.Profile == "" {
		c.Profile = faultinject.ProfileNone
	}
	return c
}

// cell builds the ChaosConfig for one (size, indexed) run.
func (c ScaleConfig) cell(n int, indexed bool) ChaosConfig {
	return ChaosConfig{
		Controller:   c.Controller,
		Profile:      c.Profile,
		Seed:         c.Seed,
		N:            n,
		DurationSec:  c.DurationSec,
		SpacingM:     c.SpacingM,
		SpatialIndex: indexed,
	}
}

// ScalePoint is one completed swarm-scale cell.
type ScalePoint struct {
	N       int
	Indexed bool
	Result  ChaosResult
	// Elapsed is the cell's wall-clock runtime (runner telemetry; it
	// never feeds back into any simulation result).
	Elapsed time.Duration
}

// ScaleComparison pairs the brute and indexed runs of one size.
type ScaleComparison struct {
	N                            int
	BruteElapsed, IndexedElapsed time.Duration
	// Speedup is BruteElapsed / IndexedElapsed.
	Speedup float64
	// FingerprintMatch / MetricsMatch report byte-equality of the two
	// runs' chaos fingerprints and metrics snapshots. Anything but
	// (true, true) is an indexing bug.
	FingerprintMatch bool
	MetricsMatch     bool
	Brute, Indexed   *ScalePoint
}

// RunScaleSweep runs the sweep's cells on the worker pool and returns
// points in input order: for each size, the brute run (when
// Differential) followed by the indexed run.
func RunScaleSweep(cfg ScaleConfig) []ScalePoint {
	cfg = cfg.withDefaults()
	var cells []ChaosConfig
	var pts []ScalePoint
	for _, n := range cfg.Sizes {
		if cfg.Differential {
			cells = append(cells, cfg.cell(n, false))
			pts = append(pts, ScalePoint{N: n, Indexed: false})
		}
		cells = append(cells, cfg.cell(n, true))
		pts = append(pts, ScalePoint{N: n, Indexed: true})
	}

	label := func(i int) string { return fmt.Sprintf("scale N=%d %s", pts[i].N, cells[i].Label()) }
	opts := SweepOptions{Workers: cfg.Workers, Progress: cfg.Progress}
	ro := opts.runnerOpts(len(cells), label)
	inner := ro.OnDone
	elapsed := make([]time.Duration, len(cells))
	ro.OnDone = func(i int, err error, d time.Duration) { // serialized by the runner
		elapsed[i] = d
		if inner != nil {
			inner(i, err, d)
		}
	}
	results := runner.AllOpts(ro, len(cells), func(i int) ChaosResult {
		return RunChaos(cells[i])
	})
	for i := range pts {
		pts[i].Result = results[i]
		pts[i].Elapsed = elapsed[i]
	}
	return pts
}

// CompareScalePoints pairs each size's brute and indexed points and
// byte-compares their outcomes. Points without a counterpart (a
// non-differential sweep) produce no comparison.
func CompareScalePoints(pts []ScalePoint) []ScaleComparison {
	var out []ScaleComparison
	for i := range pts {
		if pts[i].Indexed || i+1 >= len(pts) || !pts[i+1].Indexed || pts[i+1].N != pts[i].N {
			continue
		}
		b, x := &pts[i], &pts[i+1]
		cmp := ScaleComparison{
			N:                b.N,
			BruteElapsed:     b.Elapsed,
			IndexedElapsed:   x.Elapsed,
			FingerprintMatch: b.Result.Metrics.Fingerprint == x.Result.Metrics.Fingerprint,
			MetricsMatch:     obs.SamplesEqual(b.Result.MetricsSnapshot, x.Result.MetricsSnapshot),
			Brute:            b,
			Indexed:          x,
		}
		if x.Elapsed > 0 {
			cmp.Speedup = float64(b.Elapsed) / float64(x.Elapsed)
		}
		out = append(out, cmp)
	}
	return out
}
