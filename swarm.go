package roborebound

import (
	"fmt"
	"time"

	"roborebound/internal/faultinject"
	"roborebound/internal/runner"
)

// This file is the protocol-plane swarm sweep: chaos cells at
// 1000–2000 robots, each size run on up to two planes — the
// reference protocol plane (buffered chains, per-round re-encodes, no
// audit cache) and the fast plane (streaming chains, encode-once audit
// path, audit verdict cache). The sweep doubles as the tentpole's
// performance measurement (SwarmComparison.SpeedupFast) and as a
// production-scale differential check: both planes of one size must
// produce byte-identical fingerprints and metrics snapshots, or the
// pipeline has a bug. As in scale.go, elapsed times come from the
// runner's OnDone telemetry, never from a wall clock read here.

// SwarmPlane names one protocol-plane variant of a swarm cell.
type SwarmPlane string

const (
	// PlaneReference is the straight-from-the-paper oracle:
	// buffered chains, per-round segment re-encodes, per-auditor
	// request encodes, no audit cache.
	PlaneReference SwarmPlane = "reference"
	// PlaneFast is the streaming/cached protocol plane.
	PlaneFast SwarmPlane = "fast"
)

// SwarmConfig describes a swarm-scale protocol-plane sweep. Zero
// values take defaults.
type SwarmConfig struct {
	// Sizes are the swarm sizes to run (default 1000).
	Sizes []int
	// DurationSec is each cell's mission length (default 8 s — two
	// audit periods, enough for every robot to cover rounds on both
	// planes without making a 1000-robot differential run take all
	// day).
	DurationSec float64
	// SpacingM is the flocking grid pitch (default 64 m, the paper's
	// sparse end).
	SpacingM float64
	// Seed drives every cell.
	Seed uint64
	// Controller and Profile select the mission and fault mix
	// (defaults: flocking, ProfileNone).
	Controller string
	Profile    faultinject.Profile
	// Differential runs every size on both planes and
	// CompareSwarmPoints checks them byte-for-byte. When false, only
	// the fast cell runs.
	Differential bool
	// Workers / Progress as in SweepOptions. The default (sequential)
	// is also what the speedup numbers want: cells timed one at a
	// time don't steal each other's cores.
	Workers  int
	Progress func(SweepProgress)
}

func (c SwarmConfig) withDefaults() SwarmConfig {
	if len(c.Sizes) == 0 {
		c.Sizes = []int{1000}
	}
	if c.DurationSec == 0 {
		c.DurationSec = 8
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

// cell builds the ChaosConfig for one (size, plane) run. Every plane
// of a size shares seed, schedule, and layout; only the protocol
// pipeline differs — which is exactly what the differential check
// needs.
func (c SwarmConfig) cell(n int, plane SwarmPlane) ChaosConfig {
	return ChaosConfig{
		Controller:     c.Controller,
		Profile:        c.Profile,
		Seed:           c.Seed,
		N:              n,
		DurationSec:    c.DurationSec,
		SpacingM:       c.SpacingM,
		SpatialIndex:   true, // swarm sizes are unusable without it
		ReferencePlane: plane == PlaneReference,
	}
}

// SwarmPoint is one completed swarm cell.
type SwarmPoint struct {
	N      int
	Plane  SwarmPlane
	Result ChaosResult
	// Elapsed is the cell's wall-clock runtime (runner telemetry; it
	// never feeds back into any simulation result).
	Elapsed time.Duration
}

// SwarmComparison lines up the planes of one size. The reference
// plane is the oracle: the fast cell must match it byte-for-byte.
type SwarmComparison struct {
	N int
	// Elapsed per plane (zero when that plane didn't run).
	ReferenceElapsed, FastElapsed time.Duration
	// SpeedupFast is ReferenceElapsed / FastElapsed.
	SpeedupFast float64
	// FastFingerprintMatch / FastMetricsMatch compare the fast cell
	// against the reference cell. Anything but true is a pipeline bug.
	FastFingerprintMatch, FastMetricsMatch bool
	Reference, Fast                        *SwarmPoint
}

// RunSwarmSweep runs the sweep's cells on the worker pool and returns
// points in input order: for each size, reference then fast (when
// Differential), or just fast.
func RunSwarmSweep(cfg SwarmConfig) []SwarmPoint {
	cfg = cfg.withDefaults()
	var cells []ChaosConfig
	var pts []SwarmPoint
	for _, n := range cfg.Sizes {
		if cfg.Differential {
			cells = append(cells, cfg.cell(n, PlaneReference))
			pts = append(pts, SwarmPoint{N: n, Plane: PlaneReference})
		}
		cells = append(cells, cfg.cell(n, PlaneFast))
		pts = append(pts, SwarmPoint{N: n, Plane: PlaneFast})
	}

	label := func(i int) string {
		return fmt.Sprintf("swarm N=%d %s %s", pts[i].N, pts[i].Plane, cells[i].Label())
	}
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

// CompareSwarmPoints groups each size's planes and byte-compares the
// fast cell against the reference oracle. Sizes without a reference
// point (a non-differential sweep) produce no comparison.
func CompareSwarmPoints(pts []SwarmPoint) []SwarmComparison {
	var out []SwarmComparison
	for i := range pts {
		if pts[i].Plane != PlaneReference {
			continue
		}
		ref := &pts[i]
		cmp := SwarmComparison{N: ref.N, ReferenceElapsed: ref.Elapsed, Reference: ref}
		// RunSwarmSweep emits a size's fast cell right after its reference.
		if j := i + 1; j < len(pts) && pts[j].N == ref.N && pts[j].Plane == PlaneFast {
			p := &pts[j]
			cmp.Fast = p
			cmp.FastElapsed = p.Elapsed
			cmp.FastFingerprintMatch = p.Result.Metrics.Fingerprint == ref.Result.Metrics.Fingerprint
			cmp.FastMetricsMatch = samplesEqual(p.Result.MetricsSnapshot, ref.Result.MetricsSnapshot)
			if p.Elapsed > 0 {
				cmp.SpeedupFast = float64(ref.Elapsed) / float64(p.Elapsed)
			}
		}
		out = append(out, cmp)
	}
	return out
}

// Matches reports whether the fast cell, if it ran, matched the
// reference oracle byte-for-byte.
func (c SwarmComparison) Matches() bool {
	return c.Fast == nil || (c.FastFingerprintMatch && c.FastMetricsMatch)
}
