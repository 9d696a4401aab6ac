package roborebound

import (
	"testing"
	"time"
)

// TestScaleSweepDifferential runs a small differential scale sweep and
// checks the pairing/comparison machinery end to end: brute and
// indexed runs of the same size must produce identical fingerprints
// and metrics snapshots, and points must pair up in input order.
func TestScaleSweepDifferential(t *testing.T) {
	sizes := []int{20, 35}
	dur := 6.0
	if testing.Short() {
		sizes = []int{16}
		dur = 3
	}
	pts := RunScaleSweep(ScaleConfig{
		Sizes:        sizes,
		DurationSec:  dur,
		Seed:         7,
		Differential: true,
		Workers:      0,
	})
	if len(pts) != 2*len(sizes) {
		t.Fatalf("got %d points, want %d", len(pts), 2*len(sizes))
	}
	cmps := CompareScalePoints(pts)
	if len(cmps) != len(sizes) {
		t.Fatalf("got %d comparisons, want %d", len(cmps), len(sizes))
	}
	for _, c := range cmps {
		if !c.FingerprintMatch {
			t.Errorf("N=%d: fingerprints diverge:\nbrute:   %s\nindexed: %s",
				c.N, c.Brute.Result.Metrics.Fingerprint, c.Indexed.Result.Metrics.Fingerprint)
		}
		if !c.MetricsMatch {
			t.Errorf("N=%d: metrics snapshots diverge", c.N)
		}
		if c.Brute.Indexed || !c.Indexed.Indexed {
			t.Errorf("N=%d: comparison paired wrong points", c.N)
		}
		if c.Brute.Elapsed <= 0 || c.Indexed.Elapsed <= 0 {
			t.Errorf("N=%d: missing elapsed telemetry (%v, %v)", c.N, c.BruteElapsed, c.IndexedElapsed)
		}
	}
}

// TestScaleSweepNonDifferential: without Differential only indexed
// points come back, and nothing pairs.
func TestScaleSweepNonDifferential(t *testing.T) {
	pts := RunScaleSweep(ScaleConfig{Sizes: []int{12}, DurationSec: 2, Seed: 3})
	if len(pts) != 1 || !pts[0].Indexed {
		t.Fatalf("points: %+v", pts)
	}
	if cmps := CompareScalePoints(pts); len(cmps) != 0 {
		t.Fatalf("unexpected comparisons: %+v", cmps)
	}
}

func TestScaleConfigDefaults(t *testing.T) {
	c := ScaleConfig{}.withDefaults()
	if len(c.Sizes) != 3 || c.Sizes[2] != 500 {
		t.Errorf("default sizes: %v", c.Sizes)
	}
	if c.DurationSec != 20 || c.SpacingM != 64 || c.Controller != "flocking" {
		t.Errorf("defaults: %+v", c)
	}
}

func TestCompareScalePointsSpeedup(t *testing.T) {
	pts := []ScalePoint{
		{N: 5, Indexed: false, Elapsed: 10 * time.Second},
		{N: 5, Indexed: true, Elapsed: 2 * time.Second},
	}
	cmps := CompareScalePoints(pts)
	if len(cmps) != 1 || cmps[0].Speedup != 5 {
		t.Fatalf("comparisons: %+v", cmps)
	}
}
