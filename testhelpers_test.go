package roborebound

import (
	"fmt"
	"sync"
	"testing"

	"roborebound/internal/control"
	"roborebound/internal/core"
	"roborebound/internal/flocking"
	"roborebound/internal/geom"
	"roborebound/internal/wire"
)

// Shared helpers for the root-package test files.

// coreCfgWith returns the default protocol config at the given tick
// rate with an explicit f_max.
func coreCfgWith(ticksPerSecond float64, fmax int) core.Config {
	cc := core.DefaultConfig(ticksPerSecond)
	cc.Fmax = fmax
	return cc
}

// flockFactory returns an Olfati-Saber factory with Table 3 defaults,
// 4 m spacing, at 4 ticks/s.
func flockFactory(spacing float64, goal geom.Vec2) control.Factory {
	return flocking.Factory{Params: flocking.DefaultParams(4, spacing, goal)}
}

// wireRobotID converts for test readability.
func wireRobotID(v uint16) wire.RobotID { return wire.RobotID(v) }

// RequireProfilesDiffer fails when two cells that differ only in fault
// profile ran the same simulation: a profile that schedules nothing
// tests nothing. fingerprints maps each cell, named without its
// profile, to its fingerprint per profile. Exported for the package's
// external tests (serve_differential_test.go).
func RequireProfilesDiffer(t *testing.T, fingerprints map[string]map[string]string) {
	t.Helper()
	for cell, byProfile := range fingerprints {
		seen := map[string]string{} // fingerprint → profile
		for profile, fp := range byProfile {
			if other, dup := seen[fp]; dup {
				t.Errorf("%s: profiles %s and %s ran the same simulation (fingerprint %s)", cell, other, profile, fp)
			}
			seen[fp] = profile
		}
	}
}

// profileFingerprints returns a recorder that parallel subtests of t
// call with their cell's fingerprint; once they have all run, the
// profile dimension is checked with RequireProfilesDiffer.
func profileFingerprints(t *testing.T) func(cfg ChaosConfig, fingerprint string) {
	var mu sync.Mutex
	fingerprints := map[string]map[string]string{}
	t.Cleanup(func() { RequireProfilesDiffer(t, fingerprints) })
	return func(cfg ChaosConfig, fingerprint string) {
		mu.Lock()
		defer mu.Unlock()
		cell := fmt.Sprintf("%s seed=%d", cfg.Controller, cfg.Seed)
		if fingerprints[cell] == nil {
			fingerprints[cell] = map[string]string{}
		}
		fingerprints[cell][string(cfg.Profile)] = fingerprint
	}
}
