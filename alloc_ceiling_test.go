package roborebound

import (
	"runtime"
	"testing"

	"roborebound/internal/faultinject"
)

// denseCellAllocCeiling is the most heap allocations per robot-tick the
// quick dense cell may make: 10 % above the value measured when the
// ceiling was last set (8.90 at PR 14; 24.28 on its parent, before the
// receive/log/audit path stopped allocating per frame). Allocation
// counts are deterministic for a fixed cell, so this is a
// machine-independent gate. A change that lowers the measured value
// lowers the ceiling with it; nothing raises it.
const denseCellAllocCeiling = 9.79

// TestDenseCellAllocationCeiling runs the benchmark's dense workload at
// its quick size — 36 flocking robots at 20 m pitch hearing each other
// every tick, mixed faults, an attacker turning at 20 s of 30 — and
// holds the whole cell, construction included, under the ceiling.
func TestDenseCellAllocationCeiling(t *testing.T) {
	cfg := ChaosConfig{
		Controller:   "flocking",
		Profile:      faultinject.ProfileMixed,
		Seed:         1,
		N:            36,
		SpacingM:     20,
		DurationSec:  30,
		SpatialIndex: true,
		AttackAtSec:  20,
	}
	const ticksPerSecond = 4
	robotTicks := float64(cfg.N) * cfg.DurationSec * ticksPerSecond

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := RunChaos(cfg)
	runtime.ReadMemStats(&after)
	if res.Violation != nil {
		t.Fatalf("cell latched %v", res.Violation)
	}
	got := float64(after.Mallocs-before.Mallocs) / robotTicks
	t.Logf("dense cell (N=%d): %.3f allocations per robot-tick, ceiling %.2f", cfg.N, got, denseCellAllocCeiling)
	if got > denseCellAllocCeiling {
		t.Errorf("dense cell makes %.2f allocations per robot-tick, over the ceiling of %.2f: "+
			"find what allocates per frame (go test -run TestDenseCellAllocationCeiling -memprofile) instead of raising the ceiling",
			got, denseCellAllocCeiling)
	}
}
