package roborebound

import (
	"runtime"
	"testing"

	"roborebound/internal/faultinject"
)

// The most heap allocations, and the most allocated bytes, per
// robot-tick two quick cells may make, construction included: 10 %
// above the values measured when the ceilings were last set. Allocation
// counts are deterministic for a fixed cell and the bytes repeat to
// under 1 %, so these are machine-independent gates. A change that
// lowers a measured value lowers its ceiling with it; nothing raises
// one.
//
//	dense   3.259 allocations and 2 975 B since a robot's metrics are
//	        its components' own fields, registered once each, and a
//	        snapshot renders its names into one buffer. Before that:
//	dense   3.833 allocations and 2 994 B at PR 20: a cache miss replays
//	        on the audit cache's chain replicas, and a round holds one
//	        copy of its request bytes, not three (4.339 and 3 933 B at
//	        PR 19; 8.90 at PR 14, before the control/MAC/round half
//	        stopped allocating per step; 24.28 on PR 14's parent, before
//	        the receive/log/audit half did).
//	sparse  4.716 allocations and 2 080 B since metrics registered per
//	        component. Before that:
//	sparse  6.816 allocations and 2 125 B at PR 20 (7.250 and 2 552 B at
//	        PR 19, 11.415 on its parent). Construction — keys, chains,
//	        registries — is over a quarter of what is left; a cell of
//	        this shape spreads it over 32 ticks only.
//
// What is left of the bytes is what is sent: each of a round's f_max+1
// request frames owns a whole payload (DESIGN.md, "Byte ownership on
// the data path"), and the log window's growth.
const (
	denseCellAllocCeiling  = 3.59
	sparseCellAllocCeiling = 5.19
	denseCellBytesCeiling  = 3273
	sparseCellBytesCeiling = 2288
)

// TestDenseCellAllocationCeiling runs the benchmark's dense workload at
// its quick size — 36 flocking robots at 20 m pitch hearing each other
// every tick, mixed faults, an attacker turning at 20 s of 30 — and
// holds the whole cell, construction included, under the ceiling.
func TestDenseCellAllocationCeiling(t *testing.T) {
	holdCellUnderCeiling(t, "dense", denseCellAllocCeiling, denseCellBytesCeiling, ChaosConfig{
		Controller:  "flocking",
		Profile:     faultinject.ProfileMixed,
		Seed:        1,
		N:           36,
		SpacingM:    20,
		DurationSec: 30,
		AttackAtSec: 20,
	})
}

// TestSparseCellAllocationCeiling is the same gate on the benchmark's
// sparse workload at a tenth of its size — 100 flocking robots at 64 m
// pitch, no faults, 8 s — where each robot hears a handful of peers and
// lives for 32 ticks, so per-robot construction and per-round protocol
// work are what is counted, not the receive path.
func TestSparseCellAllocationCeiling(t *testing.T) {
	holdCellUnderCeiling(t, "sparse", sparseCellAllocCeiling, sparseCellBytesCeiling, ChaosConfig{
		Controller:  "flocking",
		Profile:     faultinject.ProfileNone,
		Seed:        1,
		N:           100,
		SpacingM:    64,
		DurationSec: 8,
	})
}

func holdCellUnderCeiling(t *testing.T, name string, ceiling, bytesCeiling float64, cfg ChaosConfig) {
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
	gotBytes := float64(after.TotalAlloc-before.TotalAlloc) / robotTicks
	t.Logf("%s cell (N=%d): %.3f allocations and %.0f B per robot-tick, ceilings %.2f and %.0f",
		name, cfg.N, got, gotBytes, ceiling, bytesCeiling)
	if got > ceiling || gotBytes > bytesCeiling {
		t.Errorf("%s cell makes %.2f allocations of %.0f B per robot-tick, over the ceilings of %.2f and %.0f: "+
			"find what allocates (go test -run 'Test.*CellAllocationCeiling' -memprofile) instead of raising a ceiling",
			name, got, gotBytes, ceiling, bytesCeiling)
	}
}
