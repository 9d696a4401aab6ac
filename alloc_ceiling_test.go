package roborebound

import (
	"runtime"
	"testing"

	"roborebound/internal/faultinject"
	"roborebound/internal/wire"
)

// The most heap allocations, and the most allocated bytes, per
// robot-tick two quick cells may make, construction included: 10 %
// above the values measured when the ceilings were last set, 5 % for
// the bytes since the replay machine (see below). Allocation
// counts are deterministic for a fixed cell and the bytes repeat to
// under 1 %, so these are machine-independent gates. A change that
// lowers a measured value lowers its ceiling with it; nothing raises
// one.
//
//	dense   2.449 allocations and 2 690 B since an auditor replays on a
//	        machine it keeps: the replica is loaded into, not built, its
//	        broadcasts are encoded into its own scratch, and a warm
//	        replay allocates nothing (3.222 and 2 919 B before; 2.585 and
//	        2 765 B under -race).
//	sparse  3.875 allocations and 1 711 B since then (4.585 and 1 869 B
//	        before; 4.124 and 1 769 B under -race). The byte ceilings are
//	        5 % above these readings, not 10 %: 10 % would still admit
//	        the readings before, and bytes repeat to well under 1 %.
//	dense   3.259 allocations and 2 975 B since a robot's metrics are
//	        its components' own fields, registered once each, and a
//	        snapshot renders its names into one buffer. Before that:
//	dense   3.833 allocations and 2 994 B at PR 20: a cache miss replays
//	        on the audit cache's chain replicas, and a round holds one
//	        copy of its request bytes, not three (4.339 and 3 933 B at
//	        PR 19; 8.90 at PR 14, before the control/MAC/round half
//	        stopped allocating per step; 24.28 on PR 14's parent, before
//	        the receive/log/audit half did).
//	sparse  1 869 B since a cell is traced only when its caller asks:
//	        its violation dump is rebuilt by re-run, not recorded all
//	        along (2 073 B before). The ceiling is 10 % above this plain
//	        reading; the -race one, 1 892 B, is under it, and 10 % above
//	        that would still admit the 2 073 B before.
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
	denseCellAllocCeiling  = 2.69
	sparseCellAllocCeiling = 4.26
	denseCellBytesCeiling  = 2824
	sparseCellBytesCeiling = 1796
)

// The most bytes the quick dense cell may keep, ratcheted the same way:
// 10 % above the values measured when the ceilings were last set.
//
//	snapshot   398 088 B at tick 60 since a covered audit round holds no
//	           request bytes and serializes none (751 432 B before). The
//	           count is exact: the snapshot is a deterministic encoding.
//	live heap  89 528 B at most at N=5 (the larger of the plain and
//	           -race readings, 89 416–89 448 and 89 272–89 528), sampled
//	           after a collection every 4 ticks, since the cell keeps no
//	           flight recorder: its violation dump is rebuilt by re-run
//	           (121 760–127 304 before, when covered rounds, the medium's
//	           delivery buffers and the audit cache's decode scratch had
//	           let go of request payloads; 150 904 and 151 128 before
//	           that). N=5 is the smallest cell that reads the
//	           difference: at N=4 a robot latches.
const (
	denseSnapshotBytesCeiling = 437_896
	denseLiveHeapCeiling      = 98_500
)

// denseQuickCell is the benchmark's dense workload at its quick size —
// flocking robots at 20 m pitch hearing each other every tick, mixed
// faults, an attacker turning at 20 s of 30.
func denseQuickCell(n int) ChaosConfig {
	return ChaosConfig{
		Controller:  "flocking",
		Profile:     faultinject.ProfileMixed,
		Seed:        1,
		N:           n,
		SpacingM:    20,
		DurationSec: 30,
		AttackAtSec: 20,
	}
}

// TestDenseCellAllocationCeiling runs the quick dense cell with 36
// robots and holds the whole cell, construction included, under the
// ceiling.
func TestDenseCellAllocationCeiling(t *testing.T) {
	holdCellUnderCeiling(t, "dense", denseCellAllocCeiling, denseCellBytesCeiling, denseQuickCell(36))
}

// TestDenseCellSnapshotCeiling holds the 36-robot dense cell's
// snapshot at tick 60, mid-run with most rounds covered, under its
// ceiling: what a snapshot carries per robot is what a resumed run
// still needs.
func TestDenseCellSnapshotCeiling(t *testing.T) {
	cfg := denseQuickCell(36)
	cfg.SnapshotAtTicks = []wire.Tick{60}
	res := RunChaos(cfg)
	if res.Violation != nil || len(res.Snapshots) != 1 {
		t.Fatalf("cell latched %v, captured %d snapshots", res.Violation, len(res.Snapshots))
	}
	got := len(res.Snapshots[0].Data)
	t.Logf("dense cell (N=%d): snapshot at tick 60 is %d B, ceiling %d", cfg.N, got, denseSnapshotBytesCeiling)
	if got > denseSnapshotBytesCeiling {
		t.Errorf("the snapshot at tick 60 is %d B, over the ceiling of %d: find what the round, log or medium "+
			"codec carries that a resume does not need instead of raising the ceiling", got, denseSnapshotBytesCeiling)
	}
}

// TestDenseCellLiveHeapCeiling holds the most heap a 5-robot dense cell
// keeps live under its ceiling. Every 4 ticks the Interrupt hook — an
// observation-only seam between ticks — collects and reads HeapAlloc;
// the reading is net of the heap live before the cell starts, after a
// warm-up cell has initialised whatever the package sets up lazily.
func TestDenseCellLiveHeapCeiling(t *testing.T) {
	RunChaos(denseQuickCell(4))
	var ms runtime.MemStats
	// Two collections: the first can leave the previous test's pooled
	// objects and finalizer-reachable garbage for the second.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	var peak uint64
	boundaries := 0
	cfg := denseQuickCell(5)
	cfg.Interrupt = func() bool {
		if boundaries++; boundaries%4 == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
		}
		return false
	}
	if res := RunChaos(cfg); res.Violation != nil || res.Interrupted {
		t.Fatalf("cell latched %v (interrupted: %v)", res.Violation, res.Interrupted)
	}
	live := int64(peak) - int64(base)
	t.Logf("dense cell (N=%d): at most %d B live over %d tick boundaries, ceiling %d", cfg.N, live, boundaries, denseLiveHeapCeiling)
	if live > denseLiveHeapCeiling {
		t.Errorf("the cell keeps up to %d B live, over the ceiling of %d: find what holds bytes nothing reads again "+
			"(DESIGN.md, \"Byte ownership on the data path\") instead of raising the ceiling", live, denseLiveHeapCeiling)
	}
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
