package serve

import (
	"runtime"
	"testing"
)

// The most heap a tiny job may cost end to end through RunJobDirect:
// 10 % above the values measured when the ceilings were last set:
// 71 928 B and 339 allocations once a robot's metrics became one
// registration per component and a snapshot one buffer, and the
// scheduler's metric names were built once per tenant
// (75 584 B and 553 allocations at PR 20, when a round stopped copying
// its window twice and the heard set and token map became slices;
// 77 576 B and 571 at PR 19, when the control/MAC/round half of a tick
// and key loading stopped allocating; 81 824 B and 694 at PR 18;
// 557 241 B and 953 on its parent, when every sim zeroed a
// 4096-verdict map and metrics.json was rendered a line at a time). A
// 3-robot, 1-second job simulates 12 robot-ticks, so nearly all of this
// is cost paid before the first tick — the constant term every cell of
// every sweep pays. Allocation counts and sizes are deterministic for a
// fixed request (to ~0.3 %: a GC cycle empties encoding/json's and
// fmt's pools), so this is a machine-independent gate like the root
// package's cell ceilings. Under -race sync.Pool drops a quarter of
// what it is given and the job reads ~76 800 B / 361, under both
// ceilings (the byte ceiling is 79 121 rounded up). A change that
// lowers the measured values lowers the ceilings with them; nothing
// raises them.
const (
	tinyJobBytesCeiling  = 79_200
	tinyJobAllocsCeiling = 373
)

// TestTinyJobFixedCostCeiling runs the benchmark's serve_tiny_jobs
// request — seed-1 {chaos, none, N=3, 1 s} — without HTTP, scheduler
// or store and holds the whole job under the ceilings.
func TestTinyJobFixedCostCeiling(t *testing.T) {
	req := &JobRequest{
		Version:     RequestVersion,
		Kind:        KindChaos,
		Profile:     "none",
		Seed:        1,
		N:           3,
		DurationSec: 1,
	}
	run := func() {
		if _, err := RunJobDirect(req, nil); err != nil {
			t.Fatalf("tiny job: %v", err)
		}
	}
	run() // one-time costs (lazy tables, sync.Once) are not the job's

	const jobs = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / jobs
	allocs := (after.Mallocs - before.Mallocs) / jobs
	t.Logf("tiny job: %d B and %d allocations per job, ceilings %d / %d",
		bytes, allocs, tinyJobBytesCeiling, tinyJobAllocsCeiling)
	if bytes > tinyJobBytesCeiling || allocs > tinyJobAllocsCeiling {
		t.Errorf("tiny job costs %d B / %d allocations, over the ceilings of %d / %d: "+
			"find what a job pays that does not depend on what it simulates "+
			"(go test -run TestTinyJobFixedCostCeiling -memprofile) instead of raising a ceiling",
			bytes, allocs, tinyJobBytesCeiling, tinyJobAllocsCeiling)
	}
}
