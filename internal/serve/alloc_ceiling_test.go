package serve

import (
	"context"
	"net/http"
	"runtime"
	"testing"
)

// The most heap a tiny job may cost end to end through RunJobDirect:
// 10 % above the values measured when the ceilings were last set.
// Bytes: 54 675 under -race, the larger reading (48 182 without), since
// a chaos cell keeps no flight recorder — a violation's dump is rebuilt
// by re-run when the checker latches (67 550 and 74 060 before; 68 728
// once metrics.json became the rendered slice itself, 71 928 once a
// robot's metrics became one registration per component). Allocations:
// 338 once metrics.json became the rendered slice itself rather than a
// copy out of a bytes.Buffer, after 339 once a robot's metrics became
// one registration per component and a snapshot one buffer, and the
// scheduler's metric names were built once per tenant (75 584 B and 553
// allocations when a round stopped copying its window twice and the
// heard set and token map became slices; 77 576 B and 571 when the
// control/MAC/round half of a tick and key loading stopped allocating;
// 81 824 B and 694 before that, and 557 241 B and 953 when every sim
// zeroed a 4096-verdict map and metrics.json was rendered a line at a
// time). A 3-robot, 1-second job simulates 12
// robot-ticks, so nearly all of this is cost paid before the first
// tick — the constant term every cell of every sweep pays. Allocation
// counts and sizes are deterministic for a fixed request (to ~0.3 %: a
// GC cycle empties encoding/json's and fmt's pools), so this is a
// machine-independent gate like the root package's cell ceilings.
// Under -race sync.Pool drops a quarter of what it is given and the job
// reads ~340 allocations, under the ceiling. A change that lowers the
// measured values lowers the ceilings with them; nothing raises them.
const (
	tinyJobBytesCeiling  = 60_200
	tinyJobAllocsCeiling = 372
)

// tinyJobRequest is the benchmark's serve_tiny_jobs request at seed 1:
// {chaos, none, N=3, 1 s}.
func tinyJobRequest() *JobRequest {
	return &JobRequest{
		Version:     RequestVersion,
		Kind:        KindChaos,
		Profile:     "none",
		Seed:        1,
		N:           3,
		DurationSec: 1,
	}
}

// TestTinyJobFixedCostCeiling runs the benchmark's serve_tiny_jobs
// request without HTTP, scheduler or store and holds the whole job
// under the ceilings.
func TestTinyJobFixedCostCeiling(t *testing.T) {
	req := tinyJobRequest()
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

// The most a tiny job may cost served, client and server together in
// one process. Allocations: 10 % above the 663 per job measured once
// artifacts under one initial congestion window went raw and the
// client read bodies at their declared length (687 when Client.Wait
// became one long-polled status request, 789 before). Under -race
// sync.Pool drops some of what it is given and the job reads ~710,
// under the ceiling. Bytes: 10 % above 84 247 without -race and above
// 117 635 with it, once a chaos cell stopped recording a flight dump
// nobody reads (103 034 and 128 869–140 027 before; 104 091 and
// 129 393 before that; 162 663 when metrics.json was gzipped and
// gunzipped). The byte ceiling is per build: -race costs this job a
// third more, and one ceiling above both readings would admit the
// recorder back. What the served path adds to
// TestTinyJobFixedCostCeiling's job is HTTP, its JSON, the scheduler
// and the store; like that ceiling, these only go down.
const (
	servedTinyJobBytesCeiling     = 92_700
	servedTinyJobRaceBytesCeiling = 129_400
	servedTinyJobAllocsCeiling    = 730
)

// TestServedTinyJobAllocationCeiling runs the benchmark's tiny request
// the closed loop's way — Submit, Wait, fetch metrics.json — over
// loopback HTTP on a one-connection client, and holds the bytes and
// allocations of a whole job under the ceilings.
func TestServedTinyJobAllocationCeiling(t *testing.T) {
	_, ts, _ := newTestServer(t, ServerOptions{Workers: 2})
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	t.Cleanup(tr.CloseIdleConnections)
	client := &Client{Base: ts.URL, Tenant: "bench", HTTP: &http.Client{Transport: tr}}
	req := tinyJobRequest()
	ctx := context.Background()
	run := func() {
		st, err := client.Submit(ctx, req)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		if st, err = client.Wait(ctx, st.ID); err != nil || st.State != StateDone {
			t.Fatalf("wait: %q, %v", st.State, err)
		}
		if _, err := client.Artifact(ctx, st.ID, "metrics.json"); err != nil {
			t.Fatalf("fetch: %v", err)
		}
	}
	for i := 0; i < 8; i++ {
		run() // the connection, the pools and lazy tables are not the job's
	}

	const jobs = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / jobs
	allocs := (after.Mallocs - before.Mallocs) / jobs
	bytesCeiling := uint64(servedTinyJobBytesCeiling)
	if raceDetector {
		bytesCeiling = servedTinyJobRaceBytesCeiling
	}
	t.Logf("served tiny job: %d B and %d allocations per job, ceilings %d / %d",
		bytes, allocs, bytesCeiling, servedTinyJobAllocsCeiling)
	if bytes > bytesCeiling || allocs > servedTinyJobAllocsCeiling {
		t.Errorf("a served tiny job costs %d B / %d allocations, over the ceilings of %d / %d: "+
			"find what the served path added (go test -run TestServedTinyJobAllocationCeiling -memprofile) "+
			"instead of raising a ceiling", bytes, allocs, bytesCeiling, servedTinyJobAllocsCeiling)
	}
}
