package serve

import (
	"context"
	"net/http"
	"runtime"
	"testing"
)

// The most heap a tiny job may cost end to end through RunJobDirect:
// 10 % above the values measured when the ceilings were last set.
// Since no buffer of a robot grows from empty where its bound is known
// (the log keeps no per-entry offsets, the trusted pair lends from
// arrays, the engine sizes its scratch once and binds one a-node method,
// not two), the job reads 196 allocations and 44 424–44 427 B (221–223
// and 51 094–51 346 B under -race). 10 % above 196 is 216, which -race
// exceeds, so the allocation ceiling is 228, a few above both; the byte
// ceiling, 10 % above the larger reading, stays. Before that: since a
// protected robot is built in one block of its own, the job
// reads 241 allocations and 44 624 B (265–266 and 51 194–51 371 B
// under -race; 307 and 48 944 B before). The byte ceiling is 10 % above
// the larger reading. 10 % above 241 is 265, which -race reads, so the
// allocation ceiling is 270, a few above both. Before that:
// bytes: 54 675 under -race, the larger reading (48 182 without), since
// a chaos cell keeps no flight recorder — a violation's dump is rebuilt
// by re-run when the checker latches (67 550 and 74 060 before; 68 728
// once metrics.json became the rendered slice itself, 71 928 once a
// robot's metrics became one registration per component). Allocations:
// 305 once an audit round allocated only its frames and an engine kept
// its round, its checkpoint state and its decoded request (309 before),
// after 338 once metrics.json became the rendered slice itself rather than a
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
// reads 329–331 allocations, under the ceiling. Since each sender carves
// its small payloads from a slab of its own, the job reads 307
// allocations and 48 990 B (332 under -race): its three robots send a
// handful of payloads, which their first slab chunks replace, and the
// compromised robot's capture ring copies what it hears into chunks of
// its own. 10 % above 307 is above the ceiling, which stays. A change
// that lowers the measured values lowers the ceilings with them;
// nothing raises them.
const (
	tinyJobBytesCeiling  = 56_500
	tinyJobAllocsCeiling = 228
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
// one process. Since no buffer of a robot grows from empty where its
// bound is known: 510–511 allocations (562–563 under -race, so the
// ceiling is 568, a few above both), and 10 % above 78 985 B and
// 112 525 B, the largest plain and -race byte readings (78 551–78 985
// and 107 275–112 525). Before that, since a protected robot is built
// in one block of its own: 10 % above 556 allocations (555–557; 605–607 under -race), and
// 10 % above 79 648 B and 113 085 B, the largest plain and -race byte
// readings (78 724–79 648 and 108 171–113 085). Before that:
// allocations: 10 % above the 619 per job measured once an
// audit round allocated only its frames (624 before; 663 once artifacts
// under one initial congestion window went raw and the client read
// bodies at their declared length, 687 when Client.Wait became one
// long-polled status request, 789 before). Under -race sync.Pool drops
// some of what it is given and the job reads 670–673, under the
// ceiling; 621–622 and 674 since each sender carves its small payloads
// from a slab of its own, under it still. Bytes: 10 % above 84 247 without -race
// and above 117 635 with it, once a chaos cell stopped recording a flight dump
// nobody reads (103 034 and 128 869–140 027 before; 104 091 and
// 129 393 before that; 162 663 when metrics.json was gzipped and
// gunzipped). The byte ceiling is per build: -race costs this job a
// third more, and one ceiling above both readings would admit the
// recorder back. What the served path adds to
// TestTinyJobFixedCostCeiling's job is HTTP, its JSON, the scheduler
// and the store; like that ceiling, these only go down.
const (
	servedTinyJobBytesCeiling     = 86_900
	servedTinyJobRaceBytesCeiling = 123_800
	servedTinyJobAllocsCeiling    = 568
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
