package roborebound

import (
	"math"
	"runtime"
	"testing"

	"roborebound/internal/cryptolite"
	"roborebound/internal/faultinject"
	"roborebound/internal/geom"
	"roborebound/internal/obs"
	"roborebound/internal/wire"
)

// The most heap allocations, and the most allocated bytes, per
// robot-tick two quick cells, one pass of the correctness matrix and
// one pass of fragmenting cells may make, construction included: 10 %
// above the values measured when the ceilings were last set, 5 % for
// the bytes since the replay machine (see below). Allocation counts are
// deterministic for a fixed cell and the bytes repeat to under 1 %, so
// these are machine-independent gates. A change that lowers a measured
// value lowers its ceiling with it; nothing raises one.
//
//	sparse  1.385 allocations and 1 538 B since the trusted chains hash
//	        on the SHA-NI kernel through a digest held in the chain, not
//	        a crypto/sha1 digest each chain allocates, and a Robot keeps
//	        the one Config field it reads, not the whole Config, so the
//	        protected block stays in its size class (1.448 and 1 545 B
//	        before; 1.543 and 1 598 B under -race, so the allocation
//	        ceiling is just above that reading). A CPU without SHA-NI
//	        keeps a crypto/sha1 digest per chain and reads the values
//	        before: holdCellUnderCeiling adds those digests' allocations
//	        and bytes to the ceilings there.
//	dense   0.755 allocations and 2 428 B since then (0.771 and 2 430 B
//	        before; 0.817 and 2 457 B under -race).
//	matrix  0.511 allocations and 583 B since then (0.519 and 584 B
//	        before; 0.542 and 588 B under -race).
//	fragmented 0.896 allocations and 1 495 B since then (0.904 and
//	        1 496 B before; 0.921 and 1 498 B under -race).
//	sparse  1.448 allocations and 1 545 B since a robot's tables are one
//	        slice of records each, a checkpoint is encoded into the
//	        storage of the start the last cover superseded with the
//	        controller's state appended straight into it, a round's two
//	        token sets are one allocation, the peer table starts at four
//	        peers, the slab cuts fixed 256-byte chunks, and bodies and
//	        byte counters are carved from chunks (1.854 and 1 565 B
//	        before; 1.606 and 1 605 B under -race, so the allocation
//	        ceiling is just above that reading).
//	dense   0.772 allocations and 2 430 B since then (0.943 and 2 479 B
//	        before; 0.835 and 2 459 B under -race).
//	matrix  0.520 allocations and 584 B since then (0.609 and 597 B
//	        before; 0.552 and 588 B under -race).
//	fragmented 0.904 allocations and 1 496 B since then (0.995 and
//	        1 508 B before; 0.932 and 1 499 B under -race).
//	sparse  1.854 allocations and 1 565 B since no buffer of a robot
//	        grows from empty where its bound is known: the log window
//	        keeps no per-entry offsets, the trusted pair lends from
//	        arrays it holds, the engine sizes its serve window and
//	        candidate list once, and it sends through the a-node itself
//	        rather than a bound method (2.569 and 1 625 B before; 2.125
//	        and 1 610 B under -race, so the allocation ceiling is just
//	        above that reading rather than 10 % above the plain one).
//	dense   0.943 allocations and 2 479 B since then (1.170 and 2 548 B
//	        before; 1.040 and 2 499 B under -race, so 1.05).
//	matrix  0.609 allocations and 597 B since then (0.702 and 604 B
//	        before; 0.646 and 601 B under -race).
//	fragmented 0.995 allocations and 1 508 B since then (1.087 and
//	        1 515 B before; 1.026 and 1 512 B under -race).
//	sparse  2.570 allocations and 1 625 B since a protected robot is
//	        built in six allocations, not 28: its Robot, trusted pair
//	        and engine share one block, keys, chains, log and histogram
//	        are held by value, and the a-node's hooks are the robot
//	        itself (3.227 and 1 664 B before; 2.810 and 1 667 B under
//	        -race).
//	dense   1.170 allocations and 2 549 B since then (1.347 and 2 559 B
//	        before; 1.257 and 2 567 B under -race).
//	matrix  0.702 allocations and 604 B since then (0.791 and 609 B
//	        before; 0.734 and 607 B under -race). 5 % above 604 B is the
//	        byte ceiling already.
//	fragmented 1.087 allocations and 1 515 B since then (1.176 and
//	        1 520 B before; 1.114 and 1 518 B under -race).
//	matrix  0.791 allocations and 610 B since each sender carves its
//	        small payloads from a slab of its own and a fragmented frame
//	        is cut into one buffer (1.082 and 604 B before; 0.825 and
//	        613 B under -race). The bytes rise by the compromised
//	        robot's capture ring, which keeps copies of what it hears
//	        instead of pinning its senders' slab chunks; the byte
//	        ceilings stay.
//	dense   1.347 allocations and 2 559 B since then (1.875 and 2 553 B
//	        before; 1.433 and 2 578 B under -race).
//	sparse  3.227 allocations and 1 664 B since then (3.434 and 1 656 B
//	        before; 3.466 and 1 707 B under -race).
//	fragmented 1.176 allocations and 1 520 B at MTU 66 since then
//	        (18.533 and 3 773 B before; 1.203 and 1 523 B under -race):
//	        its ceilings are 10 % above these.
//	matrix  1.082 allocations and 604 B since an audit round allocates
//	        only its frames: the engine keeps one round whose token and
//	        ask sets are slices, the log rewrites its covered start in
//	        place, the checkpoint state is encoded once, the auditor
//	        decodes into a request it keeps, and an attacker builds its
//	        strategy's view once (1.910 and 702 B before; 1.114 and 608 B
//	        under -race).
//	dense   1.875 allocations and 2 553 B since then (2.445 and 2 690 B
//	        before; 1.968 and 2 574 B under -race).
//	sparse  3.434 allocations and 1 656 B since then (3.871 and 1 712 B
//	        before; 3.673 and 1 699 B under -race).
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
//	        registries — was over a quarter of what was left then; a
//	        cell of this shape spreads it over 32 ticks only. Building a
//	        protected robot is now held on its own, by
//	        TestProtectedRobotBuildAllocations.
//
// What is left of the bytes is what is sent: each of a round's f_max+1
// request frames owns a whole payload (DESIGN.md, "Byte ownership on
// the data path"), and the log window's growth. The small payloads sent
// share chunks, so their bytes now cost a fraction of an allocation.
// What is left of a sparse robot's construction is four allocations over
// its 32 ticks, ~0.13 per robot-tick.
const (
	denseCellAllocCeiling      = 0.83
	sparseCellAllocCeiling     = 1.56
	matrixCellAllocCeiling     = 0.56
	fragmentedCellAllocCeiling = 0.99
	denseCellBytesCeiling      = 2549
	sparseCellBytesCeiling     = 1615
	matrixCellBytesCeiling     = 612
	fragmentedCellBytesCeiling = 1570
)

// The most bytes the quick dense cell may keep, ratcheted the same way:
// 10 % above the values measured when the ceilings were last set.
//
//	snapshot   398 088 B at tick 60 since a covered audit round holds no
//	           request bytes and serializes none (751 432 B before). The
//	           count is exact: the snapshot is a deterministic encoding.
//	live heap  86 776 B at most at N=5 (86 824 under -race) since the
//	           chains' SHA-1 digests live in the protected block, which
//	           stays in its size class, instead of in two allocations of
//	           their own per robot. The ceiling stays. Before that:
//	live heap  87 960 B at most at N=5 (87 832 under -race) since a
//	           checkpoint is encoded where the last one was: each robot
//	           keeps the start its last cover superseded as the log's
//	           spare, so the ceiling, 10 % above the reading before,
//	           stays. Before that:
//	live heap  86 648 B at most at N=5 (86 504 plain, 86 296–86 648 under
//	           -race) since the log window keeps no per-entry offsets and
//	           the lend buffers and serve window are sized once; the
//	           ceiling is 10 % above it. Before that:
//	live heap  89 528 B at most at N=5 (the larger of the plain and
//	           -race readings, 89 416–89 448 and 89 272–89 528), sampled
//	           after a collection every 4 ticks, since the cell keeps no
//	           flight recorder: its violation dump is rebuilt by re-run
//	           (121 760–127 304 before, when covered rounds, the medium's
//	           delivery buffers and the audit cache's decode scratch had
//	           let go of request payloads; 150 904 and 151 128 before
//	           that). N=5 is the smallest cell that reads the
//	           difference: at N=4 a robot latches. Since each sender
//	           carves its small payloads from a slab of its own it
//	           reads 90 648–90 824 B, plain and -race: every sender's
//	           current chunk is live. In about one run in four, at the
//	           parent of that change as well, the base or the peak
//	           reads ~5.6 KB more (runtime-owned allocations such as a
//	           new thread's, not the cell's objects), so a reading up
//	           to ~96 400 B is the same heap. The test holds the
//	           smallest of three readings (90 616–90 712 B), so the
//	           margin is ~7.8 KB, not the ~2.3 KB a high one leaves.
const (
	denseSnapshotBytesCeiling = 437_896
	denseLiveHeapCeiling      = 95_400
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
// The cell is deterministic, so what varies between readings is heap
// the runtime owns (a new thread's stack): the cell is measured three
// times and the smallest reading is held under the ceiling.
func TestDenseCellLiveHeapCeiling(t *testing.T) {
	RunChaos(denseQuickCell(4))
	cfg := denseQuickCell(5)
	live := int64(math.MaxInt64)
	for i := range 3 {
		reading := denseCellLiveHeap(t, cfg)
		t.Logf("dense cell (N=%d), reading %d: at most %d B live", cfg.N, i+1, reading)
		live = min(live, reading)
	}
	t.Logf("dense cell (N=%d): smallest reading %d B, ceiling %d", cfg.N, live, denseLiveHeapCeiling)
	if live > denseLiveHeapCeiling {
		t.Errorf("the cell keeps up to %d B live, over the ceiling of %d: find what holds bytes nothing reads again "+
			"(DESIGN.md, \"Byte ownership on the data path\") instead of raising the ceiling", live, denseLiveHeapCeiling)
	}
}

// denseCellLiveHeap runs cfg once and returns the most heap it kept
// live at a tick boundary that is a multiple of 4, net of the heap live
// before it started.
func denseCellLiveHeap(t *testing.T, cfg ChaosConfig) int64 {
	var ms runtime.MemStats
	// Two collections: the first can leave the previous run's pooled
	// objects and finalizer-reachable garbage for the second.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	var peak uint64
	boundaries := 0
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
	return int64(peak) - int64(base)
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

// TestMatrixCellsAllocationCeiling runs the paper's correctness matrix
// at seed 1 — three controllers under seven fault profiles, 21 cells at
// the chaos plane's default sizes (9 flocking robots, 6 patrol or
// warehouse, 60 s) — and holds the whole pass, construction included,
// under the ceilings. Its cells run a few robots for many ticks, so an
// audit round's bookkeeping and an attacker's per-tick context would
// show here first.
func TestMatrixCellsAllocationCeiling(t *testing.T) {
	holdCellUnderCeiling(t, "matrix", matrixCellAllocCeiling, matrixCellBytesCeiling,
		ChaosMatrix([]string{"flocking", "patrol", "warehouse"}, faultinject.Profiles(), []uint64{1}, ChaosConfig{})...)
}

// TestFragmentedCellsAllocationCeiling runs the three controllers'
// default cells with no faults at seeds 1 and 2 at the RFM69's 66-byte
// MTU (Appendix B), where an audit request travels in tens of
// fragments, and holds the pass, construction included, under the
// ceilings: a fragmented frame costs its sender one buffer and its
// receiver one, not one or more per fragment.
func TestFragmentedCellsAllocationCeiling(t *testing.T) {
	holdCellUnderCeiling(t, "fragmented", fragmentedCellAllocCeiling, fragmentedCellBytesCeiling,
		ChaosMatrix([]string{"flocking", "patrol", "warehouse"}, []faultinject.Profile{faultinject.ProfileNone},
			[]uint64{1, 2}, ChaosConfig{MTUBytes: 66})...)
}

func holdCellUnderCeiling(t *testing.T, name string, ceiling, bytesCeiling float64, cfgs ...ChaosConfig) {
	var robotTicks, chains float64
	for _, cfg := range cfgs {
		n := cfg.withScalarDefaults().N
		robotTicks += float64(n) * float64(cfg.Ticks())
		chains += float64(2*n + 2) // each robot's pair, and the audit cache's replay machine's
	}
	if !cryptolite.SHA1UsesSHANI() {
		// Without SHA-NI each trusted chain allocates a crypto/sha1
		// digest (112 B) at its first use.
		ceiling += chains / robotTicks
		bytesCeiling += 112 * chains / robotTicks
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, cfg := range cfgs {
		if res := RunChaos(cfg); res.Violation != nil {
			t.Fatalf("cell %s latched %v", cfg.Label(), res.Violation)
		}
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / robotTicks
	gotBytes := float64(after.TotalAlloc-before.TotalAlloc) / robotTicks
	t.Logf("%s: %d cells, %.0f robot-ticks, %.3f allocations and %.0f B per robot-tick, ceilings %.2f and %.0f",
		name, len(cfgs), robotTicks, got, gotBytes, ceiling, bytesCeiling)
	if got > ceiling || gotBytes > bytesCeiling {
		t.Errorf("%s cells make %.2f allocations of %.0f B per robot-tick, over the ceilings of %.2f and %.0f: "+
			"find what allocates (go test -run 'Test.*AllocationCeiling' -memprofile) instead of raising a ceiling",
			name, got, gotBytes, ceiling, bytesCeiling)
	}
}

// protectedRobotBuildCeiling is the most heap allocations building one
// protected robot through Sim.AddRobot may make in a faulted,
// instrumented cell: the robot's own block (the Robot, its s-node,
// a-node and protocol engine), its controller, its skewed trusted clock
// and the a-node's CheckAuthenticator, which the engine binds for
// replay.Config. Its physics body is carved from the world's chunks.
// It read 5 while each body was an allocation of its own, 6 while the
// engine also bound SendWirelessEnc (it now sends through the a-node as
// a Sender), and 28 before the block: the Robot, nodes, engine, log and
// histogram on their own, four hook closures, four LightMACs (two of
// them master-key MACs dropped at once), two chains, two master-key
// copies, three method values and a two-object skewed clock.
//
// protectedRobotFirstTickCeiling is the most the build and the robot's
// first tick may make together, pinned at the measured count: the
// build's four and the log window's growth from empty as the tick's
// sensor, broadcast and actuator entries land in it (two to three). The
// average over 200 robots also carries the one robot in 16 whose audit
// phase falls on that tick and starts a round, and the chunks the first
// broadcasts are carved from. The trusted chains' SHA-1 digests live in
// the chains; on a CPU without SHA-NI each of the two chains makes a
// crypto/sha1 digest at its first append, so the tick makes
// stdlibDigestAllocs more there (10, as before the kernel).
const (
	protectedRobotBuildCeiling     = 4
	protectedRobotFirstTickCeiling = 8
	stdlibDigestAllocs             = 2
)

// firstTickCeiling is protectedRobotFirstTickCeiling on the path this
// CPU's chains hash on.
func firstTickCeiling() int {
	if cryptolite.SHA1UsesSHANI() {
		return protectedRobotFirstTickCeiling
	}
	return protectedRobotFirstTickCeiling + stdlibDigestAllocs
}

// TestProtectedRobotBuildAllocations holds building a protected robot
// under protectedRobotBuildCeiling, and building it and running its
// first tick under protectedRobotFirstTickCeiling, so that what a robot
// makes lazily at its first tick counts as well. The cell is faulted
// (every robot's trusted clock is skewed, so each gets a clock of its
// own) and registers metrics, as a chaos cell does. Each run adds a
// robot with a new ID; the sim's robot map, actor list and medium queue
// grow by doubling, which the average truncates away.
func TestProtectedRobotBuildAllocations(t *testing.T) {
	for _, c := range []struct {
		name    string
		tick    bool
		ceiling int
	}{
		{"building a protected robot", false, protectedRobotBuildCeiling},
		{"building a protected robot and running its first tick", true, firstTickCeiling()},
	} {
		sched := faultinject.Schedule{Faults: []faultinject.Fault{
			{Kind: faultinject.ClockSkew, Start: 0, Duration: 100, OffsetTicks: 2},
		}}
		s := NewSim(SimConfig{Seed: 1, Faults: &sched, Metrics: obs.NewRegistry()})
		_, factory := FlockScenario{N: 1, Spacing: 20, Goal: geom.V(100, 100)}.layout()
		id := wire.RobotID(0)
		got := testing.AllocsPerRun(200, func() {
			id++
			r := s.AddRobot(id, geom.V(float64(id), 0), factory, true)
			if c.tick {
				r.Tick(s.Engine.Now())
			}
		})
		t.Logf("%s: %.0f allocations, ceiling %d", c.name, got, c.ceiling)
		if got > float64(c.ceiling) {
			t.Errorf("%s makes %.0f allocations, over the ceiling of %d: "+
				"find what robot.New or the first tick allocates (-memprofile) instead of raising the ceiling",
				c.name, got, c.ceiling)
		}
	}
}
