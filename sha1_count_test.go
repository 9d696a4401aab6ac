package roborebound

import (
	"testing"

	"roborebound/internal/faultinject"
	"roborebound/internal/obs"
	"roborebound/internal/obs/perf"
)

// The SHA-1 unit: ChaosResult.SHA1Compressions counts every compression
// a cell's trusted chains, checkpoint hashes and audit-cache replicas
// ran. The count is a pure function of the cell, like its fingerprint,
// so it is pinned exactly: a change that moves it changes how much the
// paper's hash chains cost per robot-tick, and must say so here.
const (
	// denseSHA1Compressions is the quick dense cell's count with 36
	// robots (18.95 per robot-tick).
	denseSHA1Compressions = 81_867
	// matrixSHA1Compressions is the seed-1 correctness matrix's count,
	// summed over its 21 cells.
	matrixSHA1Compressions = 179_450
)

// TestSHA1CompressionsPinned runs the quick dense cell bare and with a
// tracer and the whole perf plane attached, and the seed-1 matrix on
// one worker and on two, and requires the pinned counts every time: the
// counters are observation-only, so no wiring or worker count moves
// them.
func TestSHA1CompressionsPinned(t *testing.T) {
	dense := denseQuickCell(36)
	if got := RunChaos(dense).SHA1Compressions; got != denseSHA1Compressions {
		t.Errorf("%s: %d SHA-1 compressions, want %d", dense.Label(), got, denseSHA1Compressions)
	}
	wired := dense
	wired.ChaosRun = ChaosRun{
		Trace:       obs.NewCollector(),
		Perf:        perf.NewPhaseTimer(nil),
		PerfRuntime: perf.NewRuntimeSampler(0),
	}
	if got := RunChaos(wired).SHA1Compressions; got != denseSHA1Compressions {
		t.Errorf("%s with a tracer and the perf plane: %d SHA-1 compressions, want %d",
			dense.Label(), got, denseSHA1Compressions)
	}

	matrix := ChaosMatrix(Controllers(), faultinject.Profiles(), []uint64{1}, ChaosConfig{})
	for _, workers := range []int{1, 2} {
		var got uint64
		for _, res := range RunChaosMatrix(matrix, SweepOptions{Workers: workers}) {
			got += res.SHA1Compressions
		}
		if got != matrixSHA1Compressions {
			t.Errorf("seed-1 matrix on %d workers: %d SHA-1 compressions, want %d",
				workers, got, matrixSHA1Compressions)
		}
	}
}
