//go:build soak

package roborebound

import (
	"slices"
	"testing"

	"roborebound/internal/faultinject"
)

// TestLatchCensus re-runs ROADMAP item 1's census — 3 controllers × 7
// profiles × seeds 1..256 at the chaos defaults, 5 376 cells — and
// holds the set of cells that latch to exactly the census rows of
// knownFalsePositiveLatches, each at its pinned tick and robot: a new
// latch fails, and so does one that vanished. Every latch must carry
// its robot's flight-recorder dump, rebuilt by re-running the cell. It
// takes about 23 s on two cores, so it is `make soak`, not tier-1:
//
//	go test -tags soak -run TestLatchCensus .
func TestLatchCensus(t *testing.T) {
	want := map[string]knownFalsePositiveLatch{}
	for _, l := range knownFalsePositiveLatches {
		if l.durationSec == 0 && l.attackAtSec == 0 {
			want[l.config().Label()] = l
		}
	}
	if len(want) != 24 {
		t.Fatalf("the table holds %d census rows, want 24", len(want))
	}
	// Blocks of 16 seeds keep only a block's results in memory.
	const seeds, block = 256, 16
	latched := 0
	for first := uint64(1); first <= seeds; first += block {
		var blockSeeds []uint64
		for s := first; s < first+block; s++ {
			blockSeeds = append(blockSeeds, s)
		}
		cfgs := ChaosMatrix([]string{"flocking", "patrol", "warehouse"}, faultinject.Profiles(), blockSeeds, ChaosConfig{})
		for _, r := range RunChaosMatrix(cfgs, SweepOptions{}) {
			label := r.Config.Label()
			l, known := want[label]
			switch {
			case known:
				l.check(t, r.Violation)
			case r.Violation != nil:
				t.Errorf("%s: latched %v, a cell outside the census", label, r.Violation)
			}
			if r.Violation != nil {
				latched++
				if len(r.Violation.Events) == 0 {
					t.Errorf("%s: the violation carries no flight-recorder dump", label)
				}
			}
		}
	}
	t.Logf("%d of %d cells latched", latched, 3*len(faultinject.Profiles())*seeds)
}

// TestLatchSchedulesDDMinToTheirMinimal: ddmin over each row's
// generated schedule, replayed as ExtraFaults under Profile none and
// keeping a subset while it makes the row's latch, ends at the row's
// pinned minimal schedule. Tier-1 checks that schedule's replay and
// 1-minimality (TestLatchSchedulesShrinkToOneMinimal); this re-derives
// it, at up to 32 cell runs a row:
//
//	go test -tags soak -run TestLatchSchedulesDDMinToTheirMinimal .
func TestLatchSchedulesDDMinToTheirMinimal(t *testing.T) {
	for _, l := range knownFalsePositiveLatches {
		t.Run(l.config().Label(), func(t *testing.T) {
			t.Parallel()
			shrunk := ddmin(l.schedule(), func(faults []faultinject.Fault) bool { return l.is(l.replay(faults)) })
			got := make([]string, len(shrunk))
			for i := range shrunk {
				got[i] = shrunk[i].String()
			}
			if !slices.Equal(got, l.minimal) {
				t.Errorf("ddmin kept %q, pinned %q", got, l.minimal)
			}
		})
	}
}
