package roborebound

// swarm_differential_test.go extends the PR 5 differential layer to
// the protocol planes: the reference plane (buffered chains, per-round
// re-encodes, per-auditor request encodes, no audit cache) is the
// oracle, and the fast plane must reproduce it byte for byte on all
// three observability surfaces — chaos fingerprint, NDJSON event
// trace, and metrics snapshot. The streaming chains, the encode-once
// audit path, and the shared verdict cache are each allowed to exist
// only because nothing can tell them apart from the
// straight-from-the-paper pipeline.

import (
	"fmt"
	"testing"

	"roborebound/internal/faultinject"
)

// TestProtocolPlaneDifferentialMatrix runs (controller × profile ×
// seed) cells on both planes. The cells include the default
// Byzantine attacker and generated fault schedules, so the cached
// audit path is exercised under refusals, packet loss, and Safe-Mode
// kills — not just clean rounds.
func TestProtocolPlaneDifferentialMatrix(t *testing.T) {
	controllers := []string{"flocking", "warehouse"}
	profiles := []faultinject.Profile{faultinject.ProfileNone, faultinject.ProfileMixed}
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, controller := range controllers {
		for _, profile := range profiles {
			for _, seed := range seeds {
				cfg := ChaosConfig{
					Controller:  controller,
					Profile:     profile,
					Seed:        seed,
					DurationSec: 15,
					AttackAtSec: 5,
				}
				t.Run(fmt.Sprintf("%s/%s/seed%d", controller, profile, seed), func(t *testing.T) {
					t.Parallel()
					cfg.ReferencePlane = true
					ref, refTrace := runTracedCell(t, cfg)

					cfg.ReferencePlane = false
					fast, fastTrace := runTracedCell(t, cfg)
					assertCellsIdentical(t, cfg.Label()+" [fast]", ref, fast, refTrace, fastTrace)
				})
			}
		}
	}
}

// TestProtocolPlaneDifferentialSwarmCell is one production-shaped cell:
// larger flock, spatial index on, both planes. This is the
// miniature of what `roborebound swarm` runs at N=1000+.
func TestProtocolPlaneDifferentialSwarmCell(t *testing.T) {
	if testing.Short() {
		t.Skip("swarm cell is slow")
	}
	cfg := ChaosConfig{
		Controller:     "flocking",
		Profile:        faultinject.ProfileNone,
		Seed:           7,
		N:              60,
		DurationSec:    12,
		SpacingM:       40,
		SpatialIndex:   true,
		ReferencePlane: true,
	}
	ref, refTrace := runTracedCell(t, cfg)
	cfg.ReferencePlane = false
	fast, fastTrace := runTracedCell(t, cfg)
	assertCellsIdentical(t, cfg.Label()+" [fast]", ref, fast, refTrace, fastTrace)
}
