package roborebound

// differential_test.go is the headline of the spatial-index work: the
// index is allowed to exist only because nothing can tell it apart
// from brute force. Every cell of a (controller × fault profile ×
// seed) matrix runs twice — spatial index off, then on — and the two
// runs must agree byte for byte on all three observability surfaces:
//
//   - the SHA-256 chaos fingerprint (every robot's final position,
//     velocity, counters, safe-mode state, engine stats),
//   - the full NDJSON event trace (every frame tx/rx/drop, audit
//     round, token grant, safe-mode transition, in order),
//   - the final metrics snapshot (every registered gauge/counter).
//
// Faster-but-slightly-different is indistinguishable from broken
// here: one reordered loss draw cascades through the RNG stream and
// flips the fingerprint, so equality is a proof of behavioral
// identity, not a smoke test.

import (
	"bytes"
	"fmt"
	"testing"

	"roborebound/internal/faultinject"
	"roborebound/internal/obs"
)

// runTracedCell executes one chaos cell with a private trace collector
// and returns the result plus the serialized NDJSON event log.
func runTracedCell(t *testing.T, cfg ChaosConfig) (ChaosResult, []byte) {
	t.Helper()
	col := obs.NewCollector()
	cfg.Trace = col
	res := RunChaos(cfg)
	var buf bytes.Buffer
	if err := obs.WriteNDJSON(&buf, col.Events()); err != nil {
		t.Fatalf("%s: serializing trace: %v", cfg.Label(), err)
	}
	return res, buf.Bytes()
}

// assertCellsIdentical compares the three surfaces of a brute/indexed
// run pair.
func assertCellsIdentical(t *testing.T, label string, brute, indexed ChaosResult, bruteTrace, indexedTrace []byte) {
	t.Helper()
	if len(bruteTrace) == 0 {
		t.Fatalf("%s: empty event trace — the differential would be vacuous", label)
	}
	if brute.Metrics.Fingerprint != indexed.Metrics.Fingerprint {
		t.Errorf("%s: fingerprints diverge:\n  brute   %s\n  indexed %s",
			label, brute.Metrics.Fingerprint, indexed.Metrics.Fingerprint)
	}
	if !bytes.Equal(bruteTrace, indexedTrace) {
		t.Errorf("%s: NDJSON traces diverge (%d vs %d bytes): %s",
			label, len(bruteTrace), len(indexedTrace), firstTraceDiff(bruteTrace, indexedTrace))
	}
	if !obs.SamplesEqual(brute.MetricsSnapshot, indexed.MetricsSnapshot) {
		t.Errorf("%s: metrics snapshots diverge", label)
	}
	if (brute.Violation == nil) != (indexed.Violation == nil) {
		t.Errorf("%s: violation only on one path: brute=%v indexed=%v",
			label, brute.Violation, indexed.Violation)
	}
}

// firstTraceDiff locates the first differing NDJSON line, so a
// divergence failure says *which event* went wrong, not just that some
// byte did.
func firstTraceDiff(a, b []byte) string {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("first diff at line %d:\n  brute   %s\n  indexed %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("traces are a prefix of each other (%d vs %d lines)", len(la), len(lb))
}

// TestSpatialIndexDifferentialMatrix is the full differential matrix:
// three controllers × three fault profiles × eight seeds, every cell
// byte-compared between the brute-force and indexed paths. The cells
// include the default Byzantine attacker (compromised early enough to
// act within the shortened mission) and, in the loss/mixed profiles,
// generated fault schedules — so the index is exercised under packet
// loss, partitions, delays, and Safe-Mode kills, not just clean runs.
func TestSpatialIndexDifferentialMatrix(t *testing.T) {
	controllers := []string{"flocking", "patrol", "warehouse"}
	profiles := []faultinject.Profile{
		faultinject.ProfileNone, faultinject.ProfileLoss, faultinject.ProfileMixed,
	}
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, controller := range controllers {
		for _, profile := range profiles {
			for _, seed := range seeds {
				cfg := ChaosConfig{
					Controller:  controller,
					Profile:     profile,
					Seed:        seed,
					DurationSec: 15,
					AttackAtSec: 5, // inside the shortened mission
				}
				t.Run(fmt.Sprintf("%s/%s/seed%d", controller, profile, seed), func(t *testing.T) {
					t.Parallel()
					cfg.SpatialIndex = false
					brute, bruteTrace := runTracedCell(t, cfg)
					cfg.SpatialIndex = true
					indexed, indexedTrace := runTracedCell(t, cfg)
					assertCellsIdentical(t, cfg.Label(), brute, indexed, bruteTrace, indexedTrace)
				})
			}
		}
	}
}

// TestSpatialIndexDifferentialFragmented re-runs a slice of the matrix
// with the radio MTU engaged, so the differential also covers the
// fragmentation/reassembly path (loss applies per fragment there,
// multiplying the RNG draws the two paths must keep aligned).
func TestSpatialIndexDifferentialFragmented(t *testing.T) {
	seeds := []uint64{11, 12, 13}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		cfg := ChaosConfig{
			Controller:  "flocking",
			Profile:     faultinject.ProfileLoss,
			Seed:        seed,
			DurationSec: 15,
			AttackAtSec: 5,
			MTUBytes:    96, // small enough to split audit-round frames
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg.SpatialIndex = false
			brute, bruteTrace := runTracedCell(t, cfg)
			cfg.SpatialIndex = true
			indexed, indexedTrace := runTracedCell(t, cfg)
			assertCellsIdentical(t, cfg.Label(), brute, indexed, bruteTrace, indexedTrace)
		})
	}
}
