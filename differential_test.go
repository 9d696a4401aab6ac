package roborebound

// differential_test.go holds today's cells to the brute-force run. The
// uniform grid is how radio delivery and crash detection work; the
// all-pairs loops it replaced are test oracles in internal/radio and
// internal/sim, and this file is their whole-cell counterpart: a
// (controller × fault profile × seed) matrix whose every cell must
// reproduce, byte for byte, what the brute-force path produced for it
// on all three observability surfaces:
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
//
// testdata/brute_record.json is that brute-force run. It was written
// at commit 6eb7a64 — the last with both paths — by a throwaway
// program that ran each cell below with SpatialIndex: false and kept
// the fingerprint, the SHA-256 of the trace and of WriteMetricsJSON's
// output, and any latched violation; plus, for
// replay_differential_test.go, the SHA-256 of every robot's auditable
// log state, and for snapshot_differential_test.go the fingerprint the
// two committed parent snapshots resume to. What it attests: the grid
// path computes the bytes the all-pairs loops computed. A later PR
// that legitimately changes protocol bytes regenerates the record from
// the then-current path (a mismatch prints the cell's current values);
// from then on it is a golden of that PR's behaviour, and the oracle
// tests in internal/radio and internal/sim carry the brute-force
// comparison alone.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"roborebound/internal/faultinject"
	"roborebound/internal/obs"
)

// bruteCell is one cell's brute-force outcome.
type bruteCell struct {
	Fingerprint   string `json:"fingerprint"`
	TraceSHA256   string `json:"trace_sha256"`
	MetricsSHA256 string `json:"metrics_sha256"`
	Violation     string `json:"violation,omitempty"` // "<invariant> at tick T robot R"
}

// bruteRecord is testdata/brute_record.json.
type bruteRecord struct {
	Commit    string                       `json:"commit"`
	Cells     map[string]bruteCell         `json:"cells"`     // by subtest name
	Logs      map[string]map[string]string `json:"logs"`      // seed → robot → SHA-256 of its auditable state
	Snapshots map[string]string            `json:"snapshots"` // testdata file → fingerprint it resumes to
}

var loadBruteRecord = sync.OnceValues(func() (bruteRecord, error) {
	var rec bruteRecord
	data, err := os.ReadFile("testdata/brute_record.json")
	if err == nil {
		err = json.Unmarshal(data, &rec)
	}
	return rec, err
})

func bruteRecordFor(t *testing.T) bruteRecord {
	t.Helper()
	rec, err := loadBruteRecord()
	if err != nil {
		t.Fatalf("brute-force record: %v", err)
	}
	return rec
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

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

// assertMatchesBruteRecord runs one traced cell and compares it with
// the record's entry of that name.
func assertMatchesBruteRecord(t *testing.T, name string, cfg ChaosConfig) {
	t.Helper()
	want, ok := bruteRecordFor(t).Cells[name]
	if !ok {
		t.Fatalf("no brute-force record for cell %q", name)
	}
	res, trace := runTracedCell(t, cfg)
	if len(trace) == 0 {
		t.Fatalf("%s: empty event trace — the comparison would be vacuous", cfg.Label())
	}
	var metrics bytes.Buffer
	if err := obs.WriteMetricsJSON(&metrics, res.MetricsSnapshot); err != nil {
		t.Fatalf("%s: serializing metrics: %v", cfg.Label(), err)
	}
	got := bruteCell{
		Fingerprint:   res.Metrics.Fingerprint,
		TraceSHA256:   sha256Hex(trace),
		MetricsSHA256: sha256Hex(metrics.Bytes()),
	}
	if v := res.Violation; v != nil {
		got.Violation = fmt.Sprintf("%s at tick %d robot %d", v.Invariant, v.Tick, v.Robot)
	}
	if got != want {
		t.Errorf("%s diverges from the brute-force record:\n  got  %+v\n  want %+v", cfg.Label(), got, want)
	}
}

// assertCellsIdentical compares the three surfaces of two runs of one
// cell, a reference and the run under test (the perf-plane and
// protocol-plane differentials).
func assertCellsIdentical(t *testing.T, label string, ref, got ChaosResult, refTrace, gotTrace []byte) {
	t.Helper()
	if len(refTrace) == 0 {
		t.Fatalf("%s: empty event trace — the differential would be vacuous", label)
	}
	if ref.Metrics.Fingerprint != got.Metrics.Fingerprint {
		t.Errorf("%s: fingerprints diverge:\n  ref %s\n  got %s",
			label, ref.Metrics.Fingerprint, got.Metrics.Fingerprint)
	}
	if !bytes.Equal(refTrace, gotTrace) {
		t.Errorf("%s: NDJSON traces diverge (%d vs %d bytes): %s",
			label, len(refTrace), len(gotTrace), firstTraceDiff(refTrace, gotTrace))
	}
	if !obs.SamplesEqual(ref.MetricsSnapshot, got.MetricsSnapshot) {
		t.Errorf("%s: metrics snapshots diverge", label)
	}
	if (ref.Violation == nil) != (got.Violation == nil) {
		t.Errorf("%s: violation in only one run: ref=%v got=%v",
			label, ref.Violation, got.Violation)
	}
}

// firstTraceDiff locates the first differing NDJSON line, so a
// divergence failure says *which event* went wrong, not just that some
// byte did.
func firstTraceDiff(a, b []byte) string {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("first diff at line %d:\n  ref %s\n  got %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("traces are a prefix of each other (%d vs %d lines)", len(la), len(lb))
}

// TestSpatialIndexDifferentialMatrix is the full matrix: three
// controllers × three fault profiles × eight seeds, every cell
// byte-compared with the brute-force record. The cells include the
// default Byzantine attacker (compromised early enough to act within
// the shortened mission) and, in the loss/mixed profiles, generated
// fault schedules — 30 s is past the 24 s below which
// faultinject.Generate schedules nothing — so the grid is held to
// brute force under packet loss, partitions, delays, and Safe-Mode
// kills, not just clean runs. (The name predates the record; it stays
// because the suite's floor lists these subtests by it.)
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
					DurationSec: 30,
					AttackAtSec: 5, // inside the shortened mission
				}
				name := fmt.Sprintf("%s/%s/seed%d", controller, profile, seed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					assertMatchesBruteRecord(t, name, cfg)
				})
			}
		}
	}
}

// TestSpatialIndexDifferentialFragmented re-runs a slice of the matrix
// with the radio MTU engaged, so the record also covers the
// fragmentation/reassembly path (loss applies per fragment there,
// multiplying the RNG draws that candidate order must keep aligned).
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
			DurationSec: 30,
			AttackAtSec: 5,
			MTUBytes:    96, // small enough to split audit-round frames
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			assertMatchesBruteRecord(t, fmt.Sprintf("fragmented/seed%d", seed), cfg)
		})
	}
}
