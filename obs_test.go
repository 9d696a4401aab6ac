package roborebound

import (
	"bytes"
	"testing"

	"roborebound/internal/faultinject"
	"roborebound/internal/obs"
)

// traceChaosCell runs one fully-instrumented chaos cell and returns
// the serialized NDJSON event log, metrics snapshot, and fingerprint.
func traceChaosCell(t *testing.T, seed uint64) (events, metrics []byte, fingerprint string) {
	t.Helper()
	col := obs.NewCollector()
	res := RunChaos(ChaosConfig{
		Controller:  "flocking",
		Profile:     faultinject.ProfileMixed,
		Seed:        seed,
		DurationSec: 30,
		ChaosRun:    ChaosRun{Trace: col},
	})
	var evBuf, mBuf bytes.Buffer
	if err := obs.WriteNDJSON(&evBuf, col.Events()); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteMetricsJSON(&mBuf, res.MetricsSnapshot); err != nil {
		t.Fatal(err)
	}
	return evBuf.Bytes(), mBuf.Bytes(), res.Metrics.Fingerprint
}

// TestTraceDeterminism pins the tentpole's reproducibility contract:
// the same (scenario, seed) traced twice produces byte-identical
// NDJSON event logs and metrics snapshots.
func TestTraceDeterminism(t *testing.T) {
	ev1, m1, fp1 := traceChaosCell(t, 7)
	ev2, m2, fp2 := traceChaosCell(t, 7)
	if len(ev1) == 0 {
		t.Fatal("traced run produced no events")
	}
	if !bytes.Equal(ev1, ev2) {
		t.Error("NDJSON event logs differ across identical traced runs")
	}
	if !bytes.Equal(m1, m2) {
		t.Errorf("metrics snapshots differ across identical traced runs:\n%s\nvs\n%s", m1, m2)
	}
	if fp1 != fp2 {
		t.Errorf("fingerprints differ: %s vs %s", fp1, fp2)
	}
}

// TestTraceObservationOnly pins the other half of the contract:
// attaching a tracer and a registry must not perturb the simulation.
// The chaos fingerprint of a fully-instrumented run equals the
// untraced run's, bit for bit.
func TestTraceObservationOnly(t *testing.T) {
	_, _, traced := traceChaosCell(t, 11)
	plain := RunChaos(ChaosConfig{
		Controller:  "flocking",
		Profile:     faultinject.ProfileMixed,
		Seed:        11,
		DurationSec: 30,
	})
	if traced != plain.Metrics.Fingerprint {
		t.Fatalf("tracing perturbed the run: traced fingerprint %s != untraced %s",
			traced, plain.Metrics.Fingerprint)
	}
}

// TestChaosMetricsSnapshotAlwaysOn: every chaos cell carries its
// registry snapshot, caller-supplied or not, and the per-robot radio
// gauges agree with the medium's own accounting (summed in
// ChaosMetrics).
func TestChaosMetricsSnapshotAlwaysOn(t *testing.T) {
	res := RunChaos(ChaosConfig{
		Controller:  "patrol",
		Profile:     faultinject.ProfileLoss,
		Seed:        3,
		DurationSec: 30,
	})
	if len(res.MetricsSnapshot) == 0 {
		t.Fatal("chaos result carries no metrics snapshot")
	}
	byName := make(map[string]float64, len(res.MetricsSnapshot))
	for _, s := range res.MetricsSnapshot {
		byName[s.Name] = s.Value
	}
	var tx, rounds float64
	for name, v := range byName {
		switch {
		case hasSuffix(name, ".tx_app_bytes"), hasSuffix(name, ".tx_audit_bytes"):
			tx += v
		case hasSuffix(name, ".rounds_covered"):
			rounds += v
		}
	}
	if got := float64(res.Metrics.TxBytes); tx != got {
		t.Errorf("radio gauges sum to %v Tx bytes, ChaosMetrics says %v", tx, got)
	}
	if rounds < float64(res.Metrics.RoundsCovered) {
		t.Errorf("engine counters sum to %v covered rounds, ChaosMetrics says %v (correct robots only)",
			rounds, res.Metrics.RoundsCovered)
	}
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}
