package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	rr "roborebound"
	"roborebound/internal/faultinject"
	"roborebound/internal/obs"
)

// setFlag points a string flag at a value for one test.
func setFlag(t *testing.T, f *string, v string) {
	t.Helper()
	old := *f
	*f = v
	t.Cleanup(func() { *f = old })
}

// readNonEmpty fails the test unless path exists and has content.
func readNonEmpty(t *testing.T, path, what string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if len(b) == 0 {
		t.Fatalf("%s: %s is empty", what, path)
	}
	return b
}

// TestTraceQuickSmoke runs the trace subcommand twice at the same
// (scenario, seed) and checks the full export path: the summary names
// the protocol events, all three output files are written, the
// Perfetto file is a Chrome trace, and the NDJSON + metrics outputs
// are byte-identical across runs — the determinism contract is pinned
// by obs tests; this asserts it survives the flag plumbing.
func TestTraceQuickSmoke(t *testing.T) {
	dir := t.TempDir()
	ev := filepath.Join(dir, "events.ndjson")
	pf := filepath.Join(dir, "trace.json")
	mx := filepath.Join(dir, "metrics.json")
	setFlag(t, eventsOut, ev)
	setFlag(t, perfettoOut, pf)
	setFlag(t, metricsOut, mx)

	got, exit := capture(t, true, traceCmd)
	if exit != 0 {
		t.Fatalf("trace exited %d:\n%s", exit, got)
	}
	for _, want := range []string{
		"trace flocking", "audit-round-start", "token-granted",
		"safe-mode-entered", "frame-rx", "wrote",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("trace output missing %q:\n%s", want, got)
		}
	}

	events1 := readNonEmpty(t, ev, "NDJSON event log")
	metrics1 := readNonEmpty(t, mx, "metrics snapshot")
	perfetto := readNonEmpty(t, pf, "Perfetto trace")
	if !bytes.HasPrefix(events1, []byte(`{"tick":`)) {
		t.Errorf("NDJSON log does not start with an event line: %.80s", events1)
	}
	if !bytes.Contains(perfetto, []byte(`"traceEvents"`)) {
		t.Errorf("Perfetto file lacks traceEvents: %.120s", perfetto)
	}
	if !bytes.Contains(metrics1, []byte("core.robot.")) ||
		!bytes.Contains(metrics1, []byte("radio.robot.")) {
		t.Errorf("metrics snapshot lacks engine/radio metrics: %.200s", metrics1)
	}

	if _, exit := capture(t, true, traceCmd); exit != 0 {
		t.Fatalf("second trace exited %d", exit)
	}
	events2 := readNonEmpty(t, ev, "NDJSON event log (2nd run)")
	metrics2 := readNonEmpty(t, mx, "metrics snapshot (2nd run)")
	if !bytes.Equal(events1, events2) {
		t.Error("NDJSON event logs differ across identical trace runs")
	}
	if !bytes.Equal(metrics1, metrics2) {
		t.Error("metrics snapshots differ across identical trace runs")
	}
}

// TestChaosObsExports feeds synthetic chaos results through the
// export path: -metrics sums per-cell snapshots, -events dumps only
// the violating cell's flight recorder with its cell marker line.
func TestChaosObsExports(t *testing.T) {
	dir := t.TempDir()
	ev := filepath.Join(dir, "dumps.ndjson")
	mx := filepath.Join(dir, "metrics.json")
	setFlag(t, eventsOut, ev)
	setFlag(t, metricsOut, mx)

	results := []rr.ChaosResult{
		{
			Config:          rr.ChaosConfig{Controller: "patrol", Profile: faultinject.ProfileNone, Seed: 1},
			MetricsSnapshot: []obs.Sample{{Name: "core.robot.1.rounds_started", Value: 4}},
		},
		{
			Config:          rr.ChaosConfig{Controller: "flocking", Profile: faultinject.ProfileNone, Seed: 2},
			MetricsSnapshot: []obs.Sample{{Name: "core.robot.1.rounds_started", Value: 6}},
			Violation: &faultinject.Violation{
				Invariant: "bti",
				Robot:     3,
				Tick:      200,
				Events: []obs.Event{
					{Tick: 190, Robot: 3, Kind: obs.EvTokenGranted, Peer: 1, Value: 2},
					{Tick: 198, Robot: 3, Kind: obs.EvAuditRoundStart, Value: 64},
				},
			},
		},
	}
	got, _ := capture(t, true, func() int {
		if !chaosObsExports(results) {
			t.Error("chaosObsExports reported a failed write")
		}
		return 0
	})
	if !strings.Contains(got, "wrote") {
		t.Errorf("export wrote nothing:\n%s", got)
	}

	metrics := string(readNonEmpty(t, mx, "summed metrics"))
	if !strings.Contains(metrics, `"core.robot.1.rounds_started": 10`) {
		t.Errorf("metrics not summed across cells:\n%s", metrics)
	}
	dumps := string(readNonEmpty(t, ev, "flight dumps"))
	if !strings.Contains(dumps, `"cell":"chaos flocking/none seed=2"`) ||
		!strings.Contains(dumps, `"invariant":"bti"`) {
		t.Errorf("dump lacks the violating cell marker:\n%s", dumps)
	}
	if !strings.Contains(dumps, `"kind":"token-granted"`) {
		t.Errorf("dump lacks the flight-recorder events:\n%s", dumps)
	}
	if strings.Contains(dumps, "patrol") {
		t.Errorf("non-violating cell leaked into the dump:\n%s", dumps)
	}
}

// TestProfileFlagsSmoke drives the -cpuprofile / -memprofile /
// -runtime-trace plumbing end to end: profiles start, a real (small)
// workload runs, and stop leaves non-empty files behind.
func TestProfileFlagsSmoke(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	rt := filepath.Join(dir, "runtime.trace")
	setFlag(t, cpuprofile, cpu)
	setFlag(t, memprofile, mem)
	setFlag(t, runtimeTrace, rt)

	stop, err := startProfiles()
	if err != nil {
		t.Fatal(err)
	}
	rr.RunChaos(rr.ChaosConfig{
		Controller:  "patrol",
		Profile:     faultinject.ProfileNone,
		Seed:        1,
		DurationSec: 10,
	})
	stop()

	readNonEmpty(t, cpu, "CPU profile")
	readNonEmpty(t, mem, "heap profile")
	readNonEmpty(t, rt, "runtime trace")
}
