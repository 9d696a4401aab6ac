package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capturePerf runs the perf subcommand with its flags pinned to a
// short chaos cell, restoring everything after.
func capturePerf(t *testing.T, perfetto, jsonOut string, f func() int) (string, int) {
	t.Helper()
	oldCtrl, oldProf, oldDur := *snapController, *snapProfile, *snapDuration
	oldPerfetto, oldJSON := *perfettoOut, *perfJSONOut
	*snapController, *snapProfile, *snapDuration = "flocking", "mixed", 30
	*perfettoOut, *perfJSONOut = perfetto, jsonOut
	defer func() {
		*snapController, *snapProfile, *snapDuration = oldCtrl, oldProf, oldDur
		*perfettoOut, *perfJSONOut = oldPerfetto, oldJSON
	}()
	return capture(t, false, f)
}

func TestPerfCLISmoke(t *testing.T) {
	got, exit := capturePerf(t, "", "", perfCmd)
	if exit != 0 {
		t.Fatalf("perf subcommand exited %d:\n%s", exit, got)
	}
	for _, want := range []string{
		"Perf —", "differential: ok", "byte-identical",
		"phase", "pipe%", "p50 µs", "p99 µs",
		"radio-deliver", "actor-tick", "pipeline total",
		"runtime:", "samples", "goroutines",
		"SHA-1:", "compressions", "per robot-tick",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("perf output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "FAIL") {
		t.Errorf("perf output reports failures:\n%s", got)
	}
	if strings.Contains(got, "SHA-1: 0 compressions") {
		t.Errorf("perf counted no SHA-1 compressions:\n%s", got)
	}
}

// TestPerfCLIExports exercises the -perfetto and -json paths: the
// NDJSON differential runs (collectors attached), the merged trace and
// phase report land on disk, and both parse as JSON.
func TestPerfCLIExports(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "merged.json")
	report := filepath.Join(dir, "perf.json")
	got, exit := capturePerf(t, trace, report, perfCmd)
	if exit != 0 {
		t.Fatalf("perf subcommand exited %d:\n%s", exit, got)
	}
	if !strings.Contains(got, "differential: ok") {
		t.Errorf("perf output missing differential verdict:\n%s", got)
	}
	for _, file := range []string{trace, report} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("export not written: %v", err)
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			t.Errorf("%s is not valid JSON: %v", filepath.Base(file), err)
		}
	}
}
