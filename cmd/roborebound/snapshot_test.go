package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// captureSnap runs a snapshot/resume subcommand with the pair's flags
// pinned to a short chaos cell and a temp file, restoring everything
// after.
func captureSnap(t *testing.T, file string, verify bool, f func() int) (string, int) {
	t.Helper()
	oldCtrl, oldProf, oldDur := *snapController, *snapProfile, *snapDuration
	oldAt, oldOut, oldFrom, oldVerify := *snapAt, *snapOut, *snapFrom, *snapVerify
	*snapController, *snapProfile, *snapDuration = "patrol", "loss", 30
	*snapAt, *snapOut, *snapFrom, *snapVerify = 0, file, file, verify
	defer func() {
		*snapController, *snapProfile, *snapDuration = oldCtrl, oldProf, oldDur
		*snapAt, *snapOut, *snapFrom, *snapVerify = oldAt, oldOut, oldFrom, oldVerify
	}()
	return capture(t, false, f)
}

func TestSnapshotResumeCLI(t *testing.T) {
	file := filepath.Join(t.TempDir(), "cell.rbsn")

	got, exit := captureSnap(t, file, false, snapshotCmd)
	if exit != 0 {
		t.Fatalf("snapshot subcommand exited %d:\n%s", exit, got)
	}
	for _, want := range []string{"Snapshot", "captured tick 60 of 120", "fingerprint", "verdict: ok"} {
		if !strings.Contains(got, want) {
			t.Errorf("snapshot output missing %q:\n%s", want, got)
		}
	}
	if _, err := os.Stat(file); err != nil {
		t.Fatalf("snapshot file not written: %v", err)
	}

	got, exit = captureSnap(t, file, true, resumeCmd)
	if exit != 0 {
		t.Fatalf("resume -verify exited %d:\n%s", exit, got)
	}
	for _, want := range []string{"Resume", "chaos patrol/loss seed=1", "verify: ok", "byte-identical"} {
		if !strings.Contains(got, want) {
			t.Errorf("resume output missing %q:\n%s", want, got)
		}
	}
}

func TestResumeCLIRejectsCorruptFile(t *testing.T) {
	file := filepath.Join(t.TempDir(), "cell.rbsn")
	got, exit := captureSnap(t, file, false, snapshotCmd)
	if exit != 0 {
		t.Fatalf("snapshot subcommand exited %d:\n%s", exit, got)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(file, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, exit := captureSnap(t, file, false, resumeCmd); exit == 0 {
		t.Error("resume accepted a corrupted snapshot file")
	}
}
